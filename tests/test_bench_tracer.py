"""The benchmark's per-layer tracer must still find every layer it times.

``bench/tracing.py`` swaps timing wrappers into the library's module
namespaces by name, so renaming or inlining a traced function silently
drops its metrics. These tests load the tracer by file path (the bench
directory is not a package) and check its names against the library.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from neumann_bounds import cli, oracle

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.TRACED
    for full in tracing.TRACED:
        module_name, attr = full.split(".")
        module = importlib.import_module(f"neumann_bounds.{module_name}")
        assert callable(getattr(module, attr, None)), full


def test_descent_observer_arguments_exist():
    # the descent observer binds these to count iterations and cap hits
    params = inspect.signature(oracle.minimize_rayleigh_p).parameters
    assert {"iterations", "starts", "return_info"} <= set(params)


def test_installed_tracer_records_the_oracle_layers(tmp_path):
    # the wrappers only see calls made through the module bindings they patch
    tracing = load_tracing()
    tracer = tracing.Tracer()
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"type": "cells", "cells": [
        {"vertices": [[x, 0], [x + 1, 0], [x + 1, 1], [x + 0.2, 1]]} for x in (0.0, 0.5)]}))
    with tracer.installed():
        for p in ("2", "3"):
            out = tmp_path / f"star{p}.json"
            assert cli.main(["bound-star", "--delta", "1.0", "--p", p, "--h", "0.4",
                             "--out", str(out)]) == 0
        # the star's measures are closed forms; a pair of trapezoids builds and clips
        # cells (rectangle covers are measured in integers, without cells)
        assert cli.main(["bound-cells", "--domain", str(pair), "--no-verify",
                         "--out", str(tmp_path / "pair_out.json")]) == 0
    assert tracer.missing == []
    names = {span[0] for span in tracer.spans}
    for layer in ("cli.main", "cli.render_report", "geometry.build_star_domain",
                  "geometry.ConvexCell", "geometry.intersection_volume",
                  "oracle.mesh_domain", "oracle.TriangleMesh", "oracle.check_domination",
                  "oracle.neumann_mu2", "oracle.p1_matrices", "oracle.minimize_rayleigh_p",
                  "oracle.project_constraint"):
        assert layer in names, layer
    descent = [s for s in tracer.spans if s[0] == "oracle.minimize_rayleigh_p"]
    assert descent and all(s[6]["iterations"] > 0 for s in descent)
    # the p = 3 star's descent stops on its test, well before the step cap
    assert all(s[6]["cap_hit"] == 0 for s in descent)


def test_descent_iterations_within_the_tracer_cap():
    # the descent observer counts a cap hit as iterations >= iterations * starts
    mesh = oracle.mesh_domain({"kind": "rectangle", "bounds": [0, 0, 2, 1]}, 0.2)
    for iterations, starts in ((3, 1), (3, 2), (200, 2)):
        _, info = oracle.minimize_rayleigh_p(mesh, 3.0, iterations=iterations, starts=starts,
                                             return_info=True)
        assert info["iterations"] <= iterations * starts
