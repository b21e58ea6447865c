import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

import scipy.spatial
from scipy.spatial import QhullError

import neumann_bounds
from neumann_bounds import cli, geometry, oracle
from neumann_bounds.cli import (
    CliError,
    emit_table,
    main,
    rect_cover_multiplicity,
)
from neumann_bounds.geometry import (
    ConvexCell,
    StarDomainSpec,
    WhitneyTriple,
    build_star_domain,
    cell_volume,
)
from neumann_bounds.oracle import TriangleMesh, mesh_domain
from neumann_bounds.poincare import CertTerm, PoincareBound
from neumann_bounds.qc_transfer import (
    ChainFactor,
    EigenBound,
    QCMapData,
    eigen_transfer,
)

PI2 = math.pi**2

# a sampled map with alpha = 8 and a Poincare base at r = 4, which the eigen transfer accepts
SAMPLED_R4 = ({"kind": "sampled", "weights": [0.5, 0.5], "dphi": [1.0, 1.2], "jac": [1.0, 1.0],
               "K": 1.5, "alpha": 8.0, "n": 2},
              {"bound": 0.5, "p": 2.0, "r": 4.0, "form": "deviation-from-mean"})


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def pair_domain(tmp_path):
    return write_json(
        tmp_path / "cells.json",
        {
            "type": "cells",
            "cells": [
                {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                {"vertices": [[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]]},
            ],
        },
    )


def run_cli(args):
    return main([str(a) for a in args])


def run_fresh_process(args, module=("-m", "neumann_bounds.cli")):
    """The CLI in its own interpreter, as a shell user runs it."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(neumann_bounds.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *module, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_package_root_binds_only_its_version_and_submodules():
    """Each name has one import path, its own module: the root re-exports nothing."""
    stray = sorted(name for name, value in vars(neumann_bounds).items()
                   if not name.startswith("_")
                   and not (isinstance(value, ModuleType) and value.__name__ == f"neumann_bounds.{name}"))
    assert stray == []
    assert isinstance(neumann_bounds.__version__, str)


def test_import_defers_optimize_and_integrate():
    """linprog and quad load where they are used, not with the CLI."""
    code = ("import sys, neumann_bounds.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])")
    fresh = run_fresh_process([], module=("-c", code))
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "[]"


def test_3d_star_loads_no_optimize(tmp_path):
    """The star's measures are closed forms: no linprog Chebyshev centre."""
    code = ("import sys; from neumann_bounds import cli; "
            f"code = cli.main(['bound-star', '--dim', '3', '--out', {str(tmp_path / 's.json')!r}]); "
            "print(code, 'scipy.optimize' in sys.modules)")
    fresh = run_fresh_process([], module=("-c", code))
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "0 False"


def run_fresh_commands(*stages):
    """Each stage's CLI commands in one fresh interpreter: per stage, the exit
    codes and the scipy modules and numpy.ma loaded once they ran. The first
    stage is the package import and runs no command."""
    code = ("import json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m in ('scipy', 'numpy.ma') or m.startswith('scipy.'))\n"
            "import neumann_bounds\n"
            "stages = [([], scipy_modules())]\n"
            "from neumann_bounds import cli\n"
            "for commands in json.loads(sys.argv[1]):\n"
            "    stages.append(([cli.main(args) for args in commands], scipy_modules()))\n"
            "print(json.dumps(stages))\n")
    stages = [[[str(a) for a in args] for args in commands] for commands in stages]
    fresh = run_fresh_process([json.dumps(stages)], module=("-c", code))
    assert fresh.returncode == 0, fresh.stderr
    return json.loads(fresh.stdout)


def test_certificate_only_commands_load_no_scipy(tmp_path):
    """scipy loads where it is used: certificates need none of it, the oracle does.
    numpy.ma stays unloaded too: the chain's strip ends and the eigen transfer's
    q-grid are sorted without np.unique, whose first call imports it."""
    linear = write_json(tmp_path / "linear.json", {"kind": "linear", "matrix": [[2, 0], [0, 1]]})
    sampled = write_json(tmp_path / "sampled.json", SAMPLED_R4[0])
    base = write_json(tmp_path / "base.json", SAMPLED_R4[1])
    chain = write_json(tmp_path / "chain.json", {"type": "cells", "cells": [
        {"vertices": [[0.75 * i, 0], [0.75 * i + 1, 0], [0.75 * i + 1, 1], [0.75 * i, 1]]}
        for i in range(5)]})
    # 2D convex cells are measured in integers: no Qhull either
    polygons = write_json(tmp_path / "polygons.json", {"type": "cells", "cells": [
        {"vertices": [[0, 0], [1, 0], [0.5, 1]]}, {"vertices": [[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]]}]})
    outs = [tmp_path / f"{name}.json" for name in
            ("snow", "star2", "star3", "cells", "chain", "polygons", "via_linear", "via_sampled",
             "eigen")]
    certificates = [
        ["bound-snowflake", "--out", outs[0]],
        ["bound-star", "--dim", 2, "--no-verify", "--out", outs[1]],
        ["bound-star", "--dim", 3, "--out", outs[2]],
        ["bound-cells", "--domain", pair_domain(tmp_path), "--no-verify", "--out", outs[3]],
        ["bound-cells", "--domain", chain, "--no-verify", "--out", outs[4]],
        ["bound-cells", "--domain", polygons, "--no-verify", "--out", outs[5]],
        ["transfer", "--map", linear, "--base", base, "--out", outs[6]],
        ["transfer", "--map", sampled, "--base", base, "--out", outs[7]],
        ["transfer", "--map", sampled, "--base", base, "--mode", "eigen", "--out", outs[8]],
        ["report", *outs, "--out", tmp_path / "table.json"],
    ]
    square = write_json(tmp_path / "square.json", SQUARE)
    verify = [["verify", "--bound", outs[1], "--domain", square, "--h", 0.25,
               "--out", tmp_path / "checked.json"]]
    imported, certified, verified = run_fresh_commands(certificates, verify)
    assert imported == [[], []]
    assert certified == [[0] * len(certificates), []]
    assert verified[0] == [0]
    assert "scipy.sparse.linalg" in verified[1]


def test_on_use_imports_serve_qhull_and_the_mesh_paths(tmp_path):
    """Qhull alone for a 3D cell (2D cells are measured in integers); the mesh
    audit and the solve for a polygon domain and for a raw mesh file."""
    tetrahedron = write_json(tmp_path / "tetrahedron.json", {"type": "cells", "cells": [
        {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}]})
    cert = tmp_path / "cert.json"
    polygon = write_json(tmp_path / "polygon.json", {
        "kind": "polygon", "vertices": [[0, 0], [2, 0], [2.5, 1], [1, 1.8], [-0.4, 1]]})
    mesh = write_json(tmp_path / "mesh.json", {
        "nodes": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]],
        "elements": [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]]})
    bound = write_json(tmp_path / "bound.json", {"bound": 1.0, "p": 2.0})
    covered, verified = run_fresh_commands(
        [["bound-cells", "--domain", tetrahedron, "--no-verify", "--out", cert]],
        [["verify", "--bound", bound, "--domain", domain, "--h", 0.3, "--out", f"{domain}.out"]
         for domain in (polygon, mesh)],
    )[1:]
    assert covered[0] == [0]
    assert "scipy.spatial" in covered[1]
    assert "scipy.sparse.linalg" not in covered[1]
    assert verified[0] == [0, 0]
    assert {"scipy.sparse.csgraph", "scipy.sparse.linalg"} <= set(verified[1])


def test_lattice_domains_and_mesh_files_check_without_scipy_spatial(tmp_path):
    """The mesh audit searches a sorted grid, so a rectangle, a star, a disk and
    a raw mesh file check on the solve's scipy.sparse alone; the polygon's
    Delaunay mesher is what loads scipy.spatial."""
    domains = [write_json(tmp_path / f"{name}.json", spec) for name, spec in (
        ("rectangle", SQUARE),
        ("star", {"kind": "star", "delta": 0.5}),
        ("disk", {"kind": "disk", "radius": 1.0}),
        ("mesh", {"nodes": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]],
                  "elements": [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]]}),
        ("polygon", {"kind": "polygon", "vertices": [[0, 0], [2, 0], [2.5, 1], [1, 1.8], [-0.4, 1]]}),
    )]
    bound = write_json(tmp_path / "bound.json", {"bound": 1.0, "p": 2.0})
    lattice, polygon = run_fresh_commands(
        *[[["verify", "--bound", bound, "--domain", domain, "--h", 0.3, "--out", f"{domain}.out"]
           for domain in stage] for stage in (domains[:-1], domains[-1:])],
    )[1:]
    assert lattice[0] == [0, 0, 0, 0]
    assert {"scipy.sparse.csgraph", "scipy.sparse.linalg"} <= set(lattice[1])
    assert "scipy.spatial" not in lattice[1]
    assert polygon[0] == [0]
    assert "scipy.spatial" in polygon[1]


class TestBoundCommands:
    def test_bound_star_passes_oracle(self, tmp_path):
        out = tmp_path / "star.json"
        code = run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.1, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["passed"] is True
        assert report["certificates"][0]["data"]["bound"] > report["checks"][0]["oracle_value"]

    def test_bound_star_3d_has_no_oracle(self, tmp_path):
        out = tmp_path / "star3.json"
        code = run_cli(["bound-star", "--delta", 1.0, "--dim", 3, "--p", 4, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"] == []
        details = report["certificates"][0]["data"]["details"]
        assert "cross-section-volume-deficit" in details
        volume, overlap, _ = build_star_domain(StarDomainSpec(delta=1.0, n=3))
        assert (details["volume-1"], details["volume-2"], details["overlap"]) == (
            volume, volume, overlap)

    def test_bound_cells_pair(self, tmp_path):
        out = tmp_path / "pair.json"
        code = run_cli(
            ["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2, "--h", 0.1, "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certificates"][0]["data"]["bound"] == pytest.approx(
            math.sqrt(64.0 / PI2), rel=1e-12
        )
        assert report["checks"][0]["passed"] is True

    def test_bound_cells_chain_from_indices(self, tmp_path):
        cells = [
            {"vertices": [[0.5 * j, 0], [0.5 * j + 1, 0], [0.5 * j + 1, 1], [0.5 * j, 1]]}
            for j in range(5)
        ]
        domain = write_json(
            tmp_path / "chain.json",
            {"type": "cells", "cells": cells, "structure": "chain",
             "triples": [[0, 1, 2], [2, 3, 4]]},
        )
        out = tmp_path / "chain_report.json"
        code = run_cli(["bound-cells", "--domain", domain, "--p", 2, "--h", 0.12, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certificates"][0]["data"]["multiplicity"] == 2
        assert report["checks"][0]["passed"] is True

    def test_bound_snowflake(self, tmp_path):
        out = tmp_path / "snow.json"
        code = run_cli(["bound-snowflake", "--a", 1.0, "--depth", 12, "--p", 2, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        labels = [c["label"] for c in report["certificates"]]
        assert labels == ["snowflake-finite-tree", "snowflake-infinite", "snowflake-tail"]
        tail = report["certificates"][2]["data"]
        assert 0 < tail["tail_bound"] < math.inf
        assert tail["tail_relative_increment"] < 1e-6
        assert any("no oracle" in n for n in report["notes"])

    @pytest.mark.parametrize("depth, p, a, c", [
        (4, 2.0, 1.0, 0.25), (12, 1.3, 1.1, 0.33), (16, 4.2, 0.61, 0.22), (20, 1.7, 1.37, 0.27),
        (20, 2.9, 1.9, 0.16), (24, 2.3, 0.83, 0.19), (24, 3.1, 1.61, 0.31), (40, 2.0, 1.0, 0.25),
        (62, 1.2, 0.7, 0.3)])
    def test_tail_increment_from_term_sums(self, tmp_path, depth, p, a, c):
        # the increment of B^p is the exact difference of the two term sums; the
        # infinite tree carries the finite tree's terms and a tail term, so it is
        # positive even where the tail is far below the rounding of B^p
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 300
        out = tmp_path / "snow.json"
        assert run_cli(["bound-snowflake", "--a", a, "--depth", depth, "--p", p,
                        "--overlap-fraction", c, "--out", out]) == 0
        finite, full, tail = (c["data"] for c in json.loads(out.read_text())["certificates"])
        finite_power, full_power = (mpmath.fsum(mpmath.mpf(t["value"]) for t in c["terms"])
                                    for c in (finite, full))
        exact = (full_power - finite_power) / finite_power
        increment = tail["tail_relative_increment"]
        assert exact > 0
        assert increment == pytest.approx(float(exact), rel=4 * 2.0**-53, abs=0)


class TestTransferCommand:
    def test_identity_transfer_returns_base(self, tmp_path):
        pair_report = tmp_path / "pair.json"
        run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2,
                 "--h", 0.12, "--out", pair_report])
        base = json.loads(pair_report.read_text())
        base_value = base["certificates"][0]["data"]["bound"]
        map_path = write_json(
            tmp_path / "map.json",
            {"kind": "linear", "matrix": [[1, 0], [0, 1]], "domain_volume": 1.5},
        )
        out = tmp_path / "transfer.json"
        code = run_cli(["transfer", "--map", map_path, "--base", pair_report,
                        "--p", 2, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certificates"][0]["data"]["mu_lower"] == pytest.approx(
            base_value**-2.0, rel=1e-12
        )

    def test_sampled_map_and_poincare_mode(self, tmp_path):
        map_path = write_json(tmp_path / "sampled.json", SAMPLED_R4[0])
        base_path = write_json(tmp_path / "base.json", SAMPLED_R4[1])
        out = tmp_path / "tr.json"
        code = run_cli(["transfer", "--map", map_path, "--base", base_path,
                        "--mode", "poincare", "--p", 2, "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        data = report["certificates"][0]["data"]
        assert data["bound"] == pytest.approx(
            math.prod(f["value"] for f in data["chain"]), rel=1e-12
        )


    @pytest.mark.parametrize("r", [None, 4.0, 6.5])
    def test_eigen_mode_matches_library(self, tmp_path, r):
        # --r replaces the base certificate's deviation exponent
        spec, base_data = SAMPLED_R4
        map_path = write_json(tmp_path / "map.json", spec)
        base_path = write_json(tmp_path / "base.json", base_data)
        out = tmp_path / "t.json"
        flags = [] if r is None else ["--r", r]
        assert run_cli(["transfer", "--map", map_path, "--base", base_path, "--mode", "eigen",
                        "--p", 2, *flags, "--out", out]) == 0
        cert = json.loads(out.read_text())["certificates"][0]
        map_data = QCMapData(n=2, K=1.5, alpha=8.0, weights=np.array([0.5, 0.5]),
                             dphi=np.array([1.0, 1.2]), jac=np.array([1.0, 1.0]))
        base = PoincareBound.from_dict(base_data)
        expected = eigen_transfer(map_data, base if r is None else dataclasses.replace(base, r=r), 2.0)
        assert cert["label"] == "transfer-eigen"
        assert cert["data"] == json.loads(json.dumps(expected.to_dict()))

    @pytest.mark.parametrize("mode, lipschitz, resolved", [
        ("poincare", False, "poincare"), ("lipschitz", True, "lipschitz"), ("auto", True, "lipschitz")])
    def test_r_outside_eigen_mode_exit_1(self, tmp_path, capsys, mode, lipschitz, resolved):
        # only an eigen transfer reads --r; elsewhere it would be echoed unread
        spec, base_data = SAMPLED_R4
        map_path = write_json(tmp_path / "map.json", {**spec, "lipschitz": lipschitz})
        base_path = write_json(tmp_path / "base.json", base_data)
        args = ["transfer", "--map", map_path, "--base", base_path, "--mode", mode, "--p", 2]
        assert run_cli([*args, "--out", tmp_path / "t.json"]) == 0
        line = one_line_error([*args, "--r", 6], capsys)
        assert line.endswith(f"--r is read only by an eigen transfer; this one runs in {resolved} mode")

    @pytest.mark.parametrize("mode", ["eigen", "poincare"])
    def test_eigen_base_needs_poincare_base(self, tmp_path, capsys, mode):
        map_path = write_json(tmp_path / "map.json", SAMPLED_R4[0])
        base = write_json(tmp_path / "base.json", {"mu_lower": 1.0, "p": 2.0})
        line = one_line_error(["transfer", "--map", map_path, "--base", base, "--mode", mode],
                              capsys)
        assert f"{mode} transfer needs a Poincare base certificate" in line


class TestVerifyCommand:
    def test_good_bound_passes(self, tmp_path):
        pair_report = tmp_path / "pair.json"
        run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2,
                 "--h", 0.12, "--out", pair_report])
        out = tmp_path / "verify.json"
        code = run_cli(["verify", "--bound", pair_report, "--domain", pair_domain(tmp_path),
                        "--h", 0.12, "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["checks"][0]["passed"] is True

    def test_corrupted_bound_fails_with_exit_2(self, tmp_path):
        pair_report_path = tmp_path / "pair.json"
        run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2,
                 "--h", 0.12, "--out", pair_report_path])
        report = json.loads(pair_report_path.read_text())
        cert = report["certificates"][0]["data"]
        # shrink the claim below the oracle value, keeping the certificate coherent
        cert["bound"] *= 0.15
        for term in cert["terms"]:
            term["value"] *= 0.15**2
        corrupted = write_json(tmp_path / "corrupted.json", report)
        code = run_cli(["verify", "--bound", corrupted, "--domain", pair_domain(tmp_path),
                        "--h", 0.12, "--out", tmp_path / "v.json"])
        assert code == 2
        assert json.loads((tmp_path / "v.json").read_text())["checks"][0]["passed"] is False

    def test_incoherent_certificate_is_an_input_error(self, tmp_path, capsys):
        pair_report_path = tmp_path / "pair.json"
        run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--p", 2,
                 "--h", 0.12, "--out", pair_report_path])
        report = json.loads(pair_report_path.read_text())
        report["certificates"][0]["data"]["bound"] *= 0.5  # terms no longer match
        bad = write_json(tmp_path / "bad.json", report)
        code = run_cli(["verify", "--bound", bad, "--domain", pair_domain(tmp_path),
                        "--h", 0.12])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_mesh_file_domain(self, tmp_path):
        from neumann_bounds.oracle import mesh_domain

        mesh = mesh_domain({"kind": "rectangle", "bounds": [0, 0, 1, 1]}, 0.15)
        mesh_path = write_json(tmp_path / "mesh.json",
                               {"nodes": mesh.nodes.tolist(), "elements": mesh.elements.tolist()})
        bound_path = write_json(
            tmp_path / "bound.json",
            {"bound": 0.6, "p": 2.0, "form": "deviation-from-mean"},
        )
        code = run_cli(["verify", "--bound", bound_path, "--domain", mesh_path,
                        "--out", tmp_path / "v.json"])
        assert code == 0


class TestErrorPaths:
    def test_malformed_json_exit_1_with_location(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"type": "cells", ')
        code = run_cli(["bound-cells", "--domain", broken])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = run_cli(["bound-cells", "--domain", tmp_path / "nope.json"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["bound-star", "--delta"])
        assert err.value.code == 1

    def test_invalid_p(self, tmp_path, capsys):
        code = run_cli(["bound-star", "--delta", 1.0, "--p", 1.0])
        assert code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["bound-star", "--p", "nan"],
            ["bound-star", "--h", "inf"],
            ["bound-star", "--delta=-inf"],
            ["bound-snowflake", "--a", "nan"],
            ["transfer", "--mode", "lipschitz", "--r", "nan"],
            ["transfer", "--mode", "eigen", "--r", "inf"],
        ],
    )
    def test_non_finite_number_one_line(self, args, capsys):
        assert run_cli(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "must be a finite number" in err[0]

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_r_certificate_one_line(self, tmp_path, capsys, r):
        map_path = write_json(tmp_path / "map.json", SAMPLED_R4[0])
        base = write_json(tmp_path / "base.json", {**SAMPLED_R4[1], "r": r})
        line = one_line_error(["transfer", "--map", map_path, "--base", base, "--mode", "eigen"],
                              capsys)
        assert f"base exponent r must be a finite number, got {r}" in line

    def test_deeply_nested_json_one_line(self, tmp_path, capsys):
        depth = 100_000
        bound = tmp_path / "deep.json"
        bound.write_text('{"bound": ' + "[" * depth + "]" * depth + "}")
        domain = write_json(tmp_path / "sq.json", {"type": "rectangle", "bounds": [0, 0, 1, 1]})
        assert run_cli(["verify", "--bound", bound, "--domain", domain]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(bound) in err[0] and "nested too deeply" in err[0]

    def test_non_object_json_one_line(self, tmp_path, capsys):
        domain = write_json(tmp_path / "list.json", [{"type": "cells"}])
        assert run_cli(["bound-cells", "--domain", domain]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "must be an object" in err[0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_huge_delta_exit_1_one_line(self, dim):
        # Qhull crashes the interpreter on 3D input of this size, so run it
        # in its own process
        proc = run_fresh_process(["bound-star", "--dim", dim, "--delta", "1e300"])
        assert proc.returncode == 1
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and "too large" in err[0]

    @pytest.mark.parametrize("dim, delta", [(2, 1e-160), (3, 1e-105)])
    def test_tiny_delta_exit_1_one_line(self, capsys, dim, delta):
        line = one_line_error(["bound-star", "--dim", dim, "--delta", delta, "--no-verify"], capsys)
        assert "star overlap" in line and "below the smallest normal float" in line

    def test_oversized_oracle_mesh_exit_1_one_line(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("mesher reached")

        monkeypatch.setattr(oracle, "_star_mesh", unreachable)
        assert run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 1e-9]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "mesh too large" in err[0]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["bound-cells"], "bound-cells needs --domain"),
            (["bound-cells", "--domain", "{polygon}"], 'bound-cells expects a domain of type "cells"'),
            (["transfer", "--base", "{bound}"], "transfer needs --map and --base"),
            (["verify", "--bound", "{bound}"], "verify needs --bound and --domain"),
            (["bound-star", "--no-verify", "--out", "{missing}"], "No such file or directory"),
            (["bound-star", "--delta", -1], "delta must be positive"),
            (["bound-snowflake", "--a", -1], "root side length must be positive"),
            (["bound-snowflake", "--depth", -1], "depth must be >= 0"),
            (["bound-snowflake", "--overlap-fraction", 1.5], "overlap_fraction must lie in (0, 1)"),
            (["bound-cells", "--domain", "{hollow}", "--no-verify"],
             "vertex list must be a non-empty (m, n) array"),
            (["bound-cells", "--domain", "{flat}", "--no-verify"], "degenerate cell: QH6154"),
            (["transfer", "--map", "{sampled}", "--base", "{base}", "--mode", "eigen", "--p", 1.0000005],
             "empty q-grid: p is too close to 1"),
            (["transfer", "--map", "{still}", "--base", "{base}", "--mode", "eigen", "--p", 4, "--r", 8],
             "distortion integral vanishes: every |D phi| sample is zero"),
            *((["transfer", "--map", "{still}", "--base", "{base}", "--mode", mode, "--p", 2],
               "distortion integral vanishes: every |D phi| sample is zero")
              for mode in ("eigen", "poincare")),
            # tiny |D phi| samples: mu_lower would be Infinity, or a division by zero
            *((["transfer", "--map", name, "--base", "{base}", "--mode", "eigen", "--p", 2],
               "eigen transfer at p = 2 puts a factor product or its bound outside the normal "
               "float range") for name in ("{faint}", "{fainter}")),
            (["transfer", "--map", "{shrink}", "--base", "{base4}", "--p", 4],
             "Lipschitz transfer at p = 4 puts a factor product or its bound outside the normal "
             "float range"),
            # numpy's overflow warning would print before the one line
            pytest.param(["transfer", "--map", "{heavy}", "--base", "{base}", "--mode", "eigen",
                          "--p", 3], "quadrature weights must sum to a finite domain volume",
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
            (["bound-cells", "--domain", "{sliver}", "--no-verify"],
             "triple overlap 0 is below the smallest normal float"),
            *((["report", name], "malformed report: needs key 'certificates'")
              for name in ("{empty}", "{bound}", "{polygon}")),
        ],
    )
    def test_refusal_one_line(self, tmp_path, capsys, args, message):
        paths = {name: write_json(tmp_path / f"{name}.json", spec) for name, spec in (
            ("polygon", {"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}),
            ("bound", {"bound": 1.0, "p": 2.0}),
            ("hollow", {"type": "cells", "cells": [{"vertices": []}]}),
            ("flat", {"type": "cells",
                      "cells": [{"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}]}),
            ("sampled", SAMPLED_R4[0]),
            ("empty", {}),
            ("still", {**SAMPLED_R4[0], "dphi": [0.0, 0.0]}),
            ("faint", {**SAMPLED_R4[0], "dphi": [1e-155, 1e-155]}),
            ("fainter", {**SAMPLED_R4[0], "dphi": [1e-200, 1e-200]}),
            ("heavy", {**SAMPLED_R4[0], "weights": [1e308, 1e308]}),
            ("shrink", {"kind": "linear", "matrix": [[1e-100, 0], [0, 1e-100]]}),
            ("base", SAMPLED_R4[1]),
            ("base4", {"bound": 0.5, "p": 4, "terms": [{"label": "c", "rule": "r", "value": 0.0625}]}),
            # the first cell meets the square in a 5e-324 wide strip, whose area rounds down to 0
            ("sliver", {"type": "cells", "cells": [{"vertices": v} for v in (
                [[-1, 0], [5e-324, 0], [5e-324, 0.5], [-1, 0.5]], [[0, 0], [1, 0], [1, 1], [0, 1]],
                [[0.9, 0], [2, 0], [2, 1], [0.9, 1]])]}),
        )}
        paths["missing"] = str(tmp_path / "missing" / "out.json")
        assert message in one_line_error([str(a).format(**paths) for a in args], capsys)


def one_line_error(args, capsys):
    assert run_cli(args) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


SAMPLED = {"kind": "sampled", "weights": [1.0], "dphi": [1.0], "jac": [1.0], "K": 1.0}

# the 3 x 3 lattice of the square [-1, 1]^2, and one triangle, scaled so that
# the area products overflow while every coordinate stays finite
HUGE_LATTICE = {"nodes": [[8.5e307 * x, 8.5e307 * y] for y in (-1, 0, 1) for x in (-1, 0, 1)],
                "elements": [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
                             [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]]}
HUGE_TRIANGLE = {"nodes": [[0, 0], [8e307, 1.6e308], [1.6e308, 8e307]], "elements": [[0, 1, 2]]}


class TestMissingSpecKeys:
    """Each bad specification ends in exit 1 with one line naming the key."""

    def bound_file(self, tmp_path):
        return write_json(tmp_path / "bound.json", {"bound": 1.0, "p": 2.0})

    @pytest.mark.parametrize(
        "domain, key",
        [
            ({"kind": "rectangle"}, "'bounds'"),
            ({"kind": "rectangle", "bounds": [0, 0, 1]}, '"bounds"'),
            ({"type": "star"}, "'delta'"),
            ({"kind": "rect_union", "rects": []}, '"rects"'),
            ({"kind": "rect_union", "rects": [[0, 0, 1, 1], [0.5, 0, 2]]}, "'rects'"),
            ({"kind": "rect_union"}, "'rects'"),
            ({"kind": "polygon"}, "'vertices'"),
            ({"kind": "disk"}, "'radius'"),
            # present, but of the wrong JSON type
            ({"type": "star", "delta": [1]}, "'delta'"),
            ({"kind": "rectangle", "bounds": 3}, "'bounds'"),
            ({"kind": "disk", "radius": 1.0, "center": 3}, "'center'"),
            # a string, a bool or a non-finite value where a number belongs
            ({"kind": "disk", "radius": "abc"}, "key 'radius' must be a number, got 'abc'"),
            ({"kind": "star", "delta": "abc"}, "key 'delta' must be a finite number, got 'abc'"),
            ({"type": "star", "dim": "x", "delta": 1}, "key 'dim' must be an integer, got 'x'"),
            ({"type": "star", "dim": 2.5, "delta": 1}, "key 'dim' must be an integer, got 2.5"),
            ({"kind": "star", "delta": True}, "key 'delta' must be a finite number, got True"),
            ({"kind": "disk", "radius": True, "center": ["1", "2"]}, "key 'radius'"),
            ({"kind": "disk", "radius": 1, "center": ["1", "2"]}, "key 'center'"),
            ({"kind": "star", "delta": math.nan}, "key 'delta' must be a finite number, got nan"),
            ({"kind": "rect_union", "rects": [[0, 0, 1, math.nan]]}, "key 'rects'"),
            ({"kind": "polygon", "vertices": [[0, 0], [1, "a"], [0, 1]]}, "key 'vertices'"),
            ({"type": "cells", "cells": [{"vertices": [[0, 0], [1, 0], [1, "x"], [0, 1]]}]},
             "entry 'vertices' must be an array of finite numbers"),
            ({"nodes": [[0, 0], [1, 0], [0, math.nan]], "elements": [[0, 1, 2]]},
             "mesh key 'nodes' must be an array of finite numbers"),
            # no "type" or "kind": a mesh file; an unknown kind is named
            ({"nodes": [[0, 0], [1, 0], [0, 1]]}, "mesh needs key 'elements'"),
            ({"type": "annulus"}, "unsupported domain kind 'annulus'"),
            ({"nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "elements": [[0, 1, 2]]},
             "nodes must be an (N, 2) array"),
            ({"nodes": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1]]}, "elements must be an (M, 3) array"),
            ({"nodes": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1, 3]]}, "element indices out of range"),
            # numpy's overflow warnings would print before the one line
            *(pytest.param(mesh, "a value exceeds float range",
                           marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
              for mesh in (HUGE_LATTICE, HUGE_TRIANGLE)),
        ],
    )
    def test_verify_domain(self, tmp_path, capsys, domain, key):
        domain_path = write_json(tmp_path / "domain.json", domain)
        line = one_line_error(
            ["verify", "--bound", self.bound_file(tmp_path), "--domain", domain_path], capsys
        )
        assert key in line

    def test_empty_cells(self, tmp_path, capsys):
        domain = write_json(tmp_path / "cells.json", {"type": "cells", "cells": []})
        assert '"cells"' in one_line_error(["bound-cells", "--domain", domain], capsys)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"kind": "sampled", "weights": [1.0], "dphi": [1.0], "jac": [1.0]}, "'K'"),
            ({"kind": "sampled", "weights": [1.0], "jac": [1.0], "K": 1.0}, "'dphi'"),
            ({"kind": "linear"}, "'matrix'"),
            ({"kind": "linear", "matrix": [[2, 0], [0, 1]], "K": None}, "'K'"),
            ({"kind": "sampled", "weights": None, "dphi": [1.0], "jac": [1.0], "K": 1.0},
             "'weights'"),
            # "false" used to select the Lipschitz route, and Infinity passed
            ({**SAMPLED, "lipschitz": "false"}, "key 'lipschitz' must be true or false, got 'false'"),
            ({**SAMPLED, "n": 2.9}, "key 'n' must be an integer, got 2.9"),
            ({**SAMPLED, "weights": [1, math.inf], "dphi": [1, 1], "jac": [1, 1], "lipschitz": True},
             "key 'weights' must be an array of finite numbers"),
            ({"kind": "linear", "matrix": [[2, 0], [0, 1]], "K": True}, "key 'K' must be a number"),
            ({"kind": "linear", "matrix": [[1, 0], [0, 1]], "domain_volume": "1"},
             "key 'domain_volume' must be a number, got '1'"),
            ({**SAMPLED, "K": "1"}, "key 'K' must be a number, got '1'"),
            ({**SAMPLED, "alpha": "8"}, "key 'alpha' must be a number, got '8'"),
            ({**SAMPLED, "n": "2"}, "key 'n' must be an integer, got '2'"),
            ({**SAMPLED, "weights": ["1"]}, "key 'weights' must be an array of finite numbers"),
            ({"kind": "linear", "matrix": [[1, "0"], [0, 1]]},
             "key 'matrix' must be an array of finite numbers"),
            ({"kind": "moebius"}, "unknown map kind 'moebius'"),
            ({**SAMPLED, "dphi": [-1.0]}, "derivative-norm samples must be nonnegative"),
            ({**SAMPLED, "n": 4}, "map dimension must be 2 or 3"),
            ({"kind": "linear", "matrix": np.eye(4).tolist()}, "linear map matrix must be 2x2 or 3x3"),
        ],
    )
    def test_map(self, tmp_path, capsys, spec, key):
        map_path = write_json(tmp_path / "map.json", spec)
        line = one_line_error(
            ["transfer", "--map", map_path, "--base", self.bound_file(tmp_path)], capsys
        )
        assert key in line


SQUARE = {"kind": "rectangle", "bounds": [0, 0, 1, 1]}
IDENTITY_MAP = {"kind": "linear", "matrix": [[1, 0], [0, 1]]}


class TestMalformedCertificates:
    """A malformed certificate or report ends in exit 1 with one line."""

    @pytest.mark.parametrize(
        "commands, payload, message",
        [
            (("verify", "transfer"), {"bound": [1], "p": 2}, "certificate key 'bound'"),
            (("verify", "transfer"), {"mu_lower": None, "p": 2}, "certificate key 'mu_lower'"),
            (("verify", "transfer"), {"certificates": [{"kind": "poincare", "data": {"bound": 1.0}}]},
             "certificate needs key 'p'"),
            (("verify", "transfer"), {"bound": 1.0, "p": 2, "terms": [{"label": "a", "value": 1.0}]},
             "certificate key 'terms' is malformed: an entry lacks 'rule'"),
            (("verify", "transfer"), {"mu_lower": 1.0, "p": 2, "provenance": [{"value": 1.0}]},
             "certificate key 'provenance' is malformed: an entry lacks 'rule'"),
            (("verify", "transfer"), {"bound": 1.0, "p": 2, "details": [1, 2]},
             "certificate key 'details'"),
            (("verify", "transfer"), {"certificates": [1]}, "must be a JSON object"),
            (("verify", "transfer"), {"bound": 1.0, "p": math.nan},
             "exponent p must be a finite number above 1"),
            (("verify", "transfer"), {"mu_lower": 1.0, "p": 1.0},
             "exponent p must be a finite number above 1"),
            (("verify", "transfer"), {"mu_lower": math.nan, "p": 2}, "must be positive"),
            # a bool or a string is never a number; "abc" is not a list of notes
            (("verify", "transfer"), {"bound": True, "p": "2"},
             "certificate key 'bound' must be a number, got True"),
            (("verify", "transfer"), {"bound": 1.0, "p": "2"},
             "certificate key 'p' must be a number, got '2'"),
            (("verify", "transfer"), {"mu_lower": 1.0, "p": 2, "notes": "abc"},
             "certificate key 'notes' must be a list of strings, got 'abc'"),
            (("verify", "transfer"), {"bound": 1.0, "p": 2, "multiplicity": 2.0},
             "certificate key 'multiplicity' must be an integer, got 2.0"),
            (("verify", "transfer"), {"bound": 1.0, "p": 2, "domain": 3},
             "certificate key 'domain' must be a string, got 3"),
            (("verify", "transfer"),
             {"bound": 1.0, "p": 2, "terms": [{"label": "a", "rule": "r", "value": True}]},
             "certificate key 'terms' is malformed: entry 'value' must be a number, got True"),
            (("verify", "transfer"),
             {"mu_lower": 1.0, "p": 2, "provenance": [{"rule": "r", "value": "1"}]},
             "certificate key 'provenance' is malformed: entry 'value' must be a number, got '1'"),
            (("verify", "transfer"), {"bound": 1.0, "p": 2, "details": {"overlap": False}},
             "certificate key 'details' is malformed: entry 'overlap' must be a number, got False"),
            (("verify", "transfer"), {"certificates": []}, "report contains no certificates"),
            (("verify", "transfer"), {"bound": -1.0, "p": 2}, "bound value must be positive"),
            (("verify", "transfer"), {"bound": 1.0, "p": 2, "form": "xyz"}, "unknown bound form 'xyz'"),
            (("verify", "transfer"),
             {"bound": 1e300, "p": 4, "terms": [{"label": "a", "rule": "r", "value": 1.0}]},
             "bound 1e+300 to the power p = 4 overflows"),
            (("verify", "transfer"), {"foo": 1}, "unrecognized bound certificate layout"),
            (("verify", "transfer"), {"kind": "poincare", "data": [1]},
             "poincare certificate data must be a JSON object, not list"),
            (("report",), {"certificates": [{"label": "x"}]}, "malformed report: needs key 'data'"),
        ],
    )
    def test_exit_1_one_line(self, tmp_path, capsys, commands, payload, message):
        cert = write_json(tmp_path / "cert.json", payload)
        argv = {
            "verify": ["verify", "--bound", cert, "--domain", write_json(tmp_path / "sq.json", SQUARE),
                       "--h", 0.5],
            "transfer": ["transfer", "--map", write_json(tmp_path / "map.json", IDENTITY_MAP),
                         "--base", cert],
            "report": ["report", cert],
        }
        for command in commands:
            assert message in one_line_error(argv[command], capsys), command


class TestOverflowOneLine:
    def test_bound_star_huge_p(self, capsys):
        line = one_line_error(["bound-star", "--p", 1e6, "--no-verify"], capsys)
        assert "p = 1e+06" in line

    @pytest.mark.parametrize("command, patched", [("verify", "check_domination"),
                                                  ("report", "emit_table")])
    def test_command_without_p_names_no_p(self, tmp_path, monkeypatch, capsys, command, patched):
        def overflow(*args, **kwargs):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(cli, patched, overflow)
        cert = write_json(tmp_path / "cert.json", {"bound": 1.0, "p": 4.0})
        args = {"verify": ["verify", "--bound", cert, "--domain", write_json(tmp_path / "sq.json", SQUARE)],
                "report": ["report", cert]}[command]
        assert one_line_error(args, capsys) == f"neumann-bounds: error: {command}: a value exceeds float range"

    def test_linear_map_distortion_overflow(self, tmp_path, capsys):
        map_path = write_json(tmp_path / "map.json",
                              {"kind": "linear", "matrix": [[1e200, 0], [0, 1e-200]]})
        base = write_json(tmp_path / "base.json", {"bound": 1.0, "p": 2.0})
        line = one_line_error(["transfer", "--map", map_path, "--base", base], capsys)
        assert "linear map [[1e+200, 0.0], [0.0, 1e-200]]" in line

    def test_non_finite_linear_map_named(self, tmp_path, capsys):
        map_path = write_json(tmp_path / "map.json", {"kind": "linear", "matrix": [[math.nan, 0], [0, 1]]})
        base = write_json(tmp_path / "base.json", {"bound": 1.0, "p": 2.0})
        line = one_line_error(["transfer", "--map", map_path, "--base", base], capsys)
        assert "key 'matrix' must be an array of finite numbers, got [[nan, 0], [0, 1]]" in line

    def test_verify_huge_certificate_exponent(self, tmp_path, capsys):
        cert = write_json(tmp_path / "cert.json", {"bound": 1.0, "p": 1e308})
        domain = write_json(tmp_path / "sq.json", SQUARE)
        line = one_line_error(["verify", "--bound", cert, "--domain", domain, "--h", 0.3], capsys)
        assert "p = 1e+308" in line

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would print before the line
    @pytest.mark.parametrize("side, p, message", [
        (1e-100, 3, "int |grad f|^p leaves float range"),  # the start's value overflows
        (1e70, 3, "int |grad f|^p leaves float range"),  # ... and underflows to 0
        (1e-50, 4, "the descent direction leaves float range"),
        (1e50, 4, "the descent direction leaves float range"),
    ])
    def test_verify_descent_out_of_float_range(self, tmp_path, capsys, side, p, message):
        cert = write_json(tmp_path / "cert.json", {"bound": side, "p": p})
        domain = write_json(tmp_path / "sq.json", {"kind": "rectangle", "bounds": [0, 0, side, side]})
        line = one_line_error(["verify", "--bound", cert, "--domain", domain, "--h", side / 10], capsys)
        assert line.endswith(f"general-p oracle at p = {p}: {message}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind, side, p", [("rectangle", 1e-100, 2), ("rectangle", 1e80, 2),
                                               ("disk", 1e100, 2), ("rectangle", 1e-60, 3)])
    def test_verify_at_extreme_sides(self, tmp_path, kind, side, p):
        spec = ({"kind": kind, "bounds": [0, 0, side, side]} if kind == "rectangle"
                else {"kind": kind, "radius": side})
        cert = write_json(tmp_path / "cert.json", {"bound": side, "p": p})
        out = tmp_path / "out.json"
        domain = write_json(tmp_path / "domain.json", spec)
        assert run_cli(["verify", "--bound", cert, "--domain", domain, "--h", side / 10, "--out", out]) == 0
        check = json.loads(out.read_text())["checks"][0]
        assert 0.1 < check["oracle_value"] / side < 1.0 and check["passed"]


class TestSnowflakeFloatRange:
    """A snowflake run whose certified numbers would leave the normal floats
    exits 1 with one line naming the cause; a small root side within range
    scales every bound."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--a", 1e-160, "--depth", 12], "root side a = 1e-160 at p = 2"),
            (["--a", 1e-200, "--depth", 12], "root side a = 1e-200 at p = 2"),
            (["--a", 1e150, "--depth", 12, "--p", 3], "root side a = 1e+150 at p = 3"),
            (["--p", 12, "--depth", 62], "p = 12 from start level 63"),
            (["--p", 20, "--depth", 40], "p = 20 from start level 41"),
        ],
    )
    def test_exit_1_one_line(self, capsys, args, message):
        assert message in one_line_error(["bound-snowflake", *args], capsys)

    def test_small_root_side_scales_the_bounds(self, tmp_path):
        bounds = {}
        for a in (1.0, 1e-100):
            out = tmp_path / f"snow{a}.json"
            assert run_cli(["bound-snowflake", "--a", a, "--depth", 12, "--out", out]) == 0
            certs = json.loads(out.read_text())["certificates"]
            bounds[a] = [c["data"]["bound"] for c in certs[:2]]
        for small, unit in zip(bounds[1e-100], bounds[1.0]):
            assert small == pytest.approx(1e-100 * unit, rel=1e-15, abs=0.0)


class TestPolygonDomainChecked:
    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([[0, 0], [1, 0], [2, 0]], "degenerate cell"),
            ([[0, 0], [1, 0]], "degenerate cell"),
            ([[0, 0], [1, 0], [1, 1], [0.5, 0.2], [0, 1]], "strictly inside the convex hull"),
            ([[0, 0], [1, 1], [1, 0], [0, 1]], "must run in order around a convex polygon"),
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "must run in order around a convex polygon"),
        ],
    )
    def test_exit_1_one_line(self, tmp_path, capsys, vertices, message):
        bound = write_json(tmp_path / "bound.json", {"bound": 1.0, "p": 2.0})
        domain = write_json(tmp_path / "poly.json", {"kind": "polygon", "vertices": vertices})
        assert message in one_line_error(["verify", "--bound", bound, "--domain", domain], capsys)

    def test_clockwise_order_checks_as_counterclockwise(self, tmp_path):
        bound = write_json(tmp_path / "bound.json", {"bound": 1.0, "p": 2.0})
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        values = []
        for name, vertices in (("ccw", square), ("cw", square[::-1])):
            domain = write_json(tmp_path / f"{name}.json", {"kind": "polygon", "vertices": vertices})
            out = tmp_path / f"{name}.out.json"
            assert run_cli(["verify", "--bound", bound, "--domain", domain, "--h", 0.2, "--out", out]) == 0
            values.append(json.loads(out.read_text())["checks"][0]["oracle_value"])
        assert values[1] == pytest.approx(values[0], rel=1e-12, abs=0)


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("bound-snowflake", ["--h", "0.1"]),
            ("transfer", ["--h", "0.1"]),
            ("report", ["--h", "0.1"]),
            ("verify", ["--p", "3"]),
            ("report", ["--p", "3"]),
            ("report", ["--timing"]),
            # flags are the only way to set a run: no config file, no domain
            # file over bound-star or bound-snowflake, no timing in the report
            *((command, ["--config", "c.json"]) for command in
              ("bound-cells", "bound-star", "bound-snowflake", "transfer", "verify", "report")),
            *((command, ["--timing"]) for command in
              ("bound-cells", "bound-star", "bound-snowflake", "transfer", "verify")),
            ("bound-star", ["--domain", "star.json"]),
            ("bound-snowflake", ["--domain", "snow.json"]),
        ],
    )
    def test_unread_flag_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli([command, *flag])
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and f"unrecognized arguments: {flag[0]}" in lines[0]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["bound-star", "--dim", "4"], "argument --dim: invalid choice"),
            (["bound-star", "--delta"], "argument --delta: expected one argument"),
            (["bound-star", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_parser_error_is_one_line(self, args, message, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(args)
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_seed_accepted_everywhere(self, tmp_path):
        snow = tmp_path / "snow.json"
        assert run_cli(["bound-snowflake", "--depth", 2, "--seed", 3, "--out", snow]) == 0
        star = tmp_path / "star.json"
        assert run_cli(["bound-star", "--dim", 3, "--mgon", 8, "--seed", 3, "--out", star]) == 0
        cells = tmp_path / "cells.json"
        assert run_cli(["bound-cells", "--domain", pair_domain(tmp_path), "--no-verify",
                        "--seed", 3, "--out", cells]) == 0
        map_path = write_json(tmp_path / "map.json", IDENTITY_MAP)
        assert run_cli(["transfer", "--map", map_path, "--base", cells, "--seed", 3,
                        "--out", tmp_path / "t.json"]) == 0
        domain = write_json(tmp_path / "sq.json", SQUARE)
        cert = write_json(tmp_path / "cert.json", {"bound": 1.0, "p": 2.0})
        assert run_cli(["verify", "--bound", cert, "--domain", domain, "--h", 0.5, "--seed", 3,
                        "--out", tmp_path / "v.json"]) == 0
        assert run_cli(["report", snow, "--seed", 3, "--out", tmp_path / "r.csv"]) == 0


def subparser(command):
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]


def command_flags(command):
    """A command's parameters, read off the parser: the command name, which the parser
    stores as "command", and the destination of each of its flags."""
    return {"command"} | {a.dest for a in subparser(command)._actions if a.dest != "help"}


def echo_inputs(tmp_path):
    """Input files of the config-echo tests, by name."""
    spec, base = SAMPLED_R4
    payloads = {
        "row": ROW5, "map": spec, "map_k2": {**spec, "K": 2.0},
        "base": base, "base_small": {**base, "bound": 0.25},
        "cert": {"bound": 1.0, "p": 2.0}, "cert_small": {"bound": 0.5, "p": 2.0},
        "square": SQUARE, "rect21": {"kind": "rectangle", "bounds": [0, 0, 2, 1]},
    }
    paths = {name: write_json(tmp_path / f"{name}.json", data) for name, data in payloads.items()}
    return {"pair": pair_domain(tmp_path), **paths}


# (command and its flags at default values but for the inputs, a flag, another value):
# one case per flag a report echoes, but --seed and --format
ECHOED_FLAG_CHANGES = [
    (["bound-cells", "--domain", "pair"], "--domain", "row"),
    (["bound-cells", "--domain", "pair"], "--p", "3"),
    (["bound-cells", "--domain", "pair"], "--h", "0.25"),
    (["bound-cells", "--domain", "pair"], "--no-verify", None),
    (["bound-star", "--no-verify"], "--delta", "2"),
    (["bound-star", "--no-verify"], "--dim", "3"),
    (["bound-star", "--no-verify", "--dim", "3"], "--mgon", "8"),  # no 2D star reads it
    (["bound-star", "--no-verify"], "--p", "3"),
    (["bound-star"], "--h", "0.25"),
    (["bound-star"], "--no-verify", None),
    (["bound-snowflake"], "--a", "2"),
    (["bound-snowflake"], "--depth", "4"),
    (["bound-snowflake"], "--overlap-fraction", "0.3"),
    (["bound-snowflake"], "--p", "3"),
    (["transfer", "--map", "map", "--base", "base"], "--map", "map_k2"),
    (["transfer", "--map", "map", "--base", "base"], "--base", "base_small"),
    (["transfer", "--map", "map", "--base", "base"], "--mode", "poincare"),
    (["transfer", "--map", "map", "--base", "base"], "--r", "6"),
    (["transfer", "--map", "map", "--base", "base"], "--p", "3"),
    (["verify", "--bound", "cert", "--domain", "square"], "--bound", "cert_small"),
    (["verify", "--bound", "cert", "--domain", "square"], "--domain", "rect21"),
    (["verify", "--bound", "cert", "--domain", "square"], "--h", "0.25"),
]


# every command but report, which writes a table without a config block
REPORTING_COMMANDS = ["bound-cells", "bound-star", "bound-snowflake", "transfer", "verify"]


class TestConfigEcho:
    """A report's config holds the flags of its command, defaults included, and
    every one of them but --seed and --format is read by some run."""

    def run_report(self, tmp_path, args):
        inputs = echo_inputs(tmp_path)
        out = tmp_path / "out.json"
        code = run_cli([inputs.get(a, a) for a in args] + ["--out", out])
        return code, json.loads(out.read_text()) if code == 0 else None

    @pytest.mark.parametrize("command", REPORTING_COMMANDS)
    def test_echoed_keys_are_the_command_flags(self, tmp_path, command):
        args = next(base for base, _, _ in ECHOED_FLAG_CHANGES if base[0] == command)
        code, report = self.run_report(tmp_path, args)
        assert code == 0
        assert set(report["config"]) == command_flags(command) - {"out"}

    def test_verify_echoes_no_exponent(self, tmp_path):
        cert = write_json(tmp_path / "cert_p4.json", {"bound": 1.0, "p": 4.0})
        domain = write_json(tmp_path / "sq.json", SQUARE)
        code, report = self.run_report(tmp_path, ["verify", "--bound", cert, "--domain", domain,
                                                  "--h", "0.25"])
        assert code == 0
        assert "p" not in report["config"]
        assert report["certificates"][0]["data"]["p"] == 4.0  # the check runs at the certificate's p

    @pytest.mark.parametrize("command", REPORTING_COMMANDS)
    def test_cases_change_every_echoed_flag(self, command):
        changed = {subparser(command)._option_string_actions[flag].dest
                   for base, flag, _ in ECHOED_FLAG_CHANGES if base[0] == command}
        assert changed == command_flags(command) - {"command", "seed", "fmt", "out"}

    @pytest.mark.parametrize("base, flag, value", ECHOED_FLAG_CHANGES,
                             ids=[f"{b[0]}{f}" for b, f, _ in ECHOED_FLAG_CHANGES])
    def test_changed_flag_moves_the_report(self, tmp_path, base, flag, value):
        # a refusal with one line would do too; each of these changes is accepted
        reports = []
        for args in (base, [*base, flag] + ([] if value is None else [value])):
            code, report = self.run_report(tmp_path, args)
            assert code == 0
            report.pop("config")
            reports.append(report)
        assert reports[0] != reports[1]

    def test_poincare_transfer_table_shows_its_p(self, tmp_path):
        inputs = echo_inputs(tmp_path)
        out, table = tmp_path / "t.json", tmp_path / "table.json"
        assert run_cli(["transfer", "--map", inputs["map"], "--base", inputs["base"],
                        "--mode", "poincare", "--p", 3, "--out", out]) == 0
        assert "p" not in json.loads(out.read_text())["certificates"][0]["data"]
        assert run_cli(["report", out, "--format", "json", "--out", table]) == 0
        assert [row["p"] for row in json.loads(table.read_text())] == [3.0]


def test_oversized_3d_cross_section_one_line(capsys):
    assert "between 8 and 1024 vertices, got 1025" in one_line_error(
        ["bound-star", "--dim", 3, "--mgon", 1025, "--no-verify"], capsys
    )


ROW5 = {"type": "cells",
        "cells": [{"vertices": [[x, 0], [x + 1, 0], [x + 1, 1], [x, 1]]} for x in (0, 0.6, 1.2, 1.8, 2.4)],
        "structure": "chain"}


class TestChainInputs:
    """Chain indices and multiplicity are checked before any triple is built."""

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"triples": [[0, 1, 99]]}, 'chain "triples" must be a list of [i, j, k] cell indices'),
            ({"triples": [[0, 1, -1]]}, "each an integer in [0, 5)"),
            ({"triples": "abc"}, 'chain "triples"'),
            ({"triples": 5}, 'chain "triples"'),
            ({"triples": [[0, 1]]}, 'chain "triples"'),
            ({"triples": [[0, 1, 2.0]]}, 'chain "triples"'),
            ({"triples": [[0, 1, True]]}, 'chain "triples"'),
            ({"triples": [[0, 1, 2]]}, "chain triples leave out cell 3"),
            ({"triples": []}, "chain triples leave out cell 0"),
            ({"multiplicity": "2"}, "cells domain key 'multiplicity' must be an integer, got '2'"),
            ({"multiplicity": True}, "cells domain key 'multiplicity' must be an integer, got True"),
            ({"multiplicity": 2.0}, "cells domain key 'multiplicity' must be an integer"),
            ({"multiplicity": 1}, "chain multiplicity 1 is below the cover multiplicity 2"),
            ({"structure": "single"}, "single structure needs exactly one cell"),
            ({"structure": "pair"}, "pair structure needs exactly two cells"),
            ({"structure": "triple"}, "triple structure needs exactly three cells"),
            ({"cells": ROW5["cells"][:4]}, "default chain grouping needs an odd cell count >= 3"),
            ({"structure": "ring"}, "unknown cells structure 'ring'"),
        ],
    )
    def test_exit_1_one_line(self, tmp_path, capsys, override, message):
        domain = write_json(tmp_path / "row.json", {**ROW5, **override})
        assert message in one_line_error(["bound-cells", "--domain", domain, "--no-verify"], capsys)

    def test_exact_multiplicity_accepted(self, tmp_path):
        outs = []
        for i, override in enumerate(({}, {"multiplicity": 2})):
            outs.append(tmp_path / f"chain{i}.json")
            domain = write_json(tmp_path / f"row{i}.json", {**ROW5, **override})
            assert run_cli(["bound-cells", "--domain", domain, "--no-verify", "--out", outs[-1]]) == 0
        certificates = [json.loads(out.read_text())["certificates"] for out in outs]
        assert certificates[0] == certificates[1]
        assert certificates[0][0]["data"]["multiplicity"] == 2


def test_3d_overlap_construction_failure_one_line(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise QhullError("QH6271 qhull topology error\nsecond line of the option dump")

    monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", failing)
    cubes = write_json(tmp_path / "cubes.json", {"type": "cells", "cells": [
        {"vertices": [[x + dx, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}
        for dx in (0.0, 0.25)]})
    line = one_line_error(["bound-cells", "--domain", cubes, "--no-verify"], capsys)
    assert line.endswith("overlap polytope construction failed: QH6271 qhull topology error")


class TestKindTables:
    def test_linear_k_override_is_revalidated(self, tmp_path, capsys):
        # diag(2, 1) has distortion 2; a smaller K violates |D phi|^n <= K |J|
        spec = {"kind": "linear", "matrix": [[2, 0], [0, 1]], "K": 1.5}
        map_path = write_json(tmp_path / "map.json", spec)
        base = write_json(tmp_path / "bound.json", {"bound": 1.0, "p": 2.0})
        assert run_cli(["transfer", "--map", map_path, "--base", base]) == 1
        assert "violates" in capsys.readouterr().err

    def test_linear_k_override_recorded(self, tmp_path):
        spec = {"kind": "linear", "matrix": [[2, 0], [0, 1]], "K": 3.0}
        map_path = write_json(tmp_path / "map.json", spec)
        base = write_json(tmp_path / "bound.json", {"mu_lower": 1.0, "p": 2.0})
        out = tmp_path / "t.json"
        assert run_cli(["transfer", "--map", map_path, "--base", base, "--out", out]) == 0
        provenance = json.loads(out.read_text())["certificates"][0]["data"]["provenance"]
        assert {"rule": "distortion-coefficient", "value": 3.0, "inputs": {}} in provenance

    @pytest.mark.parametrize(
        "bound, kind",
        [({"bound": 1.0, "p": 2.0}, "poincare"), ({"mu_lower": 1.0, "p": 2.0}, "eigen")],
    )
    def test_verify_records_bound_kind(self, tmp_path, bound, kind):
        bound_path = write_json(tmp_path / "bound.json", bound)
        domain = write_json(tmp_path / "square.json",
                            {"kind": "rectangle", "bounds": [0, 0, 1, 1]})
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--bound", bound_path, "--domain", domain,
                        "--h", 0.25, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert [c["kind"] for c in report["certificates"]] == [kind]
        assert report["checks"][0]["kind"] == kind
        assert report["checks"][0]["label"] == "verified-bound"
        assert report["checks"][0]["mesh_dof"] == 25

    def test_unverifiable_certificate_kind(self, tmp_path, capsys):
        bound = write_json(tmp_path / "bound.json", {"kind": "series-tail", "data": {}})
        domain = write_json(tmp_path / "square.json",
                            {"kind": "rectangle", "bounds": [0, 0, 1, 1]})
        assert run_cli(["verify", "--bound", bound, "--domain", domain]) == 1
        assert "cannot verify certificates of kind 'series-tail'" in capsys.readouterr().err

    def test_report_without_inputs(self, capsys):
        assert run_cli(["report"]) == 1
        assert "no reports to tabulate" in capsys.readouterr().err


class TestParserReuse:
    def test_in_process_calls_match_fresh_processes(self, tmp_path):
        # one parser serves every call in a process; no call may leave state
        # that changes the next one
        with pytest.raises(SystemExit) as err:
            run_cli(["bound-star", "--delta"])
        assert err.value.code == 1
        domain = pair_domain(tmp_path)
        calls = [
            ["bound-snowflake", "--a", 1.5, "--depth", 8, "--p", 3],
            ["bound-cells", "--domain", domain, "--p", 2, "--h", 0.12, "--no-verify"],
            ["bound-cells", "--domain", domain, "--p", 2, "--h", 0.12],
        ]
        for i, args in enumerate(calls):
            out = tmp_path / f"in_process_{i}.json"
            assert run_cli([*args, "--out", out]) == 0
            fresh = run_fresh_process([*args, "--out", tmp_path / f"fresh_{i}.json"])
            assert fresh.returncode == 0
            assert out.read_bytes() == (tmp_path / f"fresh_{i}.json").read_bytes()
        assert not json.loads((tmp_path / "in_process_1.json").read_text())["checks"]
        assert json.loads((tmp_path / "in_process_2.json").read_text())["checks"]


def axis_aligned_rect(cell):
    """Bounding rectangle if the cell is exactly an axis-aligned rectangle (the
    cover test the multiplicity references were written against)."""
    if cell.n != 2:
        return None
    poly = cell._hull_vertices
    if len(poly) != 4:
        return None
    lo, hi = cell.vertices.min(axis=0), cell.vertices.max(axis=0)
    box_area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
    if abs(box_area - cell_volume(cell)) > 1e-12 * box_area:
        return None
    return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def multiplicity(triples):
    """rect_cover_multiplicity of triples of rectangle cells, read as rectangles."""
    return rect_cover_multiplicity([[axis_aligned_rect(cell) for cell in t.cells] for t in triples])


def reference_rect_cover_multiplicity(triples):
    """Arrangement-cell loop over float midpoints, one count per cell of the
    grid that rect_cover_multiplicity counts on."""
    rects_per_triple = []
    xs, ys = set(), set()
    for t in triples:
        rects = []
        for cell in t.cells:
            r = axis_aligned_rect(cell)
            if r is None:
                raise CliError("multiplicity must be given explicitly for non-rectangle cells")
            rects.append(r)
            xs.update((r[0], r[2]))
            ys.update((r[1], r[3]))
        rects_per_triple.append(rects)
    xs, ys = sorted(xs), sorted(ys)
    best = 0
    for i in range(len(xs) - 1):
        cx = 0.5 * (xs[i] + xs[i + 1])
        for j in range(len(ys) - 1):
            cy = 0.5 * (ys[j] + ys[j + 1])
            count = sum(
                any(r[0] < cx < r[2] and r[1] < cy < r[3] for r in rects)
                for rects in rects_per_triple
            )
            best = max(best, count)
    return max(best, 1)


def previous_rect_cover_multiplicity(triples):
    """Verbatim copy of an earlier x-strip loop over float midpoints."""
    rects = []
    for t in triples:
        for cell in t.cells:
            r = axis_aligned_rect(cell)
            if r is None:
                raise CliError("multiplicity must be given explicitly for non-rectangle cells")
            rects.append(r)
    rects = np.array(rects).reshape(len(triples), 3, 4)  # (T, 3, [x0, y0, x1, y1])
    xs = np.unique(rects[..., [0, 2]])
    ys = np.unique(rects[..., [1, 3]])
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    best = 0
    # one x strip at a time keeps the membership array at (Y, T, 3)
    for x in cx:
        in_x = (rects[..., 0] < x) & (x < rects[..., 2])
        inside = in_x & (rects[..., 1] < cy[:, None, None]) & (cy[:, None, None] < rects[..., 3])
        best = max(best, int(inside.any(axis=2).sum(axis=1).max(initial=0)))
    return max(best, 1)


def inclusion_exclusion_rect_cover_multiplicity(triples) -> int:
    """Exact cover multiplicity of triples of axis-aligned rectangles (x0, y0, x1, y1).

    Evaluates coverage on the rectangle arrangement, where membership is
    constant per arrangement cell: count the triples with a rectangle
    containing the open cell, which holds when it contains both end points of
    the cell's x and y strips. End points are read as floats, so a strip one
    ulp wide counts too (its midpoint would round onto an end). Inclusion-exclusion
    over each triple's 7 sub-intersections S gives all counts as one product:
    signed [x in S] times [y in S].
    """
    rects = np.array(triples, dtype=float).reshape(len(triples), 1, 3, 4)  # (T, 1, 3, [x0, y0, x1, y1])
    # the distinct strip ends in order (the first np.unique of a process imports numpy.ma)
    xs, ys = (np.array(sorted(set(rects[..., [d, d + 2]].ravel().tolist()))) for d in (0, 1))
    member = np.array([[i >> k & 1 for k in range(3)] for i in range(1, 8)], bool)[..., None]
    lo = np.where(member, rects[..., :2], -np.inf).max(axis=2).reshape(-1, 2)  # (7T, [x, y])
    hi = np.where(member, rects[..., 2:], np.inf).min(axis=2).reshape(-1, 2)
    sign = np.tile(member.sum(axis=(1, 2)) % 2 * 2.0 - 1.0, len(triples))
    in_y = ((lo[:, 1] <= ys[:-1, None]) & (ys[1:, None] <= hi[:, 1])).astype(float)  # (Y, 7T)
    best = 0
    # x strips in blocks keep the work arrays O(Y T), like the y-strip matrix
    step = max(len(ys) - 1, 64)
    for start in range(0, len(xs) - 1, step):
        x = xs[start:start + step + 1, None]  # the end points of up to step x strips
        in_x = ((lo[:, 0] <= x[:-1]) & (x[1:] <= hi[:, 0])) * sign
        best = max(best, int((in_x @ in_y.T).max(initial=0)))
    return max(best, 1)


def rect_cell(x0, y0, x1, y1):
    return ConvexCell([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def bench_row(rng, count):
    """Overlapping rectangle row shaped like the batch-certification chains."""
    widths = rng.uniform(0.8, 1.4, size=count)
    heights = rng.uniform(0.7, 1.3, size=count)
    overlaps = rng.uniform(0.15, 0.35, size=count - 1)
    x, rects = 0.0, []
    for i in range(count):
        rects.append((x, 0.0, x + widths[i], heights[i]))
        if i < count - 1:
            x += widths[i] - overlaps[i]
    return rects


def jittered_row(rng, count):
    """bench_row with each rectangle's lower end moved too, so the y strips number
    about twice the cells."""
    return [(x0, y0 + shift, x1, y1 + shift)
            for (x0, y0, x1, y1), shift in zip(bench_row(rng, count), rng.uniform(-0.2, 0.2, size=count))]


class TestRectCoverMultiplicity:
    @pytest.mark.parametrize("count", range(3, 42, 2))
    def test_chain_rows_match_reference(self, count):
        rng = np.random.default_rng(count)
        for _ in range(3):
            cells = [rect_cell(*r) for r in bench_row(rng, count)]
            triples = [WhitneyTriple.from_cells(*cells[i:i + 3]) for i in range(0, count - 2, 2)]
            assert multiplicity(triples) == reference_rect_cover_multiplicity(triples)

    @pytest.mark.parametrize("seed", range(100))
    def test_lattice_arrangements_match_reference(self, seed):
        # corners on a coarse lattice give shared edges, nested and touching
        # rectangles and repeated coordinates; only .cells of a triple is read
        rng = np.random.default_rng(seed)
        step = (1.0, 0.1, 0.3)[seed % 3]
        triples = []
        for _ in range(rng.integers(1, 7)):
            cells = []
            for _ in range(3):
                x0, y0 = rng.integers(0, 6, size=2)
                w, h = rng.integers(1, 4, size=2)
                cells.append(rect_cell(x0 * step, y0 * step, (x0 + w) * step, (y0 + h) * step))
            triples.append(SimpleNamespace(cells=tuple(cells)))
        assert multiplicity(triples) == reference_rect_cover_multiplicity(triples)

    @pytest.mark.parametrize("count", [3, 5, 41, 81, 161])
    @pytest.mark.parametrize("flat", [False, True])
    def test_rows_match_strip_loop(self, count, flat):
        # flat rows have one y strip and up to 2 count x strips, so several x blocks
        rng = np.random.default_rng(count)
        rects = bench_row(rng, count)
        if flat:
            rects = [(x0, 0.0, x1, 1.0) for x0, _, x1, _ in rects]
        cells = [rect_cell(*r) for r in rects]
        triples = [SimpleNamespace(cells=tuple(cells[i:i + 3])) for i in range(0, count - 2, 2)]
        assert multiplicity(triples) == previous_rect_cover_multiplicity(triples)

    @pytest.mark.parametrize("count", [41, 161, 401])
    def test_jittered_rows_match_inclusion_exclusion(self, count):
        rng = np.random.default_rng(count)
        rects = jittered_row(rng, count)
        triples = [rects[i:i + 3] for i in range(0, count - 2, 2)]
        expected = inclusion_exclusion_rect_cover_multiplicity(triples)
        assert rect_cover_multiplicity(triples) == expected
        if count < 401:  # the strip loop takes seconds at 401 cells
            cells = [SimpleNamespace(cells=tuple(rect_cell(*r) for r in t)) for t in triples]
            assert previous_rect_cover_multiplicity(cells) == expected

    @pytest.mark.parametrize("where", [0, 63, 64, 199])
    def test_overlap_in_one_strip(self, where):
        # a flat row of 200 x strips; a second triple meets it in strip `where` only,
        # the first, the last, or either side of the 64-strip block boundary that an
        # earlier blocked count had
        row = [rect_cell(i, 0, i + 1, 1) for i in range(200)]
        first = SimpleNamespace(cells=(rect_cell(0, 0, 200, 1), row[0], row[1]))
        second = SimpleNamespace(cells=(row[where], rect_cell(where, 5, where + 1, 6),
                                        rect_cell(where, 7, where + 1, 8)))
        assert multiplicity([first, second]) == 2
        assert multiplicity([first, second]) == previous_rect_cover_multiplicity(
            [first, second])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_triples_match_strip_loop(self, seed):
        rng = np.random.default_rng(1000 + seed)
        step = (1.0, 0.1, 0.37)[seed % 3]
        triples = []
        for _ in range(rng.integers(1, 60)):
            cells = []
            for _ in range(3):
                x0, y0 = rng.integers(0, 40, size=2)
                w, h = rng.integers(1, 12, size=2)
                cells.append(rect_cell(x0 * step, y0 * step, (x0 + w) * step, (y0 + h) * step))
            triples.append(SimpleNamespace(cells=tuple(cells)))
        assert multiplicity(triples) == previous_rect_cover_multiplicity(triples)

    # a 7-rectangle row whose x strip (3, nextafter(3, 4)) lies in all three triples; the
    # float midpoint of that strip rounds onto one of its ends
    ULP_ROW = [(0, 1), (0.8, 1.8), (1.6, math.nextafter(3, 4)), (2, 4), (3, 4.5), (4.3, 5.3),
               (5.1, 6.1)]

    def test_one_ulp_strip_counted(self):
        rects = [(x0, 0.0, x1, 1.0) for x0, x1 in self.ULP_ROW]
        assert rect_cover_multiplicity([rects[i:i + 3] for i in (0, 2, 4)]) == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_float_sum_corners_match_exact_midpoints(self, seed):
        # corners summed from 0.1, 0.2, 0.3 and 0.7 land ulps apart; the reference takes
        # the arrangement cells' midpoints in exact rationals
        rng = np.random.default_rng(3000 + seed)

        def coordinate(steps):
            return sum(rng.choice(steps, size=rng.integers(1, 6)))

        triples = []
        for _ in range(rng.integers(3, 9)):
            triples.append([])
            for _ in range(3):
                x0, y0 = coordinate([0.1, 0.2, 0.3, 0.7]), coordinate([0.1, 0.2, 0.3, 0.7])
                triples[-1].append((x0, y0, x0 + coordinate([0.1, 0.2, 0.3]),
                                    y0 + coordinate([0.1, 0.2, 0.3])))
        xs, ys = ([Fraction(c) for c in sorted({r[k] for t in triples for r in t for k in ks})]
                  for ks in ((0, 2), (1, 3)))
        exact = max(sum(any(r[0] < x < r[2] and r[1] < y < r[3] for r in t) for t in triples)
                    for x in ((a + b) / 2 for a, b in zip(xs, xs[1:]))
                    for y in ((a + b) / 2 for a, b in zip(ys, ys[1:])))
        assert rect_cover_multiplicity(triples) == max(exact, 1)

    def test_one_ulp_strip_in_bound_cells(self, tmp_path, capsys):
        cells = [{"vertices": [[x0, 0], [x1, 0], [x1, 1], [x0, 1]]} for x0, x1 in self.ULP_ROW]
        out = tmp_path / "row.json"
        domain = write_json(tmp_path / "ulp.json", {"type": "cells", "cells": cells})
        assert run_cli(["bound-cells", "--domain", domain, "--no-verify", "--out", out]) == 0
        assert json.loads(out.read_text())["certificates"][0]["data"]["multiplicity"] == 3
        domain = write_json(tmp_path / "ulp.json", {"type": "cells", "cells": cells, "multiplicity": 2})
        assert one_line_error(["bound-cells", "--domain", domain, "--no-verify"], capsys).endswith(
            "chain multiplicity 2 is below the cover multiplicity 3 of the rectangle triples")

    def test_nested_and_touching(self):
        nested = SimpleNamespace(cells=(rect_cell(0, 0, 4, 4), rect_cell(1, 1, 2, 2),
                                        rect_cell(1, 1, 3, 3)))
        touching = SimpleNamespace(cells=(rect_cell(4, 0, 5, 1), rect_cell(5, 0, 6, 1),
                                          rect_cell(4, 1, 5, 2)))
        inner = SimpleNamespace(cells=(rect_cell(1, 1, 2, 2), rect_cell(2, 2, 3, 3),
                                       rect_cell(3, 3, 4, 4)))
        assert multiplicity([nested, touching]) == 1
        assert multiplicity([nested, touching, inner]) == 2
        for triples in ([nested, touching], [nested, touching, inner]):
            assert multiplicity(triples) == reference_rect_cover_multiplicity(triples)

    def test_non_rectangle_rejected(self, tmp_path, capsys):
        chain = {"type": "cells", "structure": "chain", "cells": [
            {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, {"vertices": [[0.5, 0], [1.5, 0], [0.5, 1]]},
            {"vertices": [[1, 0], [2, 0], [2, 1], [1, 1]]}]}
        domain = write_json(tmp_path / "chain.json", chain)
        assert "multiplicity must be given explicitly for non-rectangle cells" in one_line_error(
            ["bound-cells", "--domain", domain, "--no-verify"], capsys)


class TestReportAndTables:
    def test_single_report_single_row(self, tmp_path, capsys):
        star = tmp_path / "star.json"
        run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.12, "--out", star])
        code = run_cli(["report", star, "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "domain,p,bound,oracle_value,margin,formula_chain"
        assert len(lines) == 2

    def test_mixed_p_rows_in_input_order(self, tmp_path):
        reports = []
        for p in (2.0, 3.0):
            path = tmp_path / f"snow{p}.json"
            run_cli(["bound-snowflake", "--a", 1.0, "--depth", 6, "--p", p, "--out", path])
            reports.append(json.loads(path.read_text()))
        table = emit_table(reports, "csv")
        rows = list(csv.reader(table.splitlines()))
        assert [r[1] for r in rows[1:4]] == ["2.0"] * 3
        assert [r[1] for r in rows[4:]] == ["3.0"] * 3

    def test_csv_round_trip_full_precision(self, tmp_path):
        star = tmp_path / "star.json"
        run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.12, "--out", star])
        report = json.loads(star.read_text())
        table = emit_table([report], "csv")
        rows = list(csv.DictReader(table.splitlines()))
        assert float(rows[0]["bound"]) == report["certificates"][0]["data"]["bound"]
        assert float(rows[0]["oracle_value"]) == report["checks"][0]["oracle_value"]
        assert float(rows[0]["margin"]) == report["checks"][0]["margin"]

    def test_bound_csv_equals_report_of_its_json(self, tmp_path):
        args = ["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.12]
        direct, report, table = tmp_path / "star.csv", tmp_path / "star.json", tmp_path / "t.csv"
        assert run_cli([*args, "--format", "csv", "--out", direct]) == 0
        assert run_cli([*args, "--out", report]) == 0
        assert run_cli(["report", report, "--format", "csv", "--out", table]) == 0
        assert direct.read_bytes() == table.read_bytes()
        assert len(direct.read_text().splitlines()) == 2

    def test_empty_report_list_rejected(self):
        with pytest.raises(Exception):
            emit_table([], "csv")


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli(["bound-star", "--delta", 1.0, "--p", 2, "--h", 0.12,
                     "--seed", 7, "--out", out])
        assert a.read_bytes() == b.read_bytes()


class TestCellCoverScale:
    """Degenerate-cell and overlap cut-offs are relative to the cells' own
    scale, so a scaled cover gets the scaled bound."""

    PAIR = [[[0, 0], [1, 0], [1, 1], [0, 1]], [[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]]]

    ROW5_CELLS = [c["vertices"] for c in ROW5["cells"]]

    def domain(self, tmp_path, cells, factor):
        return write_json(tmp_path / "cells.json", {"type": "cells", "cells": [
            {"vertices": [[factor * v for v in point] for point in cell]} for cell in cells]})

    def cells_certificate(self, tmp_path, cells, factor):
        out = tmp_path / "bound.json"
        domain = self.domain(tmp_path, cells, factor)
        assert run_cli(["bound-cells", "--domain", domain, "--no-verify", "--out", out]) == 0
        return json.loads(out.read_text())["certificates"][0]["data"]

    def cells_bound(self, tmp_path, cells, factor):
        return self.cells_certificate(tmp_path, cells, factor)["bound"]

    @pytest.mark.parametrize("factor", [1e-7, 1e5])
    @pytest.mark.parametrize("cells", [PAIR, ROW5_CELLS], ids=["pair", "row5"])
    def test_scaled_cells(self, tmp_path, cells, factor):
        unit = self.cells_bound(tmp_path, cells, 1.0)
        scaled = self.cells_bound(tmp_path, cells, factor)
        assert scaled == pytest.approx(factor * unit, rel=1e-12, abs=0)

    def test_huge_pair_keeps_its_precision(self, tmp_path):
        # a float above 1e300 is as accurate as any other normal float
        unit = self.cells_bound(tmp_path, self.PAIR, 1.0)
        huge = self.cells_certificate(tmp_path, self.PAIR, 1e150)
        assert huge["notes"] == []
        assert max(t["value"] for t in huge["terms"]) > 1e300
        assert huge["bound"] == pytest.approx(1e150 * unit, rel=1e-12, abs=0)

    @pytest.mark.parametrize("cells, factor, p, rule", [
        (PAIR, 1e-150, 3, "two-cell-union"),  # the per-cell B^p underflow to 0
        (ROW5_CELLS[:3], 1e-150, 3, "triple-union"),
        (ROW5_CELLS, 1e150, 2, "chain-aggregation"),  # the link weights overflow
    ], ids=["pair", "triple", "chain"])
    def test_rule_leaving_normal_floats_exit_1(self, tmp_path, capsys, cells, factor, p, rule):
        domain = self.domain(tmp_path, cells, factor)
        line = one_line_error(["bound-cells", "--domain", domain, "--p", p, "--no-verify"], capsys)
        assert f"{rule} rule at p = {p} puts a certificate term or B^p outside" in line

    @pytest.mark.parametrize("cells", [PAIR, ROW5_CELLS], ids=["pair", "row5"])
    def test_subnormal_cell_volume_exit_1(self, tmp_path, capsys, cells):
        # a 1e-160 square has area ~1e-320; the row's disjointness cut-off scaled
        # with it used to underflow to 0
        domain = self.domain(tmp_path, cells, 1e-160)
        line = one_line_error(["bound-cells", "--domain", domain, "--no-verify"], capsys)
        assert "cell volume 9.99989e-321 is below the smallest normal float" in line

    @pytest.mark.parametrize("delta", [1e-5, 1e5])
    def test_scaled_3d_star(self, tmp_path, delta):
        bounds = []
        for d in (1.0, delta):
            out = tmp_path / f"star{d}.json"
            assert run_cli(["bound-star", "--dim", 3, "--mgon", 8, "--delta", d, "--out", out]) == 0
            bounds.append(json.loads(out.read_text())["certificates"][0]["data"]["bound"])
        assert bounds[1] == pytest.approx(delta * bounds[0], rel=1e-12, abs=0)


def test_bound_cells_builds_each_cell_once(tmp_path, monkeypatch):
    builds = []
    build = ConvexCell.__init__

    def counted(self, vertices):
        builds.append(len(vertices))
        build(self, vertices)

    monkeypatch.setattr(ConvexCell, "__init__", counted)
    # closed vertex loops (the first corner repeated) are rectangles to the convex-cell path only
    domain = write_json(tmp_path / "row.json", {**ROW5, "cells": [
        {"vertices": [*c["vertices"], c["vertices"][0]]} for c in ROW5["cells"]]})
    for flags in ([], ["--no-verify"]):
        builds.clear()
        out = tmp_path / "row_out.json"
        assert run_cli(["bound-cells", "--domain", domain, "--h", 0.2, *flags, "--out", out]) == 0
        assert len(json.loads(out.read_text())["checks"]) == (0 if flags else 1)
        assert len(builds) == 5


@pytest.mark.parametrize("cells", [ROW5["cells"], ROW5["cells"][:2] + [
    {"vertices": [[1.2, 0], [2.2, 0], [2.2, 1], [1.4, 1]]}]], ids=["rectangles", "mixed"])
def test_no_verify_builds_no_mesh_spec(tmp_path, monkeypatch, cells):
    def refuse(*args):
        raise AssertionError("mesh built for an unverified run")

    monkeypatch.setattr(cli, "mesh_domain", refuse)
    domain = write_json(tmp_path / "cells.json", {"type": "cells", "cells": cells})
    out = tmp_path / "o.json"
    assert run_cli(["bound-cells", "--domain", domain, "--no-verify", "--out", out]) == 0
    # a verified run of the mixed cover would note that it has no oracle mesh
    report = json.loads(out.read_text())
    assert report["checks"] == [] and report["notes"] == []


# --domain descriptions ("type", as in a domain file) of every kind mesh_domain meshes, and
# two domains it has no mesh for, each with the bound command that meets it
ORACLE_DOMAINS = {
    "rectangle": ({"type": "rectangle", "bounds": [0, 0, 2, 1]}, None),
    "rect_union": ({"type": "rect_union", "rects": [[0, 0, 1, 1], [0.5, 0, 1.5, 1]]}, None),
    "polygon": ({"type": "polygon", "vertices": [[0, 0], [2, 0], [1, 1]]}, None),
    "star": ({"type": "star", "delta": 0.8}, None),
    "disk": ({"type": "disk", "radius": 1, "center": [2, 0.5]}, None),
    "star-3d": ({"type": "star", "delta": 1, "dim": 3}, ["bound-star", "--dim", 3, "--mgon", 8]),
    # the near-rectangle cover of test_rect_cover.py
    "near-rectangle-cover": ({"type": "cells", "structure": "chain", "multiplicity": 1, "cells": [
        {"vertices": [[0, 0], [1, 0], [1, 1], [2.0**-40, 1]]},
        {"vertices": [[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]]},
        {"vertices": [[1.2, 0], [2.2, 0], [2.2, 1], [1.2, 1]]}]}, ["bound-cells"]),
}


@pytest.mark.parametrize("name", ORACLE_DOMAINS)
def test_each_domain_kind_meshes_as_mesh_domain(tmp_path, capsys, monkeypatch, name):
    domain, bound_command = ORACLE_DOMAINS[name]
    domain_path = write_json(tmp_path / "domain.json", domain)
    checked = []
    check = cli.check_domination
    monkeypatch.setattr(cli, "check_domination",
                        lambda bound, mesh: check(bound, checked.append(mesh) or mesh))
    verify = ["verify", "--bound", write_json(tmp_path / "bound.json", {"bound": 10.0, "p": 2.0}),
              "--domain", domain_path, "--h", 0.25, "--out", tmp_path / "verify.json"]
    if bound_command is None:
        assert run_cli(verify) in (0, 2)
        spec = {key: value for key, value in domain.items() if key != "type"}
        assert canonical(checked) == canonical([mesh_domain({**spec, "kind": domain["type"]}, 0.25)])
        return
    out = tmp_path / "bound_out.json"
    flags = ["--domain", domain_path] if bound_command[0] == "bound-cells" else []
    assert run_cli([*bound_command, *flags, "--h", 0.25, "--out", out]) == 0
    notes = json.loads(out.read_text())["notes"]
    assert [note.split(": ", 1)[1] for note in notes] == ["no oracle available for this domain kind"]
    assert one_line_error(verify, capsys).endswith("error: domain kind has no oracle mesh")
    assert checked == []


@pytest.mark.parametrize("dim", [2, 3])
def test_bound_star_refuses_a_nonpositive_h(capsys, dim):
    # the 3D star has no oracle mesh, but its verified run reads --h as the 2D one does
    line = one_line_error(["bound-star", "--dim", dim, "--mgon", 8, "--h", 0], capsys)
    assert line.endswith("target edge length must be positive")


def canonical(obj):
    """A form of obj whose == tells ints from floats, lists from tuples and
    arrays apart by dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, TriangleMesh):
        return canonical((obj.nodes, obj.elements))
    if isinstance(obj, ConvexCell):
        return canonical(obj.vertices)
    if dataclasses.is_dataclass(obj):
        return canonical(tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, *map(canonical, obj))
    return (type(obj).__name__, obj)


def read_mesh(path):
    return mesh_domain(cli._load_json(path), 0.25)


def floats(rows):
    return np.array(rows, dtype=float)


# input kind -> (JSON text, its reader, the object built from the same values)
WELL_TYPED_INPUTS = {
    "rectangle": ('{"kind": "rectangle", "bounds": [0, 0, 2, 1]}', read_mesh,
                  lambda: oracle._rect_union_mesh(floats([[0, 0, 2, 1]]), 0.25)),
    "rect_union": ('{"kind": "rect_union", "rects": [[0, 0, 1, 1], [0.5, 0, 1.5, 1]]}', read_mesh,
                   lambda: oracle._rect_union_mesh(floats([[0, 0, 1, 1], [0.5, 0, 1.5, 1]]), 0.25)),
    "polygon": ('{"kind": "polygon", "vertices": [[0, 0], [2, 0], [1, 1]]}', read_mesh,
                lambda: oracle._convex_polygon_mesh(floats([[0, 0], [2, 0], [1, 1]]), 0.25)),
    "star": ('{"kind": "star", "delta": 1}', read_mesh, lambda: oracle._star_mesh(1.0, 0.25)),
    "disk": ('{"kind": "disk", "radius": 1, "center": [2, 0.5]}', read_mesh,
             lambda: oracle._disk_mesh(1.0, 0.25, (2.0, 0.5))),
    "raw mesh": ('{"nodes": [[0, 0], [1, 0], [0, 1], [1, 1]], "elements": [[0, 1, 2], [1, 3, 2]]}',
                 lambda path: TriangleMesh.from_dict(cli._load_json(path)),
                 lambda: TriangleMesh(floats([[0, 0], [1, 0], [0, 1], [1, 1]]),
                                      np.array([[0, 1, 2], [1, 3, 2]]))),
    "linear map": ('{"kind": "linear", "matrix": [[2, 0], [0, 1]], "domain_volume": 3, "K": 4}',
                   lambda path: cli._map_from_spec(cli._load_json(path)),
                   lambda: dataclasses.replace(QCMapData.from_linear(floats([[2, 0], [0, 1]]), 3.0),
                                               K=4.0)),
    "sampled map": ('{"kind": "sampled", "weights": [1, 2], "dphi": [1, 0.5], "jac": [1, 1], "K": 2,'
                    ' "alpha": 8, "lipschitz": true, "n": 2}',
                    lambda path: cli._map_from_spec(cli._load_json(path)),
                    lambda: QCMapData(2, 2.0, *map(floats, ([1, 2], [1, 0.5], [1, 1])), 8.0, True)),
    "cells": ('{"type": "cells", "cells": [{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}]}',
              lambda path: cli._cover_from_spec(cli._load_json(path)).cells,
              lambda: [(0.0, 0.0, 1.0, 1.0)]),
    "poincare certificate": (
        '{"bound": 2, "p": 2, "form": "deviation-from-mean", "r": null, "multiplicity": 1,'
        ' "terms": [{"label": "a", "rule": "r", "value": 4}], "details": {"x": 1}, "notes": ["n"],'
        ' "domain": null}',
        lambda path: cli.load_bound(cli._load_json(path)),
        lambda: PoincareBound(2.0, 2.0, "deviation-from-mean", (CertTerm("a", "r", 4.0),), None, 1,
                              (("x", 1.0),), ("n",), None)),
    "eigen certificate": (
        '{"mu_lower": 1, "p": 3, "provenance": [{"rule": "r", "value": 1, "inputs": {"q": 2}}],'
        ' "notes": [], "domain": "d"}',
        lambda path: cli.load_bound(cli._load_json(path)),
        lambda: EigenBound(1.0, 3.0, (ChainFactor("r", 1.0, (("q", 2.0),)),), (), "d")),
}


@pytest.mark.parametrize("kind", WELL_TYPED_INPUTS)
def test_well_typed_input_reads_to_constructed_object(tmp_path, monkeypatch, kind):
    """Each input kind reads to the object its constructor builds from the same
    values as floats (integers where the kind is an integer)."""
    text, read, expected = WELL_TYPED_INPUTS[kind]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text(text)
    assert canonical(read("input.json")) == canonical(expected())
