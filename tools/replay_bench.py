"""Replay the benchmark's commands in one process and digest every output.

Usage, from the root of a checkout, with the library to replay on the path:

    PYTHONPATH=src python tools/replay_bench.py --seeds 11 301
    PYTHONPATH=src python tools/replay_bench.py --workloads fem-verify --json outs

For each workload and seed the tool builds the inputs with
``bench/workloads.py`` (loaded by path, so the benchmark itself is not
touched) in a temporary directory, runs every warm-up, prep, probe and
schedule command there once through ``neumann_bounds.cli.main``, and prints
one line per output: workload/seed/path, exit code, the output's sha256
and the sha256 of what the command wrote to standard error ("-" if
nothing). Two versions of the library replay identically when their lines
are equal. ``--json DIR`` also copies each output, and each non-empty
standard error as ``<path>.stderr``, to DIR/<workload>/<seed>/, for a
numeric diff.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_key, "1")  # the benchmark's BLAS thread count

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(cli, built, copy_to: Path | None) -> list[str]:
    """Run each command of one built workload in a scratch directory; one line per output."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for rel, body in built.files.items():
            (work / rel).parent.mkdir(parents=True, exist_ok=True)
            (work / rel).write_bytes(body)
        for sub in ("out", "prep", "probe", "warm"):
            (work / sub).mkdir(parents=True, exist_ok=True)
        here = os.getcwd()
        os.chdir(work)
        try:
            for cmd in (*built.warmup, *built.prep, *built.probes, *built.schedule):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = cli.main(list(cmd.argv))
                    except Exception as exc:  # noqa: BLE001 - a crash is a result to report
                        code = -1
                        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                out = work / cmd.out
                body = out.read_bytes() if out.is_file() else b""
                stderr = err.getvalue().encode()
                lines.append(f"{cmd.out} {code} {sha256(body)} {sha256(stderr) if stderr else '-'}")
                if copy_to is not None:
                    (copy_to / cmd.out).parent.mkdir(parents=True, exist_ok=True)
                    if out.is_file():
                        shutil.copyfile(out, copy_to / cmd.out)
                    if stderr:
                        (copy_to / f"{cmd.out}.stderr").write_bytes(stderr)
        finally:
            os.chdir(here)
    return lines


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[11])
    ap.add_argument("--json", type=Path, help="copy the outputs under this directory")
    args = ap.parse_args(argv)

    from neumann_bounds import cli

    for name in args.workloads:
        for seed in args.seeds:
            copy_to = None if args.json is None else args.json.resolve() / name / str(seed)
            for line in replay(cli, workloads.build(name, seed), copy_to):
                print(f"{name}/{seed}/{line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
