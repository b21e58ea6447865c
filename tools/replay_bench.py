"""Replay the benchmark's commands in one process and digest every output.

Usage, from the root of a checkout, with the library to replay on the path:

    PYTHONPATH=src python tools/replay_bench.py --seeds 11 301
    PYTHONPATH=src python tools/replay_bench.py --workloads fem-verify --json outs
    PYTHONPATH=src python tools/replay_bench.py --workloads fem-verify --rss
    PYTHONPATH=src python tools/replay_bench.py --workloads fem-verify --imports
    python tools/replay_bench.py --diff old_outs new_outs

For each workload and seed the tool builds the inputs with
``bench/workloads.py`` (loaded by path, so the benchmark itself is not
touched) in a temporary directory, runs every warm-up, prep, probe and
schedule command there once through ``neumann_bounds.cli.main``, and prints
one line per output: workload/seed/path, exit code, the output's sha256
and the sha256 of what the command wrote to standard error ("-" if
nothing). Two versions of the library replay identically when their lines
are equal. ``--json DIR`` also copies each output, and each non-empty
standard error as ``<path>.stderr``, to DIR/<workload>/<seed>/, for a
numeric diff. ``--rss`` appends to each line the process's peak resident
set size so far, in MB (``ru_maxrss`` / 1024, as the benchmark reports
``peak_rss_mb``), so the line where it first reaches its final value names
the command that sets a workload's peak. ``--imports`` appends the public
scipy subpackages (``scipy.spatial``, ``scipy.sparse.linalg``, ...) that
the command loaded first in the process, comma-separated, or "-" if none.

``--diff OLD NEW`` compares two such trees instead of replaying. For each
domination check (a report entry with ``oracle_value`` and ``iterations``;
a ``report`` table row has no ``iterations``) it prints the
relative change of ``oracle_value``, the change of ``iterations`` and any
flip of ``passed`` or ``converged``; it names each output that differs in
anything else, or exists in one tree only, and ends with a summary line. It
exits 1 if a check flips or an output differs besides its checks' oracle
numbers or exists in one tree only, so an unchanged replay can be checked by
exit status; changed oracle numbers alone exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
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


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scipy_subpackages() -> set[str]:
    """The public scipy subpackages loaded in this process."""
    return {name for name, module in list(sys.modules.items())
            if name.startswith("scipy.") and hasattr(module, "__path__")
            and not any(part.startswith("_") for part in name.split("."))}


def replay(cli, built, copy_to: Path | None, rss: bool = False, imports: bool = False) -> list[str]:
    """Run each command of one built workload in a scratch directory; one line per
    output, ending in the peak RSS so far if rss is set, then in the scipy
    subpackages the command loaded first if imports is set."""
    lines, loaded = [], scipy_subpackages()
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
                line = f"{cmd.out} {code} {sha256(body)} {sha256(stderr) if stderr else '-'}"
                if rss:
                    line += f" {peak_rss_mb():.1f}"
                if imports:
                    now = scipy_subpackages()
                    line += " " + (",".join(sorted(now - loaded)) or "-")
                    loaded = now
                lines.append(line)
                if copy_to is not None:
                    (copy_to / cmd.out).parent.mkdir(parents=True, exist_ok=True)
                    if out.is_file():
                        shutil.copyfile(out, copy_to / cmd.out)
                    if stderr:
                        (copy_to / f"{cmd.out}.stderr").write_bytes(stderr)
        finally:
            os.chdir(here)
    return lines


# the numbers of a domination check that follow the oracle; ``passed`` and
# ``converged`` are compared as flips
ORACLE_NUMBERS = ("oracle_value", "margin", "iterations", "passed", "converged")


def is_check(node) -> bool:
    return isinstance(node, dict) and "oracle_value" in node and "iterations" in node


def checks_of(node):
    """The domination checks of a parsed report, in document order."""
    if isinstance(node, dict):
        if is_check(node):
            yield node
            return
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from checks_of(item)


def without_oracle_numbers(node):
    """A parsed report with the oracle numbers of its checks left out."""
    if isinstance(node, dict):
        skip = ORACLE_NUMBERS if is_check(node) else ()
        return {k: without_oracle_numbers(v) for k, v in node.items() if k not in skip}
    if isinstance(node, list):
        return [without_oracle_numbers(item) for item in node]
    return node


def diff_trees(old: Path, new: Path) -> tuple[list[str], int]:
    """One line per domination check and per otherwise differing output of two
    ``--json`` trees, then a summary line; and the count of flips and of otherwise
    differing outputs."""
    lines, worst, where, iterations, flips, others = [], 0.0, "-", [0, 0], 0, 0
    files = sorted({p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()})
    for rel in files:
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel} only in {old if a.is_file() else new}")
            others += 1
            continue
        if rel.suffix != ".json":
            if a.read_bytes() != b.read_bytes():
                lines.append(f"{rel} differs")
                others += 1
            continue
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        for i, (x, y) in enumerate(zip(checks_of(ra), checks_of(rb))):
            change = abs(y["oracle_value"] - x["oracle_value"]) / abs(x["oracle_value"])
            flipped = [k for k in ("passed", "converged") if x[k] != y[k]]
            lines.append(f"{rel}#{i} oracle_value {change:.2e} iterations "
                         f"{x['iterations']} -> {y['iterations']}"
                         + "".join(f" FLIP {k} {x[k]} -> {y[k]}" for k in flipped))
            if change > worst:
                worst, where = change, f"{rel}#{i}"
            iterations[0] += x["iterations"]
            iterations[1] += y["iterations"]
            flips += len(flipped)
        if without_oracle_numbers(ra) != without_oracle_numbers(rb):
            lines.append(f"{rel} differs besides its checks' oracle numbers")
            others += 1
    lines.append(f"summary: max relative oracle_value change {worst:.2e} ({where}), "
                 f"iterations {iterations[0]} -> {iterations[1]}, flips {flips}, "
                 f"other differing outputs {others}")
    return lines, flips + others


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[11])
    ap.add_argument("--json", type=Path, help="copy the outputs under this directory")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"),
                    help="compare two --json trees instead of replaying")
    ap.add_argument("--rss", action="store_true",
                    help="end each line with the peak RSS in MB after its command")
    ap.add_argument("--imports", action="store_true",
                    help="end each line with the scipy subpackages its command loaded first")
    args = ap.parse_args(argv)
    if args.diff:
        lines, differences = diff_trees(*args.diff)
        for line in lines:
            print(line)
        return 1 if differences else 0

    from neumann_bounds import cli

    for name in args.workloads:
        for seed in args.seeds:
            copy_to = None if args.json is None else args.json.resolve() / name / str(seed)
            for line in replay(cli, workloads.build(name, seed), copy_to, args.rss, args.imports):
                print(f"{name}/{seed}/{line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
