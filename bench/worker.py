"""One workload in one fresh process: set-up, timed passes, output checks.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and
the BLAS thread count fixed in the environment. The process imports the
CLI, runs the warm-up commands and prints ``ready``; with ``--setup-only``
it stops there (the parent times these probes for ``setup_s``).
Otherwise it runs the prep commands, then the timed passes as a closed
loop with one client (each ``cli.main`` call starts when the previous one
returned), and checks every output after the timed phase. With
``--trace 1`` odd passes run under the tracer and even passes without it,
so one run gives per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

import checks
from workloads import Command


def _invoke(cli, cmd: Command) -> tuple[float, int, bytes]:
    """Run one command; an exception escaping the CLI counts as exit code -1."""
    started = time.perf_counter()
    try:
        code = cli.main(list(cmd.argv))
    except Exception:  # noqa: BLE001 - a crash is a failed command, not a failed run
        traceback.print_exc()
        code = -1
    elapsed = time.perf_counter() - started
    try:
        with open(cmd.out, "rb") as fh:
            body = fh.read()
    except FileNotFoundError:
        body = b""
    return elapsed, code, body


def check_output(cmd: Command, code: int, body: bytes, outputs: dict[str, bytes]):
    """Problems, tightness values and mesh sizes of one command's output."""
    problems: list[str] = []
    if code != 0:
        problems.append(f"exit code {code}")
    text = body.decode("utf-8", errors="replace")
    if cmd.kind == "report":
        fmt = cmd.argv[cmd.argv.index("--format") + 1] if "--format" in cmd.argv else "json"
        inputs = {p: outputs.get(p, b"").decode() for p in cmd.report_inputs}
        return problems + checks.check_table(text, fmt, inputs), [], []
    found, tightness, dofs = checks.check_report(text, cmd.expect_mu2)
    return problems + found, tightness, dofs


def perturbation_detected(outputs: dict[str, bytes]) -> bool:
    """A Poincare report with its largest term scaled by 1 + 1e-6 must fail."""
    for body in outputs.values():
        try:
            report = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        for cert in report.get("certificates", []) if isinstance(report, dict) else []:
            if cert["kind"] == "poincare" and cert["data"].get("terms"):
                terms = cert["data"]["terms"]
                biggest = max(terms, key=lambda t: t["value"])
                biggest["value"] *= 1.0 + 1e-6
                problems, _, _ = checks.check_report(json.dumps(report))
                return bool(problems)
    return False


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    warmup, prep, probes, schedule = (
        [Command(**c) for c in plan[key]] for key in ("warmup", "prep", "probes", "schedule")
    )

    from neumann_bounds import cli

    outputs: dict[str, bytes] = {}
    untimed = []
    for cmd in warmup:
        _, code, body = _invoke(cli, cmd)
        untimed.append((cmd, code, body))
        outputs[cmd.out] = body
    print("ready", flush=True)
    if args.setup_only:
        return 0

    for cmd in prep:
        _, code, body = _invoke(cli, cmd)
        untimed.append((cmd, code, body))
        outputs[cmd.out] = body

    probe_results = []
    for cmd in probes:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            _, code, _ = _invoke(cli, cmd)
        probe_results.append({"out": cmd.out, "exit_code": code, "stderr": err.getvalue().strip()})

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = []  # per pass: {"traced", "wall", "latency", "codes", "digests"}
    first: dict[int, tuple[int, bytes]] = {}
    for index in range(args.passes):
        traced = tracer is not None and index % 2 == 1
        record = {"traced": traced, "latency": [], "codes": [], "digests": []}
        started = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            for slot, cmd in enumerate(schedule):
                if traced:
                    tracer.pass_index = index
                    tracer.command = index * len(schedule) + slot
                elapsed, code, body = _invoke(cli, cmd)
                record["latency"].append(elapsed)
                record["codes"].append(code)
                record["digests"].append(hashlib.sha256(body).hexdigest())
                first.setdefault(slot, (code, body))
        record["wall"] = time.perf_counter() - started
        passes.append(record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- output checks (after the timed phase) ----
    for slot, cmd in enumerate(schedule):
        outputs[cmd.out] = first[slot][1]
    failures: list[dict] = []
    attempted = failed = 0
    for cmd, code, body in untimed:
        problems, _, _ = check_output(cmd, code, body, outputs)
        attempted += 1
        if problems:
            failed += 1
            failures.append({"out": cmd.out, "problems": problems[:3]})
    tightness: list[float] = []
    dofs: list[int] = []
    for slot, cmd in enumerate(schedule):
        code, body = first[slot]
        problems, tight, sizes = check_output(cmd, code, body, outputs)
        tightness += tight
        dofs += sizes
        digest = hashlib.sha256(body).hexdigest()
        for record in passes:
            attempted += 1
            extra = []
            if record["digests"][slot] != digest:
                extra.append("report differs from the first run of the same input")
            if record["codes"][slot] != code:
                extra.append("exit code differs from the first run of the same input")
            if problems or extra:
                failed += 1
                failures.append({"out": cmd.out, "problems": (problems + extra)[:3]})

    if tracer is not None and args.spans:
        tracer.write(args.spans)

    import numpy
    import scipy

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "probes": probe_results,
        "passes": [{k: r[k] for k in ("traced", "wall", "latency")} for r in passes],
        "kinds": [cmd.kind for cmd in schedule],
        "peak_rss_mb": peak_rss_mb,
        "tightness": tightness,
        "tightness_gmean": math.exp(math.fsum(map(math.log, tightness)) / len(tightness))
        if tightness else None,
        "mesh_dofs": dofs,
        "perturbation_detected": perturbation_detected(outputs),
        "traced_passes": [i for i, r in enumerate(passes) if r["traced"]],
        "untraced_layers": tracer.missing if tracer is not None else [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "library": os.path.dirname(cli.__file__),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
