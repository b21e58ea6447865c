"""Summarize recorded runs into a result file that later changes compare against.

Usage:

    python3 bench/run.py --workload fem-verify --seed 1 --seconds 30 --record runs.jsonl
    ...
    python3 bench/summarize.py runs.jsonl > bench/results/baseline.json

Per workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread as
a share of the median and the seeds used; per workload it keeps the facts
of the first untraced run (machine, source lines, input summary, tail
percentile) and the tracing overhead of each traced run.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(records: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for rec in records:
        facts = rec["facts"]
        entry = out.setdefault(
            facts["workload"],
            {"runs": 0, "all_correct": True, "seeds": {"untraced": [], "traced": []},
             "metrics": {}, "facts": None, "trace_overhead": []},
        )
        entry["runs"] += 1
        entry["all_correct"] &= bool(rec["correct"]) and rec["failed"] == 0
        traced = "trace_overhead" in facts
        entry["seeds"]["traced" if traced else "untraced"].append(facts["seed"])
        if traced:
            entry["trace_overhead"].append(facts["trace_overhead"]["ratio"])
        elif entry["facts"] is None:
            entry["facts"] = {k: v for k, v in facts.items() if k != "failures"}
        for name, m in rec["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"]
            )
    for entry in out.values():
        for m in entry["metrics"].values():
            values = m.pop("values")
            med = statistics.median(values)
            m["median"] = med
            m["n"] = len(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m["q1"], m["q3"] = q1, q3
                m["spread"] = (q3 - q1) / med if med else 0.0
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: summarize.py RECORDS.jsonl", file=sys.stderr)
        return 2
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    json.dump(summarize(records), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
