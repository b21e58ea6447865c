"""The bench replay tool runs each command of a workload once and digests its output.

The tool loads ``bench/workloads.py`` by file path, so these tests load the
tool the same way and check its lines against the workload's commands.
"""

import hashlib
import json
import importlib.util
import itertools
import re
import sys
import types
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "replay_bench.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("replay_bench", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_digests_and_copies_every_output(tmp_path, capsys):
    tool = load_tool()
    assert tool.main(["--workloads", "certify-batch", "--seeds", "11", "--json", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    built = tool.load_workloads().build("certify-batch", 11)
    commands = [*built.warmup, *built.prep, *built.probes, *built.schedule]
    assert [line.split()[0] for line in lines] == [f"certify-batch/11/{cmd.out}" for cmd in commands]
    for line, cmd in zip(lines, commands):
        _, code, digest, stderr = line.split()
        assert (code, stderr) == ("0", "-")
        copy = tmp_path / "certify-batch" / "11" / cmd.out
        assert hashlib.sha256(copy.read_bytes()).hexdigest() == digest



def test_rss_column_ends_each_line_with_the_peak_so_far(capsys):
    tool = load_tool()
    assert tool.main(["--workloads", "certify-batch", "--seeds", "11", "--rss"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows and all(len(row) == 5 for row in rows)
    peaks = [row[-1] for row in rows]
    assert all(re.fullmatch(r"\d+\.\d", peak) for peak in peaks)
    assert [float(peak) for peak in peaks] == sorted(map(float, peaks))
    assert float(peaks[-1]) <= round(tool.peak_rss_mb(), 1)


def test_imports_column_names_the_scipy_subpackages_a_command_loaded_first(monkeypatch):
    tool = load_tool()
    built = tool.load_workloads().build("certify-batch", 11)
    # the second command loads a public subpackage, a private one and a plain module
    package, private, plain = (types.ModuleType(name) for name in
                               ("scipy.replay_test", "scipy._replay_test", "scipy.replay_test_module"))
    package.__path__ = private.__path__ = []
    calls = itertools.count()

    def main(argv):
        if next(calls) == 1:
            for module in (package, private, plain):
                monkeypatch.setitem(sys.modules, module.__name__, module)
        return 0

    rows = [line.split() for line in
            tool.replay(types.SimpleNamespace(main=main), built, None, rss=True, imports=True)]
    assert len(rows) > 2 and all(len(row) == 6 for row in rows)
    assert all(re.fullmatch(r"\d+\.\d", row[4]) for row in rows)
    assert [row[5] for row in rows] == ["-", "scipy.replay_test"] + ["-"] * (len(rows) - 2)


def write_report(path, checks, **rest):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"command": "verify", "checks": checks, **rest}))


def check(value, iterations, passed=True, converged=True):
    return {"kind": "eigen", "claimed": 1.0, "oracle_value": value, "margin": value - 1.0,
            "iterations": iterations, "passed": passed, "converged": converged}


def test_diff_lists_each_check_and_every_other_difference(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    write_report(old / "w/1/out/a.json", [check(2.0, 100), check(4.0, 50)])
    write_report(new / "w/1/out/a.json", [check(2.0 * (1 + 3e-9), 80), check(4.0, 60, converged=False)])
    # a report that differs in a certificate number, not only in its oracle numbers
    write_report(old / "w/1/out/b.json", [check(3.0, 10)], bound=1.5)
    write_report(new / "w/1/out/b.json", [check(3.0, 10)], bound=1.25)
    (old / "w/1/out/t.csv").write_text("x\n")
    (new / "w/1/out/t.csv").write_text("x\n")
    # a `report` table row carries an oracle_value column but is no check
    for root in (old, new):
        (root / "w/1/out/table.json").write_text(json.dumps([{"bound": 2.0, "oracle_value": ""}]))
    (new / "w/1/out/extra.json.stderr").write_text("warning\n")
    # the flip and the two other differences fail the comparison
    assert load_tool().main(["--diff", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "w/1/out/a.json#0 oracle_value 3.00e-09 iterations 100 -> 80",
        "w/1/out/a.json#1 oracle_value 0.00e+00 iterations 50 -> 60 FLIP converged True -> False",
        "w/1/out/b.json#0 oracle_value 0.00e+00 iterations 10 -> 10",
        "w/1/out/b.json differs besides its checks' oracle numbers",
        f"w/1/out/extra.json.stderr only in {new}",
        "summary: max relative oracle_value change 3.00e-09 (w/1/out/a.json#0), "
        "iterations 160 -> 150, flips 1, other differing outputs 2",
    ]


def test_diff_of_a_tree_with_itself_is_empty(tmp_path):
    write_report(tmp_path / "w/1/out/a.json", [check(2.0, 100)])
    assert load_tool().diff_trees(tmp_path, tmp_path) == ([
        "w/1/out/a.json#0 oracle_value 0.00e+00 iterations 100 -> 100",
        "summary: max relative oracle_value change 0.00e+00 (-), "
        "iterations 100 -> 100, flips 0, other differing outputs 0",
    ], 0)
    assert load_tool().main(["--diff", str(tmp_path), str(tmp_path)]) == 0


def test_diff_exits_1_on_a_flip_alone(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write_report(old / "w/1/out/a.json", [check(2.0, 100)])
    write_report(new / "w/1/out/a.json", [check(2.0 * (1 + 1e-12), 90, passed=False)])
    assert load_tool().main(["--diff", str(old), str(new)]) == 1
    # oracle numbers alone may move
    write_report(new / "w/1/out/a.json", [check(2.0 * (1 + 1e-12), 90)])
    assert load_tool().main(["--diff", str(old), str(new)]) == 0
