"""The bench replay tool runs each command of a workload once and digests its output.

The tool loads ``bench/workloads.py`` by file path, so these tests load the
tool the same way and check its lines against the workload's commands.
"""

import hashlib
import importlib.util
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
