"""tools/outcomes.py: one digest line per benchmark outcome, the same on
every run of the same checkout."""
import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outcomes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("outcomes_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_give_the_same_lines(tmp_path):
    tool = load_tool()
    first = tool.outcome_lines(["zeros"], [1])
    assert tool.outcome_lines(["zeros"], [1]) == first
    _, workloads = tool._import_checkout()
    requests, _ = workloads.build("zeros", 1, tmp_path)
    assert len(first) == len(requests) + len(workloads.KNOWN_DEFECTS)
    expect = [f"zeros 1 {i} {r.op}" for i, r in enumerate(requests)]
    expect += [f"known - {i} {r.op}" for i, r in enumerate(workloads.KNOWN_DEFECTS)]
    assert [line.rsplit(" ", 1)[0] for line in first] == expect
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in first)


def test_seed_ranges():
    tool = load_tool()
    assert tool.parse_seeds("1-10") == list(range(1, 11))
    assert tool.parse_seeds("3") == [3]
    assert tool.parse_seeds("1,4-5") == [1, 4, 5]
