"""``tools/output_digest.py`` runs its command list and is deterministic:
two runs in one process print the same digests."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_smoke_runs_give_equal_digests():
    tool = _tool()
    first, second = tool.run(0, smoke=True), tool.run(0, smoke=True)
    assert first == second
    lines, _total = first
    assert [command for _, command in lines] == [" ".join(c) for c in tool.commands(0, smoke=True)]
    # every family command and every limit tag ran
    assert {c.split()[c.split().index("--family") + 1] for _, c in lines if "--family" in c} == {
        "mp-crossed", "sextic-i", "sextic-ii", "centrifugal-i", "centrifugal-ii", "trig-q"
    }
    assert sum(c.startswith("limits") for _, c in lines) == len(tool.LIMITS) == 8
