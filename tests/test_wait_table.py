"""Every polling wait in the simulator is listed in DESIGN.md's wait table.

A ``while`` loop that yields a simulated delay named ``*_ps``/``*_PS`` or
calls ``poll(``/``sleep(`` is a blocking wait: it must have a bound and an
error, and DESIGN.md §8 ("Blocking waits") must say which.  A state change
that someone waits for is a future, not such a loop.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def polling_loops(source: str, module: str):
    """``module.Qualname`` of each function holding a polling ``while``."""
    found = []
    scope = []

    def is_delay(node) -> bool:
        value = node.value
        name = getattr(value, "id", None) or getattr(value, "attr", None)
        return bool(name) and name.lower().endswith("_ps")

    def is_poll(node) -> bool:
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        return name in ("poll", "sleep")

    class Visitor(ast.NodeVisitor):
        def visit_scope(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

        def visit_While(self, node):
            for sub in ast.walk(node):
                if (isinstance(sub, (ast.Yield, ast.YieldFrom)) and is_delay(sub)) or (
                    isinstance(sub, ast.Call) and is_poll(sub)
                ):
                    found.append(".".join([module, *scope]))
                    break
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def source_loops():
    loops = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        loops += polling_loops(path.read_text(), module)
    return loops


def wait_table():
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("**Blocking waits.**"):]
    table = section[section.index("\n|"): section.index("\n\n", section.index("\n|"))]
    return set(re.findall(r"`([\w.]+)", table))


def test_every_polling_loop_is_in_the_wait_table():
    listed = wait_table()
    missing = sorted(set(source_loops()) - listed)
    assert not missing, f"polling loops missing from DESIGN.md's wait table: {missing}"


def test_the_scan_sees_the_loops_the_table_lists():
    loops = set(source_loops())
    assert "repro.hv.watchdog.GuestWatchdog._watch" in loops
    assert "repro.parallel.executor.ShardedFleetCluster._recv" in loops


def test_the_scan_flags_a_switch_out_poll():
    poll = (
        "class VirtualAccelerator:\n"
        "    def switched_out(self):\n"
        "        while self.state is VAccelState.SCHEDULED:\n"
        "            yield SWITCH_OUT_POLL_PS\n"
    )
    assert polling_loops(poll, "repro.hv.mdev") == [
        "repro.hv.mdev.VirtualAccelerator.switched_out"
    ]
    sampler = "async def pump():\n    while True:\n        await asyncio.sleep(0)\n"
    assert polling_loops(sampler, "m") == ["m.pump"]
    future = "def f(va):\n    while not va.job.done:\n        yield va.switched_out()\n"
    assert polling_loops(future, "m") == []
