"""List the twintree functions that no CLI command, or only the unit
tests, reach.

Usage:  python3 tools/reach.py

Runs pytest four times, each time in a fresh interpreter under a
``sys.setprofile`` hook that records every Python function called:
over tests/test_cli.py (every CLI command), over tests/test_acceptance.py
plus tests/test_cli.py (adding all acceptance criteria), over all of
tests/, and over perfbench/ plus tests/test_calibration.py (the
benchmark's workloads and checks, and tools/calibrate_constants.py,
which that test runs).  Then prints, each with its line count (from its
``def`` line), the functions defined in src/twintree that the
acceptance criteria reach but no CLI test does, those that the
acceptance criteria do not reach but the benchmark or the calibration
tool does, those that only the unit tests reach, and those that no
test reaches.  Nested functions count; lambdas do not.

Failed tests are listed but change nothing else: the hook slows every
call, so a test with a time budget (criterion 1's 5 s) can fail after
every function it calls has been recorded.  pytest runs with
``-p no:cacheprovider`` and no bytecode is written, so the script
leaves nothing in the checkout.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twintree"
RUNS = {"CLI tests": ["tests/test_cli.py"],
        "acceptance and CLI tests": ["tests/test_acceptance.py",
                                     "tests/test_cli.py"],
        "all tests": ["tests"],
        "benchmark and calibration tool": ["perfbench",
                                           "tests/test_calibration.py"]}


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(module file, first line) -> (qualified name, line count) of every
    function defined in src/twintree, the first line being that of its
    first decorator, as in its code object's co_firstlineno."""
    out = {}

    def walk(node, prefix: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                name = prefix + child.name
                out[module, first] = (name,
                                      child.end_lineno - child.lineno + 1)
                walk(child, name + ".<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", module)
            else:
                walk(child, prefix, module)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path.name)
    return out


def record(out: str, paths: list[str]) -> None:
    """Run pytest over paths under the hook; write what it reached, the
    failed test ids and pytest's exit status to out as JSON."""
    sys.dont_write_bytecode = True
    import pytest

    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    class Failures:
        def __init__(self):
            self.ids: list[str] = []

        def pytest_runtest_logreport(self, report):
            if report.failed:
                self.ids.append(report.nodeid)

    failures = Failures()
    sys.setprofile(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *paths],
                             plugins=[failures])
    finally:
        sys.setprofile(None)
    src = os.path.realpath(SRC)
    reached = sorted({(os.path.basename(c.co_filename), c.co_firstlineno)
                      for c in codes
                      if os.path.dirname(os.path.realpath(c.co_filename))
                      == src})
    Path(out).write_text(json.dumps({"reached": reached,
                                     "failed": failures.ids,
                                     "status": int(status)}))


def report(title: str, keys, funcs) -> None:
    rows = sorted(keys)
    lines = sum(funcs[k][1] for k in rows)
    print(f"\n{title}: {len(rows)} functions, {lines} lines")
    for module, first in rows:
        name, count = funcs[module, first]
        print(f"  {module[:-3]}.{name}  ({count} lines)")


def main() -> None:
    funcs = functions()
    total = sum(count for _, count in funcs.values())
    print(f"src/twintree: {len(funcs)} functions, {total} function lines")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    reached = []
    for title, paths in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "reach.json"
            subprocess.run([sys.executable, __file__, "--record", str(out),
                            *paths], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=False)
            data = json.loads(out.read_text())
        reached.append({tuple(k) for k in data["reached"]} & funcs.keys())
        print(f"{title} ({' '.join(paths)}): pytest exit status "
              f"{data['status']}, {len(data['failed'])} failed, "
              f"{len(reached[-1])} functions reached")
        for nodeid in data["failed"]:
            print(f"  failed: {nodeid}")
    cli, acceptance, every, tools = reached
    report("reached by the acceptance criteria but by no CLI test",
           acceptance - cli, funcs)
    report("reached by the benchmark or the calibration tool but by no "
           "acceptance criterion", tools - acceptance, funcs)
    report("reached only by the unit tests", every - acceptance - tools,
           funcs)
    report("reached by no test", funcs.keys() - every - tools, funcs)


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--record":
        record(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 1:
        main()
    else:
        sys.exit(__doc__)
