"""Mutation check of ``harness.read_sweep``: does a test notice each of its
comparisons changed?

Swaps one comparison operator at a time inside ``read_sweep`` (``<`` with
``<=``, ``>`` with ``>=``, ``==`` with ``!=``, each way round), writes the
changed module into a copy of ``src`` and ``tests``, and runs the fast
harness tests there in a child process capped at 2 GiB of address space
and 120 s.  A mutant is killed when that run fails or hits a cap, and
survives when it passes.  Prints each mutant by line, then the score.
The unchanged module, written the same way, must pass first.

Run from anywhere, one child at a time, never as part of the test suite
(it takes minutes, and pytest does not collect it):

    python tests/mutants.py
"""

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = Path("src/softgap/harness.py")
FUNCTION = "read_sweep"
COMMAND = [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q",
           "-p", "no:cacheprovider", "tests/test_harness.py"]
MEMORY_BYTES = 2 * 1024 ** 3
TIMEOUT_S = 120
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!="}


def comparisons(tree):
    """(Compare node, operator index) of each swappable operator in
    FUNCTION, in source order."""
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == FUNCTION)
    found = [(node, i) for node in ast.walk(func) if isinstance(node, ast.Compare)
             for i, op in enumerate(node.ops) if type(op) in SWAP]
    return sorted(found, key=lambda t: (t[0].lineno, t[0].col_offset, t[1]))


def mutant(source, k):
    """The module with comparison k swapped (None: unchanged), as source
    text, and the line and the swap it made."""
    tree = ast.parse(source)
    if k is None:
        return ast.unparse(tree), None, "none"
    node, i = comparisons(tree)[k]
    old = type(node.ops[i])
    node.ops[i] = SWAP[old]()
    return ast.unparse(tree), node.lineno, f"{SYMBOL[old]} -> {SYMBOL[SWAP[old]]}"


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def passes(copy):
    """Whether the tests pass in ``copy``; a run past either cap fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every mutant is compiled afresh
    child = subprocess.Popen(COMMAND, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, preexec_fn=_cap_memory,
                             start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # pool workers too
        child.wait()
        return False


def main():
    source = (ROOT / MODULE).read_text(encoding="utf-8")
    count = len(comparisons(ast.parse(source)))
    killed = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for k in [None, *range(count)]:
            text, line, swap = mutant(source, k)
            (copy / MODULE).write_text(text, encoding="utf-8")
            ok = passes(copy)
            if k is None:
                if not ok:
                    sys.exit(f"the unchanged {MODULE} fails {' '.join(COMMAND[1:])}")
                continue
            killed.append(not ok)
            print(f"{MODULE}:{line}  {swap:<9} {'killed' if not ok else 'SURVIVED'}",
                  flush=True)
    print(f"{FUNCTION}: {sum(killed)} of {count} mutants killed")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main())
