"""Mutation check of one target: does a test notice each comparison in
its functions changed?

A target is a module, the functions in it to mutate and the test file
that should notice:

    reader   ``harness.read_sweep`` and the header value parsers it calls,
             against tests/test_harness.py
    sampler  ``sampling._skip_table``, ``_skip_plan`` and ``_flipped``,
             against tests/test_sampling.py
    decoder  ``decoder.decode`` (its nested ``push`` and ``set_activity``
             included) and ``_union_meta``, against tests/test_decoder.py
    softout  ``softout.cluster_gaps``, ``grow_clusters``, ``_bottleneck``,
             ``_extra``, ``_covered_distance`` and ``extra_gaps``, against
             tests/test_softout.py
    config   ``harness._is_a`` and ``SweepConfig.validate``, against
             tests/test_harness.py

Swaps one comparison operator at a time inside those functions (``<`` with
``<=``, ``>`` with ``>=``, ``==`` with ``!=``, ``in`` with ``not in`` and
``is`` with ``is not``, each way round), writes the
changed module into a copy of ``src`` and ``tests``, and runs the target's
fast tests there in a child process capped at 2 GiB of address space
and 120 s.  A mutant is killed when that run fails or hits a cap, and
survives when it passes.  Prints each mutant by line, then the score.
The unchanged module, written the same way, must pass first.

Run from anywhere, one child at a time, never as part of the test suite
(it takes minutes, and pytest does not collect it):

    python tests/mutants.py [reader|sampler|decoder|softout|config]

The copy goes in a temporary directory, under ``TMPDIR`` when it is set.
"""

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Target(NamedTuple):
    module: Path
    functions: tuple
    tests: str


TARGETS = {
    "reader": Target(Path("src/softgap/harness.py"),
                     ("read_sweep", "_int_or_none", "_true_or_false"), "tests/test_harness.py"),
    "sampler": Target(Path("src/softgap/sampling.py"),
                      ("_skip_table", "_skip_plan", "_flipped"), "tests/test_sampling.py"),
    "decoder": Target(Path("src/softgap/decoder.py"),
                      ("decode", "_union_meta"), "tests/test_decoder.py"),
    "softout": Target(Path("src/softgap/softout.py"),
                      ("cluster_gaps", "grow_clusters", "_bottleneck", "_extra",
                       "_covered_distance", "extra_gaps"), "tests/test_softout.py"),
    "config": Target(Path("src/softgap/harness.py"),
                     ("_is_a", "validate"), "tests/test_harness.py"),
}
MEMORY_BYTES = 2 * 1024 ** 3
TIMEOUT_S = 120
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in",
          ast.Is: "is", ast.IsNot: "is not"}


def comparisons(tree, functions):
    """(Compare node, operator index) of each swappable operator in
    ``functions``, in source order."""
    funcs = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name in functions]
    found = [(node, i) for func in funcs for node in ast.walk(func)
             if isinstance(node, ast.Compare)
             for i, op in enumerate(node.ops) if type(op) in SWAP]
    return sorted(found, key=lambda t: (t[0].lineno, t[0].col_offset, t[1]))


def mutant(source, functions, k):
    """The module with comparison k swapped (None: unchanged), as source
    text, and the line and the swap it made."""
    tree = ast.parse(source)
    if k is None:
        return ast.unparse(tree), None, "none"
    node, i = comparisons(tree, functions)[k]
    old = type(node.ops[i])
    node.ops[i] = SWAP[old]()
    return ast.unparse(tree), node.lineno, f"{SYMBOL[old]} -> {SYMBOL[SWAP[old]]}"


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def passes(copy, command):
    """Whether the tests pass in ``copy``; a run past either cap fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every mutant is compiled afresh
    child = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, preexec_fn=_cap_memory,
                             start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # pool workers too
        child.wait()
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("target", nargs="?", default="reader", choices=sorted(TARGETS))
    target = TARGETS[ap.parse_args().target]
    command = [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q",
               "-p", "no:cacheprovider", target.tests]
    source = (ROOT / target.module).read_text(encoding="utf-8")
    count = len(comparisons(ast.parse(source), target.functions))
    killed = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for k in [None, *range(count)]:
            text, line, swap = mutant(source, target.functions, k)
            (copy / target.module).write_text(text, encoding="utf-8")
            ok = passes(copy, command)
            if k is None:
                if not ok:
                    sys.exit(f"the unchanged {target.module} fails {' '.join(command[1:])}")
                continue
            killed.append(not ok)
            print(f"{target.module}:{line}  {swap:<16} {'killed' if not ok else 'SURVIVED'}",
                  flush=True)
    print(f"{', '.join(target.functions)}: {sum(killed)} of {count} mutants killed")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main())
