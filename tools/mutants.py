"""Measure what tier-1 would miss: the kill rate of a seeded sample of single-node mutants of ``src/tricoh``.

A mutant changes one node of one module's syntax tree: a comparison operator
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
``in`` and ``not in`` swap), an arithmetic operator (``+`` and ``-``, ``*``
and ``/`` swap; ``//`` and ``**`` become ``*``), a boolean operator (``and``
and ``or`` swap) or a numeric constant (an integer n becomes n + 1, a float x
becomes 2x, and 0.0 becomes 1.0). Every such site of the package is listed in
a fixed order, and ``COUNT`` of them are drawn with ``SEED``, so the same tree
always gives the same sample.

Each module is written back from its tree (``ast.unparse``), which drops
comments and formatting, so the tree without a mutation is run first: if
tier-1 fails on it, no mutant is run. Each mutant then runs tier-1 with
``-x`` in a temporary copy of the checkout, two at a time. A mutant is
killed when tier-1 fails or runs past its time limit; it survives when
tier-1 passes. This prints the kill rate, then each survivor with its file,
line and change. Run from the root of a checkout; it needs the standard
library and the test dependencies, and takes several minutes:

    python tools/mutants.py

It is not part of tier-1.
"""

import argparse
import ast
from concurrent.futures import ThreadPoolExecutor
import os
from pathlib import Path
import queue
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "tricoh"
WORKERS = 2
SEED = 24
COUNT = 60

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BINOP_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Mult,
               ast.Pow: ast.Mult}
BOOLOP_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


def _sites(tree):
    """Each mutable site of a tree as ``(node position in ast.walk order, operand position)``."""
    for k, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            yield from ((k, i) for i, op in enumerate(node.ops) if type(op) in COMPARE_SWAPS)
        elif isinstance(node, ast.BinOp) and type(node.op) in BINOP_SWAPS:
            yield k, 0
        elif isinstance(node, ast.BoolOp):
            yield k, 0
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            yield k, 0


def _mutate(node, i):
    """Apply the site's mutation to ``node`` in place."""
    if isinstance(node, ast.Compare):
        node.ops[i] = COMPARE_SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.BinOp):
        node.op = BINOP_SWAPS[type(node.op)]()
    elif isinstance(node, ast.BoolOp):
        node.op = BOOLOP_SWAPS[type(node.op)]()
    elif type(node.value) is int:
        node.value += 1
    else:
        node.value = node.value * 2 if node.value else 1.0


def mutant(path, site):
    """``(source, line, change)`` of the module at ``path`` with the mutation at ``site``."""
    tree = ast.parse(path.read_text())
    k, i = site
    node = next(n for j, n in enumerate(ast.walk(tree)) if j == k)
    before = ast.unparse(node)
    _mutate(node, i)
    return ast.unparse(tree), node.lineno, f"{before} -> {ast.unparse(node)}"


def sample():
    """``COUNT`` sites ``(module path relative to the root, site)``, drawn with ``SEED`` from the package's sites."""
    sites = [(path.relative_to(ROOT), site) for path in sorted((ROOT / PACKAGE).glob("*.py"))
             for site in _sites(ast.parse(path.read_text()))]
    return random.Random(SEED).sample(sites, min(COUNT, len(sites)))


def unparsed_copy(directory):
    """A copy of the checkout in ``directory`` whose package modules are written back from their trees."""
    shutil.copytree(ROOT, directory, ignore=shutil.ignore_patterns(".*", "__pycache__", "*.egg-info"))
    for path in (directory / PACKAGE).glob("*.py"):
        path.write_text(ast.unparse(ast.parse(path.read_text())) + "\n")
    return directory


def tier1(tree, timeout=None):
    """Exit code and last output line of tier-1 with ``-x`` in ``tree``; ``None`` for the code on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    try:
        result = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = (result.stdout.strip() or result.stderr.strip() or "no output").splitlines()
    return result.returncode, lines[-1].strip("= ")


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    mutants = sample()
    with tempfile.TemporaryDirectory() as work:
        copies = queue.Queue()
        for k in range(WORKERS):
            copies.put(unparsed_copy(Path(work) / f"copy{k}"))
        baseline = copies.get()
        start = time.perf_counter()
        code, summary = tier1(baseline)
        elapsed = time.perf_counter() - start
        copies.put(baseline)
        print(f"unmutated unparsed tree: {summary}")
        if code != 0:
            sys.exit("tier-1 fails on the unmutated unparsed tree, so no mutant is run")

        def run(job):
            rel, site = job
            source, line, change = mutant(ROOT / rel, site)
            tree = copies.get()
            target = tree / rel
            clean = target.read_text()
            try:
                target.write_text(source)
                code, summary = tier1(tree, timeout=5 * elapsed + 60)
            finally:
                target.write_text(clean)
                copies.put(tree)
            verdict = "survived" if code == 0 else "killed"
            print(f"{verdict}: {rel}:{line}: {change} ({summary})", flush=True)
            return verdict, f"{rel}:{line}: {change}"

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(run, mutants))
    survivors = [where for verdict, where in results if verdict == "survived"]
    killed = len(results) - len(survivors)
    print(f"killed {killed} of {len(results)} mutants ({100 * killed / len(results):.0f}%), seed {SEED}")
    for where in survivors:
        print(f"  survivor: {where}")


if __name__ == "__main__":
    main()
