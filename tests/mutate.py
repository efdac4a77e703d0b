#!/usr/bin/env python3
"""Mutation check of the signed terms of `fmanlin.fman`.

Every residual map of `fman`, its helpers and the integrability oracle
`hm_tensor` write a term as a ``(key, sign, value)`` tuple that
`tensor._merged` sums (the derivative bracket passes the sign to its `add`
closure).  This script enumerates two kinds of mutant, each at one sign:

- ``flip``: negate the sign (``1`` becomes ``-1``, ``-sign`` becomes ``sign``);
- ``drop``: make the sign ``0``, which `_merged` sums as no term at all.

Each mutant is written, one at a time, into a scratch copy of the checkout
(whole, as some tests read the README and the models), and the test modules
that import `fman` run against it with ``pytest -x``.  A mutant that passes
them (a survivor) then runs against the whole suite.  Survivors that are
equivalent mutants are listed in ``EXPLAINED`` with the algebra that makes
them so; any other survivor is a gap in the tests.  Mutants run one after
another, each in its own pytest process.

Run from the root of a checkout (it takes several minutes)::

    python3 tests/mutate.py [--scratch DIR] [--list]

``--list`` prints the mutants without running them.  The exit status is 1
when a survivor is not explained.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path("src") / "fmanlin" / "fman.py"
# the functions whose terms are mutated: every residual map, the helpers
# that write terms for them, the oracle and the base product
HELPERS = ("_swap_difference", "_unit_action", "_euler_transport", "_lam_terms")
OTHERS = ("hm_tensor", "star_product")
IMPORTS_FMAN = re.compile(r"fmanlin\.fman\b|from fmanlin import [^\n]*\bfman\b")

# (function, site number within it, kind) -> why the mutant is equivalent
EXPLAINED: dict = {}


def targets(tree: ast.Module) -> list:
    """The top-level functions of `fman` whose terms are mutated."""
    names = set(HELPERS + OTHERS)
    return [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (node.name.startswith("_map_") or node.name in names)
    ]


def _is_sign(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant) and node.value == 1) or (
        isinstance(node, ast.Name) and node.id == "sign"
    )


def sign_sites(fn: ast.FunctionDef) -> list:
    """The sign nodes of ``fn``, in source order: the middle entry of each
    ``(key, sign, value)`` tuple and the sign argument of each `add` call."""
    sites = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Tuple) and len(node.elts) == 3 and _is_sign(node.elts[1]):
            sites.append(node.elts[1])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "add"
            and len(node.args) == 8
        ):
            sites.append(node.args[6])
    return sorted(sites, key=lambda n: (n.lineno, n.col_offset))


def mutants(text: str) -> list:
    """``(function, site number, kind, line, mutated source)`` for every mutant."""
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    out = []
    for fn in targets(ast.parse(text)):
        for number, node in enumerate(sign_sites(fn)):
            begin = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            old = text[begin:end]
            flipped = old[1:] if old.startswith("-") else f"-{old}"
            for kind, new in (("flip", flipped), ("drop", "0")):
                out.append((fn.name, number, kind, node.lineno, text[:begin] + new + text[end:]))
    return out


def run_pytest(copy: Path, modules: list) -> bool:
    """Whether the test ``modules`` of the scratch ``copy`` pass."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *modules]
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    return subprocess.run(cmd, cwd=copy, env=env, **quiet).returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scratch", type=Path, help="where to make the copy")
    parser.add_argument("--list", action="store_true", help="print the mutants and stop")
    args = parser.parse_args(argv)

    text = (ROOT / SOURCE).read_text(encoding="utf-8")
    found = mutants(text)
    if args.list:
        for name, number, kind, line, _ in found:
            print(f"{name} #{number} {kind} (line {line})")
        print(f"{len(found)} mutants")
        return 0

    copy = Path(tempfile.mkdtemp(dir=args.scratch)) / "copy"
    skipped = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
    shutil.copytree(ROOT, copy, ignore=skipped)
    tests = sorted((copy / "tests").glob("test_*.py"))
    importing = [p for p in tests if IMPORTS_FMAN.search(p.read_text(encoding="utf-8"))]
    importing.sort(key=lambda p: p.name != "test_fman.py")  # the fastest killer first
    modules = [str(p.relative_to(copy)) for p in importing]
    if not run_pytest(copy, modules):
        print("the unmutated copy fails its tests", file=sys.stderr)
        return 2

    killed, survivors = 0, []
    try:
        for name, number, kind, line, source in found:
            (copy / SOURCE).write_text(source, encoding="utf-8")
            if not run_pytest(copy, modules) or not run_pytest(copy, ["tests"]):
                killed += 1
                continue
            survivors.append((name, number, kind, line))
            reason = EXPLAINED.get((name, number, kind), "NOT EXPLAINED")
            print(f"survivor: {name} #{number} {kind} (line {line}): {reason}", flush=True)
    finally:
        (copy / SOURCE).write_text(text, encoding="utf-8")
    unexplained = [s for s in survivors if s[:3] not in EXPLAINED]
    print(
        f"{len(found)} mutants: {killed} killed, {len(survivors)} survived, "
        f"{len(unexplained)} unexplained"
    )
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
