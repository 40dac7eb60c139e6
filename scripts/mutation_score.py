#!/usr/bin/env python3
"""Mutation score of named functions under a pytest subset.

Every `+` and `-` operator (binary or augmented) inside the named
functions, their nested functions and lambdas included, is flipped to the
other, one mutant at a time, in a temporary copy of the source tree; the
test subset then runs on each mutant with the copy first on the path.  A
mutant that the subset passes is a survivor.

    python scripts/mutation_score.py solgeo/zerocurv.py zc_residual \\
        --tests tests/test_zerocurv.py tests/test_acceptance.py \\
        --out survivors.json

MODULE is a path under --src (default: this repository's src/), and a
function is named by its qualified name (`Class.method` for a method).
The unmutated copy must pass the subset first, and a run over TIMEOUT_S
counts as killed.  The JSON gives the site and killed counts and one
record per survivor.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLIP = {"+": "-", "-": "+", "+=": "-=", "-=": "+="}
TIMEOUT_S = 600


def _functions(tree, names):
    """The function nodes of tree whose qualified names are in names."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                if qual in names and not isinstance(child, ast.ClassDef):
                    found[qual] = child
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    missing = [n for n in names if n not in found]
    if missing:
        raise SystemExit(f"mutation_score: no function {missing}")
    return found


def sites(source, names):
    """(function, line, column, operator) of every `+`/`-` token in the
    named functions, with str columns as tokenize counts them."""
    tree = ast.parse(source)
    lines = source.splitlines()
    ops = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in FLIP:
            ops[tok.start] = tok.string

    def char_pos(line, byte_col):
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    out = []
    for name, fn in _functions(tree, names).items():
        for node in ast.walk(fn):
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.Add, ast.Sub))):
                left, right = node.left, node.right
            elif (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub))):
                left, right = node.target, node.value
            else:
                continue
            lo = char_pos(left.end_lineno, left.end_col_offset)
            hi = char_pos(right.lineno, right.col_offset)
            pos = [p for p in ops if lo <= p < hi]
            if len(pos) != 1:
                raise SystemExit(f"mutation_score: no single operator "
                                 f"between {lo} and {hi}")
            out.append((name, *pos[0], ops[pos[0]]))
    return sorted(set(out), key=lambda s: s[1:3])


def mutate(source, line, col, op):
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(op)] == op, (line, col, op)
    lines[line - 1] = text[:col] + FLIP[op] + text[col + len(op):]
    return "".join(lines)


def run_tests(src, tests):
    """True if the pytest subset passes with src first on the path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def score(src, module, names, tests):
    with open(os.path.join(src, module)) as fh:
        original = fh.read()
    found = sites(original, names)
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = os.path.join(tmp, "src")
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        if not run_tests(copy, tests):
            raise SystemExit("mutation_score: the unmutated copy fails the "
                             "test subset")
        target = os.path.join(copy, module)
        survivors = []
        for i, (name, line, col, op) in enumerate(found, 1):
            with open(target, "w") as fh:
                fh.write(mutate(original, line, col, op))
            start = time.perf_counter()
            passed = run_tests(copy, tests)
            print(f"{i}/{len(found)} {module}:{line}:{col} {op} -> {FLIP[op]}"
                  f" {'SURVIVED' if passed else 'killed'} "
                  f"({time.perf_counter() - start:.1f} s)", file=sys.stderr)
            if passed:
                survivors.append({
                    "function": name, "line": line, "col": col, "op": op,
                    "to": FLIP[op],
                    "code": original.splitlines()[line - 1].strip()})
    return {"module": module, "functions": list(names), "tests": list(tests),
            "sites": len(found), "killed": len(found) - len(survivors),
            "survivors": survivors}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="module path under --src")
    ap.add_argument("functions", nargs="+", help="qualified function names")
    ap.add_argument("--tests", nargs="+", required=True,
                    help="pytest arguments selecting the subset")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--out", help="JSON path (default: stdout)")
    args = ap.parse_args(argv)
    result = score(os.path.abspath(args.src), args.module, args.functions,
                   args.tests)
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
