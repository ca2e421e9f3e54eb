"""Mutation gate for the certificate checker in ``src/cishift/certificates.py``
and for the split search in ``src/cishift/delorme.py``.

Each mutant is one single-point change to a target function: a comparison
swapped with its partner (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
``!=``, ``is`` and ``is not``, ``in`` and ``not in``), one operand dropped
from an ``and``, one ``not`` removed, or one integer constant moved by +1 or
-1 (decorator arguments included).  For each mutant the package is copied to
a temporary directory with the mutated module, and the tests that guard the
targets run against it.  RUNS lists the two runs, each a module, its target
functions, the ``-k`` selection within tests/test_delorme.py and its
allowlist:

    checker  verify_certificate and the parser helpers;
             -k "Verifier or Serialization or Malformed"
    search   _iter_splits and _indices;
             -k "EnumerateSplits or Bipartitions or Decision"

A mutant survives when those tests still pass.  The run's allowlist names
the survivors that are equivalent to the target, each with the reason; any
other survivor makes the tool exit 1.  It exits 2 when the unmutated module,
written back from its syntax tree, already fails the tests.  A mutant takes
about 2.5-5 s on one core: the 68 checker mutants about 3 minutes, the 17
search mutants under 2; the tool is not part of the test suite.

Usage (from the root of a source checkout):

    python3 tools/mutate_checker.py            # the checker run
    python3 tools/mutate_checker.py search
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests" / "test_delorme.py"
TIMEOUT_S = 300

# equivalent mutants of each run, by the label this tool prints, with the
# reason each cannot change a result
_CHECKER_ALLOWLIST = {
    "_verify: drop `k1 >= 1`":
        "every node's entries are positive, so a non-empty left side forces k1 != 0,"
        " and k1 < 0 makes left_reduced negative, where the k2 witness sums to at"
        " most 0 against k2 >= 1",
    "_verify: drop `k2 >= 1`":
        "the mirror case: k2 < 0 makes right_reduced negative, and the k1 witness"
        " then sums to at most 0 against k1 >= 1",
    "_verify: `k1 >= 1` -> `k1 >= 0`":
        "k1 = 0 makes the non-empty left side's entries 0, and every entry is positive",
    "_verify: `k2 >= 1` -> `k2 >= 0`":
        "k2 = 0 makes the non-empty right side's entries 0, and every entry is positive",
    "_verify: drop `gcd(k1, k2) == 1`":
        "a common divisor of k1 and k2 divides every entry of the node, whose"
        " entries have gcd 1: the top is normalized, and gcd(left_reduced) divides"
        " k2 through its witness, so it divides every entry too (likewise right)",
    "_verify: drop `0 < len(left) < len(entries)`":
        "the partition check still holds, so it only forbids an empty side, whose"
        " reduced form is empty; the other side's witness over it sums to 0,"
        " which k1 >= 1 and k2 >= 1 forbid",
    "_verify: `0 < len(left) < len(entries)` -> `0 <= len(left) < len(entries)`":
        "lets through an empty left side only, refused as in the line above",
    "_verify: `0 < len(left) < len(entries)` -> `0 < len(left) <= len(entries)`":
        "lets through an empty right side only, refused as in the line above",
    "_verify: `0 < len(left) < len(entries)` -> `-1 < len(left) < len(entries)`":
        "the same as 0 <= len(left): an empty left side only, refused as above",
    "_is_witness: `min(coeffs, default=0)` -> `min(coeffs, default=1)`":
        "the default is read only for an empty witness, and 1 >= 0 as 0 >= 0",
    "_is_witness: `min(coeffs, default=0)` -> `min(coeffs, default=-1)`":
        "an empty witness lies over an empty reduced side, which _verify refuses"
        " first by 0 < len(left) < len(entries) and the partition check",
    "verify_certificate: `d != 1` -> `d != 0`":
        "the gcd of positive entries is never 0, and dividing by a gcd of 1"
        " yields the same entries; the test only skips that copy",
}
_SEARCH_ALLOWLIST = {
    "_indices: `lru_cache(maxsize=4096)` -> `lru_cache(maxsize=4097)`":
        "the cache size bounds memory only; every mask maps to the same tuple",
    "_indices: `lru_cache(maxsize=4096)` -> `lru_cache(maxsize=4095)`":
        "the cache size bounds memory only; every mask maps to the same tuple",
    "_iter_splits: `range(1, full)` -> `range(0, full)`":
        "mask 0 has gcd 0, so gl * gr = 0 is below every entry and the"
        " bipartition is skipped before its indices are read",
}
# run name -> (module, target functions, -k selection, allowlist)
RUNS = {
    "checker": (
        ROOT / "src" / "cishift" / "certificates.py",
        ("verify_certificate", "_verify", "_is_witness", "_is_increasing",
         "_int_field", "_ints_field", "_side_field", "_from_dict"),
        "Verifier or Serialization or Malformed",
        _CHECKER_ALLOWLIST,
    ),
    "search": (
        ROOT / "src" / "cishift" / "delorme.py",
        ("_iter_splits", "_indices"),
        "EnumerateSplits or Bipartitions or Decision",
        _SEARCH_ALLOWLIST,
    ),
}

_PARTNER = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
# an integer constant is labelled by the smallest of these around it, or
# else by its statement
_CONTEXT = (ast.Compare, ast.Call, ast.Subscript, ast.BinOp, ast.UnaryOp, ast.stmt)


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _sites(func: ast.FunctionDef) -> list[tuple[int, str]]:
    """(node index in ast.walk order, change) for every mutation of func."""
    sites = []
    for i, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            sites += [(i, f"op{j}") for j, op in enumerate(node.ops) if type(op) in _PARTNER]
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            sites += [(i, f"drop{j}") for j in range(len(node.values))]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            sites.append((i, "not"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites += [(i, "+1"), (i, "-1")]
    return sites


def _context(node: ast.AST, parents: dict) -> ast.AST:
    while not isinstance(node, _CONTEXT) and node in parents:
        node = parents[node]
    return node


def _replace(parents: dict, node: ast.AST, new: ast.AST) -> None:
    parent = parents[node]
    for field, value in ast.iter_fields(parent):
        if value is node:
            setattr(parent, field, new)
        elif isinstance(value, list) and node in value:
            value[value.index(node)] = new


def _mutate(source: str, name: str, index: int, change: str) -> tuple[str, str]:
    """The mutated module source and a label for the mutant."""
    tree = ast.parse(source)
    nodes = list(ast.walk(_functions(tree)[name]))
    parents = {child: node for node in nodes for child in ast.iter_child_nodes(node)}
    node = nodes[index]
    if change.startswith("drop"):
        dropped = node.values.pop(int(change[4:]))
        if len(node.values) == 1:
            _replace(parents, node, node.values[0])
        return ast.unparse(tree), f"{name}: drop `{ast.unparse(dropped)}`"
    if change == "not":
        label = f"{name}: drop not in `{ast.unparse(node)}`"
        _replace(parents, node, node.operand)
        return ast.unparse(tree), label
    target = node if change.startswith("op") else _context(node, parents)
    before = ast.unparse(target)
    if change.startswith("op"):
        j = int(change[2:])
        node.ops[j] = _PARTNER[type(node.ops[j])]()
    else:
        node.value += int(change)
    return ast.unparse(tree), f"{name}: `{before}` -> `{ast.unparse(target)}`"


def _passes(module: Path, module_source: str, select: str) -> bool | None:
    """True when the selected tests pass on a copy with this module source,
    False when they fail, None when they run past TIMEOUT_S."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src" / "cishift", work / "src" / "cishift",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (work / module.relative_to(ROOT)).write_text(module_source)
        (work / "tests").mkdir()
        shutil.copy(TESTS, work / "tests" / TESTS.name)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", f"tests/{TESTS.name}", "-k", select]
        try:
            done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1 or args and args[0] not in RUNS:
        print(f"usage: mutate_checker.py [{' | '.join(RUNS)}]", file=sys.stderr)
        return 2
    module, targets, select, allowlist = RUNS[args[0] if args else "checker"]
    source = module.read_text()
    tree = ast.parse(source)
    functions = _functions(tree)
    if not _passes(module, ast.unparse(tree), select):
        print("the unmutated module fails the selected tests", file=sys.stderr)
        return 2
    survivors, seen = [], {}
    for name in targets:
        for index, change in _sites(functions[name]):
            mutated, label = _mutate(source, name, index, change)
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label += f" (#{seen[label]})"
            result = _passes(module, mutated, select)
            verdict = {True: "SURVIVED", False: "killed", None: "killed (timeout)"}[result]
            if result and label in allowlist:
                verdict = "survived, allowlisted"
            elif result:
                survivors.append(label)
            print(f"{verdict:22} {label}", flush=True)
    for label in sorted(allowlist.keys() - seen):
        print(f"note: allowlisted mutant no longer generated: {label}")
    print(f"{sum(seen.values())} mutants, {len(survivors)} unexplained survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
