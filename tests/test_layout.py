"""The runtime keeps only what it runs: each function, class and method of
`src/hellykit` is used by the package (`unused`), or KEPT says why it stays."""

import ast
import importlib
from pathlib import Path

import hellykit

TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(Path(hellykit.__file__).parent.glob("*.py"))}

KEPT = {
    # references that tests check runtime code against
    "graphs.Graph.d": "one hop distance, the metric most tests assert on",
    "graphs.Graph.diameter": "bounds the box of the brute-force extremal oracle",
    "graphs.Graph.rows": "the hop metric as rows, for the Hausdorff and thin/slim tests",
    "groups.GroupSpec.d_rel": "the pairwise distance rel_row is checked against",
    "groups.GroupSpec.validate": "checks the normal form of every test_groups product",
    "groups._FiniteFactorBase.elements": "test_groups scans near over every element",
    "gamma.GammaBall.geodesics_between": "aim-3 oracle: enumeration against DP count",
    "gamma.GammaBall.count_geodesics": "aim-3 oracle: DP count against enumeration",
    "gamma.GammaBall.penetration_profile": "test_derived checks derive against it",
    # library API
    "gamma.GammaBall.window_distance": "tracing.py wraps it through GammaWindow",
    "reports.render": "perfbench/tracing.py wraps it",
    # inputs of the tests and the benchmark
    "corpus.standard_corpus": "the graphs of acceptance criterion 4",
    "corpus.group_z2_z3": "a perfbench example group",
    "corpus.group_z2_z2": "a perfbench example group",
    "corpus.group_zsq_z2": "a perfbench example group",
}


def unused(trees, kept):
    """Definitions named only in their own body, __init__.py or other unused
    ones, less kept.  Top-level names count as a loaded Name or an attribute of
    an imported name (`helly.analyze`), methods as any Attribute."""
    defs, uses = {}, {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = (mod, node)
            if isinstance(node, ast.ClassDef):
                defs.update((f"{mod}.{node.name}.{item.name}", (mod, item))
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__"))
        if mod == "__init__":
            continue
        imported = {a.asname or a.name for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault((False, node.id), []).append((mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault((True, node.attr), []).append((mod, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in imported:
                    uses.setdefault((False, node.attr), []).append((mod, node.lineno))

    def inside(use, where):
        return any(use[0] == m and n.lineno <= use[1] <= n.end_lineno for m, n in where)

    dead = set()
    while True:
        spans = [defs[key] for key in dead]
        found = {key for key, (mod, node) in defs.items() if key not in kept
                 and all(inside(use, [(mod, node)]) or inside(use, spans)
                         for use in uses.get((key.count(".") == 2, node.name), []))}
        if found == dead:
            return sorted(dead)
        dead = found


def test_every_definition_is_used_or_kept():
    assert unused(TREES, KEPT) == []
    assert set(KEPT) <= set(unused(TREES, {}))  # no entry outlives its reason


def test_init_imports_exist():
    for node in TREES["__init__"].body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"hellykit.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_no_module_imports_warnings():
    # bounded searches raise past their bound and are silent within it, so
    # no caller has to swap the process-wide warning filters
    def imported(tree):
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                yield from (a.name for a in n.names)
            elif isinstance(n, ast.ImportFrom):
                yield n.module

    assert [mod for mod, tree in TREES.items() if "warnings" in imported(tree)] == []
