"""The runtime keeps only what it runs: each function, class and method of
`src/hellykit` is used by the package (`unused`), or KEPT says why it stays;
and an import loads only the modules it names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hellykit

TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(Path(hellykit.__file__).parent.glob("*.py"))}

KEPT = {
    # references that tests check runtime code against
    "gamma.GammaBall.geodesics_between": "aim-3 oracle: enumeration against DP count",
    "gamma.GammaBall.count_geodesics": "aim-3 oracle: DP count against enumeration",
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
    """Definitions named only in their own body or other unused ones, less
    kept.  Top-level names count as a loaded Name or an attribute of
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


def loaded_by(statement):
    """The modules a fresh interpreter loads for `statement`, beyond those it
    had loaded before it: site hooks differ between machines."""
    script = ("import json, sys; before = set(sys.modules); " + statement +
              "; print(json.dumps(sorted(set(sys.modules) - before)))")
    src = str(Path(hellykit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


def test_cold_import_loads_only_what_it_names():
    # the package root re-exports nothing, and corpus, which the benchmark's
    # set-up imports, pulls in neither dataclasses nor fractions
    assert {m for m in loaded_by("import hellykit")
            if m.startswith("hellykit.")} == set()
    corpus = loaded_by("from hellykit import corpus")
    assert {m for m in corpus if m.startswith("hellykit.")} == {
        "hellykit.corpus", "hellykit.graphs", "hellykit.groups"}
    assert not corpus & {"dataclasses", "fractions"}


def test_cli_reads_its_flags_without_argparse(tmp_path):
    # the flag table is read by hand: importing the CLI loads neither argparse
    # nor the gettext and locale of its first use, and a run after the
    # import loads no module at all
    graph = tmp_path / "c4.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    imported = loaded_by("import hellykit.cli")
    assert not imported & {"argparse", "gettext", "locale"}
    run = (f"import hellykit.cli; hellykit.cli.main(['analyze', {str(graph)!r}, "
           f"'--out', {str(tmp_path / 'a.json')!r}])")
    assert loaded_by(run) == imported
    assert (tmp_path / "a.json").exists()


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
