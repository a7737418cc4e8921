"""Every definition in `src/npverify` has a program path.

A top-level function or class of a package module, private ones
included, or a method or property of such a class other than a dunder
counts as reached when `src/npverify` or `perfbench` names it outside
its own definition: as a variable, as an attribute, or as an
identifier string (the names `perfbench/spans.py` binds by string).
The tests do not count, and neither does a name used inside a
definition that is itself unreached or allowed.  A definition that
nothing names is dead code: give it a program path, or delete it with
the tests that check only it.

A field of a dataclass or NamedTuple counts as read when `src/npverify`
or `perfbench` names it as an attribute or as an identifier string
anywhere; a variable or a keyword argument of the same name does not
count.  A field that nothing reads is state kept for the tests alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "cnf.rule_assignment":
        "test reference: encodes a known rule as a model of its formula",
    "collapse.collapse_profile":
        "test reference: the one-profile form of collapse_rule",
    "profiles.variants":
        "test reference: the per-profile form of variant_pairs",
    "rules.dump_rule":
        "test reference: round-trips with load_rule",
    "verify.build_list_part1":
        "waits on the scenario explain output (ROADMAP item 6)",
    "verify.enumerate_models":
        "waits on scenario models (ROADMAP item 9)",
    "strategyproof.forced_value_propagation":
        "waits on propagation-seeded encodings (ROADMAP item 4)",
    "strategyproof.PropagationResult":
        "built only by forced_value_propagation (ROADMAP item 4)",
    "strategyproof.PropagationResult.forced":
        "waits on propagation-seeded encodings (ROADMAP item 4)",
    "solver.Session.add_clause":
        "reached only from verify.enumerate_models (ROADMAP item 9)",
    "satcore.Solver.add_clause":
        "reached only from verify.enumerate_models (ROADMAP item 9)",
}

ALLOWED_FIELDS = {
    "strategyproof.PropagationResult.contradiction":
        "waits on propagation-seeded encodings (ROADMAP item 4)",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each checked
    definition."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _fields(module: str, tree: ast.Module):
    """(qualified name, bare name) of each field of a top-level dataclass
    or NamedTuple class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d
                 for d in node.decorator_list] + node.bases
        if not {getattr(mark, "id", None) for mark in marks} & {
                "dataclass", "NamedTuple"}:
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                yield (f"{module}.{node.name}.{item.target.id}",
                       item.target.id)


def _references(tree: ast.Module, names: bool = True):
    """(name, line) of every Attribute and identifier string, and of
    every Name unless `names` is false."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if names:
                yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _trees(root: Path):
    """The package's source files, and the parse tree of each package and
    perfbench file."""
    package = sorted((root / "src" / "npverify").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in package + sorted((root / "perfbench").glob("*.py"))}
    return package, trees


def unreached(root: Path = ROOT) -> dict[str, bool]:
    """Each unreferenced definition, mapped to whether it is allowed.  A
    reference made inside an allowed or an unreferenced definition does
    not count, so this is a fixed point: dropping those references can
    leave more definitions unreferenced."""
    package, trees = _trees(root)
    definitions = [(path, *definition) for path in package
                   for definition in _definitions(path.stem, trees[path])]
    references = [(path, name, line) for path, tree in trees.items()
                  for name, line in _references(tree)]
    found: dict[str, bool] = {}
    while True:
        dead = [(path, first, last)
                for path, qualname, _, first, last in definitions
                if qualname in found]
        seen: dict[str, list[tuple[Path, int]]] = {}
        for path, name, line in references:
            if not any(where == path and first <= line <= last
                       for where, first, last in dead):
                seen.setdefault(name, []).append((path, line))
        now = {qualname: qualname in ALLOWED
               for path, qualname, name, first, last in definitions
               if not any(where != path or not first <= line <= last
                          for where, line in seen.get(name, ()))}
        if now == found:
            return found
        found = now


def unread_fields(root: Path = ROOT) -> dict[str, bool]:
    """Each field that nothing reads, mapped to whether it is allowed."""
    package, trees = _trees(root)
    read = {name for tree in trees.values()
            for name, _ in _references(tree, names=False)}
    return {qualname: qualname in ALLOWED_FIELDS
            for path in package
            for qualname, name in _fields(path.stem, trees[path])
            if name not in read}


def test_every_definition_has_a_program_path():
    found = unreached()
    assert sorted(q for q, allowed in found.items() if not allowed) == []
    # An allowed name that gained a caller or was deleted leaves the list.
    assert sorted(set(ALLOWED) - set(found)) == []


def test_every_field_is_read():
    found = unread_fields()
    assert sorted(q for q, allowed in found.items() if not allowed) == []
    # An allowed field that gained a reader or was deleted leaves the list.
    assert sorted(set(ALLOWED_FIELDS) - set(found)) == []
