"""Two lint rules, read from the syntax trees alone: no unused import, and no
top-level name in the package that nothing reads.

A deletion that leaves an import or a helper behind fails here.  A name
counts as read when some module in ``src/`` loads it or an attribute of that
name, when the package exports it (``uowsim._EXPORTS``), or when the
benchmark's tracer rebinds it (``perfbench/tracing.py``'s ``WRAPS``).
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "uowsim"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _sources(*dirs: Path):
    for directory in dirs:
        yield from sorted(directory.rglob("*.py"))


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the tree loads, and every attribute name it reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _imported(tree: ast.AST):
    """(name bound, line) of every import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_used():
    unused = []
    for path in _sources(REPO / "src", REPO / "tests"):
        tree = _tree(path)
        read = _names_read(tree)
        for name, line in _imported(tree):
            if name not in read:
                unused.append(f"{path.relative_to(REPO)}:{line}: {name}")
    assert not unused, unused


def _defined_at_top(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _assigned(tree: ast.Module, name: str):
    (value,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    )
    return value


def test_every_top_level_name_is_read_exported_or_traced():
    trees = {path: _tree(path) for path in _sources(SRC)}
    read = set().union(*map(_names_read, trees.values()))
    exports = ast.literal_eval(_assigned(trees[SRC / "__init__.py"], "_EXPORTS"))
    exported = {name for names in exports.values() for name in names.split()}
    wraps = _assigned(_tree(REPO / "perfbench" / "tracing.py"), "WRAPS")
    traced = {ast.literal_eval(entry.elts[1]) for entry in wraps.elts}
    orphans = [
        f"{path.relative_to(REPO)}: {name}"
        for path, tree in trees.items()
        for name in _defined_at_top(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in read | exported | traced
    ]
    assert exported and traced
    assert not orphans, orphans
