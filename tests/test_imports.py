"""Every module uses what it imports: a top-level imported name that no
expression of the module reads is an unused import. negmono/__init__.py is
exempt, because its imports are the package's re-exports. And every private
top-level function, class or constant of negmono is read somewhere: by a
name, an attribute or a string equal to it in src/, tests/ or perfbench/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "negmono").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))
READERS = [p for top in ("src", "tests", "perfbench") for p in sorted((ROOT / top).rglob("*.py"))]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    unused = {}
    for path in MODULES:
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_private_definition_is_read():
    read = set().union(*(_reads(ast.parse(p.read_text(), str(p))) for p in READERS))
    unread = {}
    for path in PACKAGE:
        names = [n for n in _private_definitions(ast.parse(path.read_text(), str(path)))
                 if n not in read]
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}
