"""Every module uses what it imports: a top-level imported name that no
expression of the module reads is an unused import. negmono/__init__.py is
exempt, because its imports are the package's re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "negmono").glob("*.py")) if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))


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
