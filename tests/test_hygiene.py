"""Source hygiene, by an AST scan: no module imports a name it never uses,
and every top-level definition in src/ is referenced from src/, tests/ or
perfbench/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "unitring").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(node):
    """Identifiers a node uses: names, attributes, and string constants that
    are identifiers or dotted names (__all__ entries, tracer hooks)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in SRC + TESTS:
        tree = _tree(path)
        used = _references(tree)  # an import statement holds no Name nodes
        for lineno, name in _imported_names(tree):
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{lineno}: {name}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_every_src_definition_is_referenced():
    # References of each top-level statement, so that a definition's use
    # of its own name (recursion) does not count.
    statements = []
    for path in SRC + TESTS + PERFBENCH:
        for stmt in _tree(path).body:
            statements.append((path, stmt, _references(stmt)))
    unreferenced = []
    for path, stmt, _ in statements:
        if path not in SRC or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in refs for _, other, refs in statements if other is not stmt):
            unreferenced.append(f"{path.relative_to(ROOT)}:{stmt.lineno}: {stmt.name}")
    assert not unreferenced, "defined but never referenced:\n" + "\n".join(unreferenced)
