import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "regioncd"


def _names(node: ast.AST) -> set[str]:
    """The bare and dotted-attribute names that ``node`` mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_shape_error_is_raised_only_by_the_array_rule():
    # every shape check is a call of errors.require_array, so ShapeError is raised in
    # errors.py alone and imported nowhere else in the package
    raised, imported = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc and "ShapeError" in _names(node.exc):
                raised.add(path.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "ShapeError" in alias.name for alias in node.names):
                imported.add(path.name)
    assert raised == {"errors.py"}
    assert imported == set()
