import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "regioncd"


def _names(node: ast.AST) -> set[str]:
    """The bare and dotted-attribute names that ``node`` mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _modules(test) -> set[str]:
    """The modules of the package holding a syntax node for which ``test`` holds."""
    return {path.name for path in sorted(SRC.glob("*.py"))
            if any(map(test, ast.walk(ast.parse(path.read_text(), str(path)))))}


def _raising(error: str) -> set[str]:
    return _modules(lambda node: isinstance(node, ast.Raise) and node.exc is not None
                    and error in _names(node.exc))


def test_shape_error_is_raised_only_by_the_array_rule():
    # every shape check is a call of errors.require_array, so ShapeError is raised in
    # errors.py alone and imported nowhere else in the package
    assert _raising("ShapeError") == {"errors.py"}
    assert _modules(lambda node: isinstance(node, (ast.Import, ast.ImportFrom)) and any(
        "ShapeError" in alias.name for alias in node.names)) == set()


def test_numeric_error_is_raised_only_by_the_arithmetic():
    # bad input, a non-finite image or weight included, is an InputError (exit 2); exit 3 is
    # for the forward pass (model.py) and for fusion and sampling (decoding.py)
    assert _raising("NumericError") == {"model.py", "decoding.py"}
