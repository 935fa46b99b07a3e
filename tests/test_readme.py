"""The README's library example runs and shows the values it claims, and every
exported function is used by the package or named in the README."""

import ast
import inspect
import io
import re
import tokenize
from pathlib import Path

import wkpdom

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ```python block under the README's "Library" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values_match_their_comments():
    # An expression line's comment starts with the repr of its value; a
    # comment on any other line is prose.
    source = library_example()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = repr(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        comment = comments.get(stmt.lineno)
        assert comment is not None, f"README example line {stmt.lineno} states no value"
        assert comment == value or comment.startswith(value + ","), (stmt.lineno, comment, value)
        checked += 1
    assert checked > 0


def test_every_exported_function_is_reached_or_documented():
    # A public function that no other module of the package uses and the
    # README does not name is dead API: it is tested, exported and kept
    # up to date, but nothing the package does depends on it.
    package = Path(wkpdom.__file__).resolve().parent
    used: dict[str, set[str]] = {}
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                used.setdefault(name, set()).add(path.stem)
    readme = README.read_text()
    dead = []
    for name in wkpdom.__all__:
        obj = getattr(wkpdom, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        if not used.get(name, set()) - {home} and not re.search(rf"\b{name}\b", readme):
            dead.append(name)
    assert dead == []
