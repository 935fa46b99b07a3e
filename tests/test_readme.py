"""The README's library example runs and shows the values it claims."""

import ast
import io
import re
import tokenize
from pathlib import Path

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
