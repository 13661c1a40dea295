"""The size of src/subdiv in code lines, the count ROADMAP tracks: as
PUBLIC in test_api and THRESHOLDS in test_tolerances, a larger src/ is a
reviewed edit here.

A code line holds a token other than a comment, so blank lines and
comment-only lines do not count, and neither do the lines of a module,
class or function docstring.  A token that spans lines (a multi-line
string or bracket) counts every line it covers."""
import ast
import io
import tokenize
from pathlib import Path

import subdiv

SRC = Path(subdiv.__file__).parent

# the count of src/subdiv as it stands; lower it when code goes
MAX_CODE_LINES = 1280

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The code lines of one Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def test_src_is_no_larger_than_recorded():
    counts = {path.relative_to(SRC).as_posix(): code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.rglob("*.py"))}
    count = sum(counts.values())
    assert count <= MAX_CODE_LINES, "src/subdiv grew to %d code lines (%s)" % (
        count, ", ".join("%s %d" % kv for kv in counts.items()))


def test_counting_rule():
    text = '''"""Module
docstring."""
import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string
        that is no docstring"""
        return (s,
                os)
'''
    # import, class, def, the two-line string, the two-line return
    assert code_lines(text) == 7
