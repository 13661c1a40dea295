"""README's examples run as written: every `subdiv ...` line of its CLI
examples exits 0, and its library example prints what its comments say."""
import math
import re
import shlex
from pathlib import Path

from subdiv import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block(heading: str) -> list[str]:
    """The lines of the first fenced block after the heading."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return section.split("```", 2)[1].split("\n")[1:]


def test_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    lines = [line for line in block("CLI examples") if line.startswith("subdiv ")]
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)  # the examples write their --out files here
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


# a float as printed: its last bits come from LAPACK, which may differ
# between builds, so a printed float matches its comment to 12 digits
FLOAT = re.compile(r"\d+\.\d+(?:e[-+]\d+)?")


def agrees(printed: str, comment: str) -> bool:
    """Whether the comment starts with the words of the printed line, the
    same but for the last bits of each float."""
    got = printed.split()
    want = comment.split()[:len(got)]
    return len(want) == len(got) and all(
        FLOAT.sub("#", a) == FLOAT.sub("#", b)
        and all(math.isclose(float(x), float(y), rel_tol=1e-12)
                for x, y in zip(FLOAT.findall(a), FLOAT.findall(b)))
        for a, b in zip(got, want))


def test_library_example_prints_its_comments(capsys):
    lines = block("Library example")
    exec("\n".join(lines), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("# ", 1)[1] for line in lines if line.startswith("print(")]
    assert len(printed) == len(comments) == 5
    for out, comment in zip(printed, comments):
        assert agrees(out, comment), (out, comment)


def test_agrees():
    assert agrees("True 0.4898979485566357", "True 0.48989794855663565 (= sqrt(6)/5)")
    assert agrees("[(0.4+0.28284271247461895j)]", "[(0.4+0.282842712474619j)]")
    assert not agrees("True 0.4898", "True 0.4899")
    assert not agrees("True", "False (a note)")
    assert not agrees("True 1.0", "True")
