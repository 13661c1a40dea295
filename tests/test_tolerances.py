"""Every float threshold in src/subdiv, as OPTIONS in test_cli is every CLI
option: a new tolerance is a reviewed edit here.

A float-threshold literal is a float (or imaginary) literal written in
exponent notation, or one whose nonzero magnitude is below 1e-3.  Plain
literals such as 0.0, 0.5 or 200.0 are values, not thresholds."""
import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import subdiv
from subdiv import dynamics, localmatrix

SRC = Path(subdiv.__file__).parent

# (file, literal): count.  Every yes/no decision of the exact routes is
# made in integers; these two shape float output only.
THRESHOLDS = Counter({
    ("localmatrix.py", "1e-9"): 1,   # SPECTRAL_TOL: the spectral class
    ("dynamics.py", "1e10"): 1,      # the cond(V) bound: defective, no modes
})


def threshold_literals(text: str) -> list[tuple[str, int]]:
    """(literal, line) of every float-threshold literal in Python source."""
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.NUMBER:
            continue
        value = ast.literal_eval(tok.string)
        if isinstance(value, complex):
            value = value.imag
        if not isinstance(value, float):
            continue
        if "e" in tok.string.lower() or 0 < abs(value) < 1e-3:
            found.append((tok.string, tok.start[0]))
    return found


def test_scanner_finds_thresholds_and_skips_values():
    text = "a = 1e-9\nb = 0.0001\nc = 2.5E3j\nd = 0.5\ne = 0x1e\nf = 10 ** -9\ng = 0.0\n"
    assert threshold_literals(text) == [("1e-9", 1), ("0.0001", 2), ("2.5E3j", 3)]


def test_float_threshold_inventory():
    located = {}
    for path in sorted(SRC.glob("*.py")):
        for literal, line in threshold_literals(path.read_text(encoding="utf-8")):
            located.setdefault((path.name, literal), []).append("%s:%d" % (path.name, line))
    got = Counter({key: len(lines) for key, lines in located.items()})
    assert got == THRESHOLDS, sorted(located.items())


def test_named_thresholds():
    assert localmatrix.SPECTRAL_TOL == 1e-9
    assert not hasattr(dynamics, "_COEFF_FLOOR")
    assert not hasattr(dynamics, "MODE_TOL")
