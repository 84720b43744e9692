"""Parser tests: the ASCII grammar, error messages, and agreement of the
pair-folding parser with the operators of ``expr``.

The random test builds one tree twice, as text for ``parse`` and as a
value through the operators, folding flat sums and products left to
right as the grammar reads them, so both sides do the same arithmetic
in the same order and must agree byte for byte when printed.
"""

import operator
import random
from fractions import Fraction

import pytest

from jetsym.errors import ParseError, SymbolicDivisionError
from jetsym.expr import cos, exp, log, rational, sin, to_string, variable
from jetsym.parsing import parse

KERNELS = {"exp": exp, "log": log, "sin": sin, "cos": cos}
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@pytest.mark.parametrize("text, column", [
    ("x^²", 3),  # superscript two: str.isdigit() holds, int() rejects it
    ("x²", 2),
    ("xé", 2),
    ("٣*x", 1),  # Arabic-Indic three: int() reads it as 3
])
def test_non_ascii_digits_and_letters_are_unexpected(text, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).startswith(f"unexpected character {text[column - 1]!r}")
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize("text, message", [
    ("(2 3)", "expected ')', found '3' (line 1, column 4)"),
    ("x 1/2", "unexpected trailing input '1/2' (line 1, column 3)"),
    ("(x", "expected ')', found end of input (line 1, column 3)"),
])
def test_errors_quote_tokens_as_written(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, column", [
    ("x + " + "1" * 5000, 5),
    ("x*2/" + "1" * 5000, 5),  # the denominator of a rational literal
], ids=["integer", "denominator"])
def test_overlong_integer_literal_is_a_parse_error(text, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value).startswith("integer literal over the 4300-digit limit")
    assert (err.value.line, err.value.column) == (1, column)


def test_integer_literal_at_the_digit_limit_parses():
    assert to_string(parse("1" * 4300 + "*x")) == "1" * 4300 + "*x"


def _tree(rng, depth):
    """``(text, value)`` of a random expression; the value is None when
    building it divides by zero."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        if rng.random() < 0.5:
            name = rng.choice(["x", "u", "u_x"])
            return name, variable(name)
        n, d = rng.randint(0, 9), rng.choice([1, 1, 2, 3, 6])
        return (f"{n}" if d == 1 else f"{n}/{d}"), rational(Fraction(n, d))
    if roll < 0.45:  # a flat sum or product, read left to right
        ops = "+-" if roll < 0.32 else "*/"
        text, val = _tree(rng, depth - 1)
        text = f"({text})"
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(ops)
            t, v = _tree(rng, depth - 1)
            text += f" {op} ({t})"
            if val is not None and v is not None:
                try:
                    val = OPERATORS[op](val, v)
                except SymbolicDivisionError:
                    val = None
            else:
                val = None
        return text, val
    t, v = _tree(rng, depth - 1)
    if roll < 0.6:
        k = rng.choice([0, 1, 2, 3, -1, -2])
        shown = rng.choice([f"{k}", f"({k})"])
        try:
            return f"({t})^{shown}", None if v is None else v ** k
        except SymbolicDivisionError:
            return f"({t})^{shown}", None
    if roll < 0.75:
        minus = rng.randint(1, 3)
        return "-" * minus + f"({t})", None if v is None else v if minus == 2 else -v
    name = rng.choice(sorted(KERNELS))
    return f"{name}({t})", None if v is None else KERNELS[name](v)


def test_parse_agrees_with_the_operators():
    rng = random.Random(20211)
    built = 0
    for _ in range(400):
        text, val = _tree(rng, rng.randint(1, 4))
        if val is None:
            with pytest.raises(SymbolicDivisionError):
                parse(text)
            continue
        got = parse(text)
        assert got == val, text
        assert to_string(got) == to_string(val), text
        built += 1
    assert built > 300
