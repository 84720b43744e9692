"""Infix expression parser.

Grammar (fixed, text-level contract of the package):

* identifiers ``[A-Za-z][A-Za-z0-9_]*`` and integer literals ``[0-9]+``,
  ASCII only, literals within Python's digit limit (4300 by default);
* binary ``+ - * / ^`` with the usual precedence, ``^`` right
  associative and requiring an exponent whose value is an integer
  constant;
* function calls ``f(expr)`` for f in exp, log, sin, cos;
* rational literals ``3``, ``1/2``: a ``/`` squeezed between two integer
  literals with no spaces is a rational constant, any other ``/`` is
  division;
* unary minus.

An ASCII scanner makes the tokens, plain ``(kind, value, start, stop)``
tuples; a number's value is the kernel's coefficient of it, made by
``rat_make`` (an int when it is integral, else a reduced pair) and read
back by ``rat_parts``.  The parser builds no tree: each rule folds the
canonical pairs of its operands left to right with the pair arithmetic
of ``expr`` (``_radd``, ``_rmul``, ``_rneg``, ``_rpow``) and the kernel
constructors, so a sub-expression is reduced as soon as it is read, and
a division by zero raises ``SymbolicDivisionError`` there, before any
later syntax error.
Only the result is wrapped in an ``Expr``.

Parentheses, function calls, unary minus and exponents may nest at most
``MAX_NESTING`` levels deep; deeper input is a ``ParseError``, so that
hostile text fails cleanly instead of exhausting the interpreter stack
in the parser or in the layers that recurse into kernel arguments.
"""

import sys

from .backend import rat_make, rat_parts
from .errors import NonIntegerExponentError, ParseError, UnknownFunctionError
from .expr import (
    _ONE_POLY,
    _ZERO_POLY,
    Expr,
    _radd,
    _rmul,
    _rneg,
    _rpow,
    cos,
    exp,
    log,
    sin,
    variable,
)

_KERNELS = {f.__name__: f for f in (exp, log, sin, cos)}

# Deep enough for any real formula; at this depth the recursive descent
# of the parser, and the derivative, substitution, evaluation and
# printing code that recurses once per nested kernel argument, stay well
# inside Python's default recursion limit of 1000 frames.
MAX_NESTING = 100

_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_NAME_CHARS = _LETTERS | _DIGITS | {"_"}
_SPACES = frozenset(" \t\r\n")
_OPERATORS = frozenset("+-*/^(),")


def _err(text, pos, message, cls=ParseError):
    line = text.count("\n", 0, pos) + 1
    raise cls(message, line, pos - text.rfind("\n", 0, pos))


def _digits_end(text, i, n):
    while i < n and text[i] in _DIGITS:
        i += 1
    return i


def _int(text, start, stop):
    try:
        return int(text[start:stop])
    except ValueError:  # past Python's limit on int() of a digit string
        _err(text, start, f"integer literal over the {sys.get_int_max_str_digits()}-digit limit")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _SPACES:
            i += 1
        elif ch in _DIGITS:
            start = i
            i = _digits_end(text, i, n)
            num, den = _int(text, start, i), 1
            # "a/b" with no interior spaces is a rational literal
            if i + 1 < n and text[i] == "/" and text[i + 1] in _DIGITS:
                dstart = i + 1
                i = _digits_end(text, dstart, n)
                den = _int(text, dstart, i)
                if den == 0:
                    _err(text, dstart, "rational literal with zero denominator")
            tokens.append(("number", rat_make(num, den), start, i))
        elif ch in _LETTERS:
            start = i
            i += 1
            while i < n and text[i] in _NAME_CHARS:
                i += 1
            tokens.append(("name", text[start:i], start, i))
        elif ch in _OPERATORS:
            tokens.append((ch, ch, i, i + 1))
            i += 1
        else:
            _err(text, i, f"unexpected character {ch!r}")
    tokens.append(("end", None, n, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def fail(self, token, message, cls=ParseError):
        """Raise at ``token``; ``{}`` in ``message`` quotes it as written."""
        shown = ("end of input" if token[0] == "end"
                 else repr(self.text[token[2]:token[3]]))
        _err(self.text, token[2], message.format(shown), cls)

    def enter(self, token):
        """Open one nesting level at ``token``; the caller closes it by
        decrementing ``depth`` once the nested part is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(token, f"expression nested more than {MAX_NESTING} levels deep")

    def parse(self):
        r = self.expr()
        t = self.tokens[self.i]
        if t[0] != "end":
            self.fail(t, "unexpected trailing input {}")
        return r

    def expr(self):
        r = self.term()
        tokens = self.tokens
        while (op := tokens[self.i][0]) == "+" or op == "-":
            self.i += 1
            t = self.term()
            r = _radd(r, t if op == "+" else _rneg(t))
        return r

    def term(self):
        r = self.signed()
        tokens = self.tokens
        while (op := tokens[self.i][0]) == "*" or op == "/":
            self.i += 1
            f = self.signed()
            r = _rmul(r, f if op == "*" else _rpow(f, -1))
        return r

    def signed(self):
        """Unary minuses, an atom and its exponent: ``-a^k`` is ``-(a^k)``."""
        tokens = self.tokens
        minus = 0
        while tokens[self.i][0] == "-":
            self.enter(tokens[self.i])
            self.i += 1
            minus += 1
        r = self.atom()
        caret = tokens[self.i]
        if caret[0] == "^":
            self.i += 1
            self.enter(caret)
            num, den = self.signed()
            self.depth -= 1
            n, d = rat_parts(num.get((), 0))
            # any(num): the numerator has a monomial other than the constant ()
            if d != 1 or any(num) or den != _ONE_POLY:
                self.fail(caret, "exponent must be an integer constant",
                          NonIntegerExponentError)
            r = _rpow(r, n)
        self.depth -= minus
        return _rneg(r) if minus & 1 else r

    def group(self, opening):
        """The expression inside parentheses, ``opening`` already taken."""
        self.enter(opening)
        r = self.expr()
        t = self.tokens[self.i]
        self.i += 1
        if t[0] != ")":
            self.fail(t, "expected ')', found {}")
        self.depth -= 1
        return r

    def atom(self):
        t = self.tokens[self.i]
        self.i += 1
        kind = t[0]
        if kind == "number":
            c = t[1]
            return ({(): c}, _ONE_POLY) if c else (_ZERO_POLY, _ONE_POLY)
        if kind == "(":
            return self.group(t)
        if kind == "name":
            opening = self.tokens[self.i]
            if opening[0] != "(":
                return variable(t[1])._rf
            if t[1] not in _KERNELS:
                self.fail(t, "unknown function {}", UnknownFunctionError)
            self.i += 1
            return _KERNELS[t[1]](Expr(self.group(opening)))._rf
        self.fail(t, "expected an operand, found {}")


def parse(text: str) -> Expr:
    """Parse ``text`` and return its canonical value."""
    return Expr(_Parser(text).parse())
