"""Infix expression parser.

Grammar (fixed, text-level contract of the package):

* identifiers ``[A-Za-z][A-Za-z0-9_]*``;
* binary ``+ - * / ^`` with the usual precedence, ``^`` right
  associative and requiring an exponent whose value is an integer
  constant;
* function calls ``f(expr)`` for f in exp, log, sin, cos;
* rational literals ``3``, ``1/2``: a ``/`` squeezed between two integer
  literals with no spaces is a rational constant, any other ``/`` is
  division;
* unary minus.

The parser builds no tree: each rule folds the canonical values of its
operands with the arithmetic of ``expr`` (``expr_sum``, ``expr_prod``,
negation, ``**`` and the kernel constructors), so a sub-expression is
reduced as soon as it is read, and a division by zero raises
``SymbolicDivisionError`` there, before any later syntax error.

Parentheses, function calls, unary minus and exponents may nest at most
``MAX_NESTING`` levels deep; deeper input is a ``ParseError``, so that
hostile text fails cleanly instead of exhausting the interpreter stack
in the parser or in the layers that recurse into kernel arguments.
"""

from fractions import Fraction

from .errors import NonIntegerExponentError, ParseError, UnknownFunctionError
from .expr import (
    Expr,
    constant_value,
    cos,
    exp,
    expr_prod,
    expr_sum,
    log,
    rational,
    sin,
    variable,
)

_KERNELS = {f.__name__: f for f in (exp, log, sin, cos)}

# Deep enough for any real formula; at this depth the recursive descent
# of the parser, and the derivative, substitution, evaluation and
# printing code that recurses once per nested kernel argument, stay well
# inside Python's default recursion limit of 1000 frames.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _line_col(text, pos):
    line = text.count("\n", 0, pos) + 1
    last = text.rfind("\n", 0, pos)
    return line, pos - last


def _err(text, pos, message, cls=ParseError):
    line, col = _line_col(text, pos)
    raise cls(message, line, col)


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            num = int(text[start:i])
            # "a/b" with no interior spaces is a rational literal
            if i + 1 < n and text[i] == "/" and text[i + 1].isdigit():
                i += 1
                dstart = i
                while i < n and text[i].isdigit():
                    i += 1
                den = int(text[dstart:i])
                if den == 0:
                    _err(text, dstart, "rational literal with zero denominator")
                tokens.append(_Token("number", Fraction(num, den), start))
            else:
                tokens.append(_Token("number", Fraction(num), start))
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], start))
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        _err(text, i, f"unexpected character {ch!r}")
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.take()
        if t.kind != kind:
            _err(self.text, t.pos, f"expected {kind!r}, found {t.value!r}")
        return t

    def enter(self, token):
        """Open one nesting level at ``token``; the caller closes it by
        decrementing ``depth`` once the nested part is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            _err(self.text, token.pos,
                 f"expression nested more than {MAX_NESTING} levels deep")

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            _err(self.text, t.pos, f"unexpected trailing input {t.value!r}")
        return e

    def expr(self):
        terms = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.take()
            t = self.term()
            terms.append(t if op.kind == "+" else -t)
        return terms[0] if len(terms) == 1 else expr_sum(terms)

    def term(self):
        factors = [self.unary()]
        while self.peek().kind in ("*", "/"):
            op = self.take()
            f = self.unary()
            factors.append(f if op.kind == "*" else f ** -1)
        return factors[0] if len(factors) == 1 else expr_prod(factors)

    def unary(self):
        if self.peek().kind == "-":
            self.enter(self.take())
            e = self.unary()
            self.depth -= 1
            return -e
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind != "^":
            return base
        caret = self.take()
        self.enter(caret)
        k = self.unary()
        self.depth -= 1
        k = constant_value(k)
        if k is None or k.denominator != 1:
            _err(self.text, caret.pos, "exponent must be an integer constant",
                 cls=_NonIntExp)
        return base ** int(k)

    def group(self, opening):
        """The expression inside parentheses, ``opening`` already taken."""
        self.enter(opening)
        e = self.expr()
        self.expect(")")
        self.depth -= 1
        return e

    def atom(self):
        t = self.take()
        if t.kind == "number":
            return rational(t.value)
        if t.kind == "(":
            return self.group(t)
        if t.kind == "name":
            if self.peek().kind == "(":
                if t.value not in _KERNELS:
                    _err(self.text, t.pos, f"unknown function {t.value!r}",
                         cls=UnknownFunctionError)
                return _KERNELS[t.value](self.group(self.take()))
            return variable(t.value)
        _err(self.text, t.pos, f"unexpected token {t.value!r}")


class _NonIntExp(ParseError, NonIntegerExponentError):
    pass


def parse(text: str) -> Expr:
    """Parse ``text`` and return its canonical value."""
    return _Parser(text).parse()
