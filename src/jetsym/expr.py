"""Symbolic expression kernel.

Expressions are immutable trees built from rational constants, named
variables, sums, products, integer powers, and the kernel functions
exp, log, sin, cos.  ``normalize`` rewrites any tree into a canonical
form: a reduced rational function (expanded numerator and denominator,
gcd cancelled, denominator scaled to leading coefficient 1) over the
variables and function kernels, rebuilt as a tree with a fixed node
order.  Two normalized trees are structurally equal exactly when they
are the same rational function of their variables and kernels.

The node order used for sorting summands and factors is: constants
(by numerator, then denominator, of the reduced value), then variables
(lexicographic), then powers, then products, then sums, then function
applications (by name, then argument).

Derivatives are computed on the canonical form itself, not on trees:
``derivatives`` applies a derivation, fixed by its values on the
variables, to the numerator and denominator monomial dicts in one pass
(product rule over each monomial's atoms, chain rule for kernels,
quotient rule for denominators), then reduces and rebuilds the result
once.  ``pdiff`` and the total derivatives and vector fields of
``jets`` are such derivations.

Zero testing is exact on the rational fragment.  When kernels are
present and the canonical form is not syntactically zero, the verdict
is decided numerically at seeded random rational points: FALSE when a
sampled numerator is far above the rounding error of its terms, else
``Verdict.PROBABLY`` rather than a proof.

Products of exponentials are merged (``exp(a)*exp(b) -> exp(a+b)``,
``exp(a)**k -> exp(k*a)``, ``1/exp(a) -> exp(-a)``); this is the one
rewrite applied beyond rational-function arithmetic, and it keeps
inverse-pair cancellations exact.  No other function identities are
applied.
"""

from __future__ import annotations

import enum
import math
import random
import sys
from fractions import Fraction

from . import backend as _k
from ._gcd import poly_divexact, poly_gcd
from .errors import (
    DomainError,
    NonIntegerExponentError,
    SubstitutionError,
    SymbolicDivisionError,
    UnboundVariableError,
    UnknownFunctionError,
)

DEFAULT_SEED = 1013904223
DEFAULT_SAMPLES = 8
# A sampled numerator proves nonzero-ness only when it exceeds this many
# units of rounding, eps times the sum of its monomials' magnitudes.  The
# margin is wide because kernel arguments are rounded before exp, log,
# sin and cos see them, and that error is not bounded term by term.
ZERO_MARGIN = 2.0 ** 24

FUNCTIONS = ("exp", "log", "sin", "cos")

_RAT_ONE = (1, 1)
_ONE_POLY = {(): _RAT_ONE}
_ZERO_POLY: dict = {}


class Verdict(enum.Enum):
    """Three-valued outcome of a symbolic check."""

    TRUE = "true"
    FALSE = "false"
    PROBABLY = "probably"

    @staticmethod
    def combine(verdicts) -> "Verdict":
        """All-of combination: FALSE dominates, then PROBABLY, else TRUE."""
        out = Verdict.TRUE
        for v in verdicts:
            if v is Verdict.FALSE:
                return Verdict.FALSE
            if v is Verdict.PROBABLY:
                out = Verdict.PROBABLY
        return out


class VarName(str):
    """Variable identifier.  ``kind`` tags the jet role of the name
    (independent, dependent-jet, auxiliary) without affecting identity:
    two VarNames are the same variable exactly when the strings match."""

    __slots__ = ("kind",)

    def __new__(cls, name: str, kind: str = "auxiliary"):
        obj = super().__new__(cls, name)
        obj.kind = kind
        return obj


# ---------------------------------------------------------------------------
# nodes


class Expr:
    __slots__ = ("_skey", "_hash", "_rf", "_canon")

    def __init__(self):
        self._skey = None
        self._hash = None
        self._rf = None
        self._canon = False

    def sort_key(self):
        k = self._skey
        if k is None:
            k = self._make_key()
            self._skey = k
        return k

    def __lt__(self, other):
        if isinstance(other, Expr):
            return self.sort_key() < other.sort_key()
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.sort_key())
            self._hash = h
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __ne__(self, other):
        r = self.__eq__(other)
        if r is NotImplemented:
            return r
        return not r

    # arithmetic builds a raw node and normalizes once
    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return normalize(Add((self, other)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return normalize(Add((self, Mul((_NEG_ONE, other)))))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return normalize(Add((other, Mul((_NEG_ONE, self)))))

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return normalize(Mul((self, other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return normalize(Mul((self, Pow(other, -1))))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return normalize(Mul((other, Pow(self, -1))))

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return normalize(Pow(self, k))

    def __neg__(self):
        return normalize(Mul((_NEG_ONE, self)))

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"<expr {to_string(self)}>"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        if not isinstance(value, Fraction):
            value = Fraction(value)
        self.value = value

    def _make_key(self):
        # plain ints keep key comparisons out of Fraction dispatch
        return (0, self.value.numerator, self.value.denominator)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        super().__init__()
        self.name = str(name)

    def _make_key(self):
        return (1, self.name)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        super().__init__()
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise NonIntegerExponentError(f"exponent must be an integer, got {exponent!r}")
        self.base = base
        self.exponent = exponent

    def _make_key(self):
        return (2, self.base.sort_key(), self.exponent)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        super().__init__()
        self.factors = tuple(factors)

    def _make_key(self):
        return (3, tuple(f.sort_key() for f in self.factors))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple(terms)

    def _make_key(self):
        return (4, tuple(t.sort_key() for t in self.terms))


class Func(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        super().__init__()
        if name not in FUNCTIONS:
            raise UnknownFunctionError(f"unknown function {name!r}")
        self.name = name
        self.arg = arg

    def _make_key(self):
        return (5, self.name, self.arg.sort_key())


ZERO = Const(0)
ONE = Const(1)
_NEG_ONE = Const(-1)
ZERO._canon = True
ONE._canon = True


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, Fraction)):
        return Const(x)
    return None


def as_expr(x) -> Expr:
    e = _coerce(x)
    if e is None:
        raise TypeError(f"cannot interpret {x!r} as an expression")
    return e


def rational(num, den=1) -> Expr:
    return Const(Fraction(num, den))


def variable(name, kind="auxiliary") -> Expr:
    return Var(VarName(name, kind))


def exp(e) -> Expr:
    return normalize(Func("exp", as_expr(e)))


def log(e) -> Expr:
    return normalize(Func("log", as_expr(e)))


def sin(e) -> Expr:
    return normalize(Func("sin", as_expr(e)))


def cos(e) -> Expr:
    return normalize(Func("cos", as_expr(e)))


def expr_sum(terms) -> Expr:
    """Sum of expressions, normalized once at the end."""
    ts = tuple(as_expr(t) for t in terms)
    if not ts:
        return ZERO
    if len(ts) == 1:
        return normalize(ts[0])
    return normalize(Add(ts))


def expr_prod(factors) -> Expr:
    """Product of expressions, normalized once at the end."""
    fs = tuple(as_expr(f) for f in factors)
    if not fs:
        return ONE
    if len(fs) == 1:
        return normalize(fs[0])
    return normalize(Mul(fs))


# ---------------------------------------------------------------------------
# rational-function layer
#
# Monomials hold atom SORT KEYS (plain nested tuples), not the atom nodes:
# dict hashing and merge comparisons then run entirely in C, with no
# calls back into the node classes.  The registry recovers the node for
# a key when trees are rebuilt.

_ATOMS: dict = {}


def _atom_key(atom) -> tuple:
    key = atom.sort_key()
    if key not in _ATOMS:
        _ATOMS[key] = atom
    return key


def _atom_node(key) -> Expr:
    return _ATOMS[key]


def _is_exp_key(a) -> bool:
    return a[0] == 5 and a[1] == "exp"


def _fix_exp(p):
    """Merge exponential atoms inside every monomial of ``p``."""
    bad = None
    for m in p:
        n_exp = 0
        for a, e in m:
            if _is_exp_key(a):
                n_exp += 1
                if e != 1 or n_exp > 1:
                    bad = True
                    break
        if bad:
            break
    if not bad:
        return p
    r = {}
    for m, c in p.items():
        rest = []
        pieces = []
        for a, e in m:
            if _is_exp_key(a):
                pieces.append((_atom_node(a).arg, e))
            else:
                rest.append((a, e))
        if len(pieces) == 1 and pieces[0][1] == 1:
            mm = m
        else:
            if pieces:
                arg = expr_sum(
                    a if e == 1 else Mul((Const(e), a)) for a, e in pieces
                )
                if arg != ZERO:
                    rest.append((_atom_key(Func("exp", arg)), 1))
            mm = tuple(sorted(rest))
        v = r.get(mm)
        if v is None:
            r[mm] = c
        else:
            v = _k.rat_add(v, c)
            if v[0]:
                r[mm] = v
            else:
                del r[mm]
    return r


def _pmul(p, q):
    return _fix_exp(_k.poly_mul(p, q))


def _ppow(p, k):
    out = _ONE_POLY
    base = p
    while k:
        if k & 1:
            out = _pmul(out, base)
        k >>= 1
        if k:
            base = _pmul(base, base)
    return out


def _uniform_exp_arg(p):
    """The shared exp argument when every monomial of ``p`` carries the
    same exponential atom; None otherwise."""
    arg_key = None
    for m in p:
        found = None
        for a, _e in m:
            if _is_exp_key(a):
                found = a
                break
        if found is None:
            return None
        if arg_key is None:
            arg_key = found
        elif arg_key != found:
            return None
    return _atom_node(arg_key).arg if arg_key is not None else None


def _finish(num, den):
    """Denominator-constant fast path plus monic scaling."""
    if len(den) == 1 and () in den:
        c = den[()]
        if c != _RAT_ONE:
            num = _k.poly_scale(num, _k.rat_inv(c))
        return (num, _ONE_POLY)
    lc = den[max(den)]
    if lc != _RAT_ONE:
        inv = _k.rat_inv(lc)
        num = _k.poly_scale(num, inv)
        den = _k.poly_scale(den, inv)
    return (num, den)


def _reduce(num, den, *, use_gcd=True):
    if not num:
        return (_ZERO_POLY, _ONE_POLY)
    arg = _uniform_exp_arg(den)
    if arg is not None:
        shift = {((_atom_key(Func("exp", -arg)), 1),): _RAT_ONE}
        num = _pmul(num, shift)
        den = _pmul(den, shift)
    if len(den) == 1 and () in den:
        return _finish(num, den)
    if use_gcd:
        g = poly_gcd(num, den)
        if g != _ONE_POLY:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
            if not num:
                return (_ZERO_POLY, _ONE_POLY)
    return _finish(num, den)


def _radd(r1, r2):
    n1, d1 = r1
    n2, d2 = r2
    if d1 == d2:
        if d1 is _ONE_POLY or d1 == _ONE_POLY:
            return (_k.poly_add(n1, n2), _ONE_POLY)
        return _reduce(_k.poly_add(n1, n2), d1)
    num = _k.poly_add(_pmul(n1, d2), _pmul(n2, d1))
    return _reduce(num, _pmul(d1, d2))


def _rmul(r1, r2):
    n1, d1 = r1
    n2, d2 = r2
    if (d1 is _ONE_POLY or d1 == _ONE_POLY) and (d2 is _ONE_POLY or d2 == _ONE_POLY):
        return (_pmul(n1, n2), _ONE_POLY)
    return _reduce(_pmul(n1, n2), _pmul(d1, d2))


def _rpow(r, k):
    n, d = r
    if k == 0:
        return (_ONE_POLY, _ONE_POLY)
    if k > 0:
        return _reduce(_ppow(n, k), _ppow(d, k), use_gcd=False)
    if not n:
        raise SymbolicDivisionError("zero expression raised to a negative power")
    return _reduce(_ppow(d, -k), _ppow(n, -k), use_gcd=False)


_FOLDS = {
    ("exp", Fraction(0)): ONE,
    ("log", Fraction(1)): ZERO,
    ("sin", Fraction(0)): ZERO,
    ("cos", Fraction(0)): ONE,
}


def _rf_of(e):
    r = e._rf
    if r is not None:
        return r
    cls = e.__class__
    if cls is Const:
        v = e.value
        r = ({(): (v.numerator, v.denominator)} if v else _ZERO_POLY, _ONE_POLY)
    elif cls is Var:
        r = ({((_atom_key(e), 1),): _RAT_ONE}, _ONE_POLY)
    elif cls is Add:
        r = (_ZERO_POLY, _ONE_POLY)
        for t in e.terms:
            r = _radd(r, _rf_of(t))
    elif cls is Mul:
        r = (_ONE_POLY, _ONE_POLY)
        for f in e.factors:
            r = _rmul(r, _rf_of(f))
    elif cls is Pow:
        r = _rpow(_rf_of(e.base), e.exponent)
    elif cls is Func:
        arg = normalize(e.arg)
        folded = None
        if arg.__class__ is Const:
            folded = _FOLDS.get((e.name, arg.value))
        if folded is not None:
            r = _rf_of(folded)
        else:
            atom = e if arg is e.arg else Func(e.name, arg)
            r = ({((_atom_key(atom), 1),): _RAT_ONE}, _ONE_POLY)
    else:  # pragma: no cover - node set is closed
        raise TypeError(f"unknown node {cls!r}")
    e._rf = r
    return r


# ---------------------------------------------------------------------------
# canonical tree rebuild


def _term_node(m, c):
    factors = []
    if not m:
        return Const(Fraction(*c))
    if c != _RAT_ONE:
        factors.append(Const(Fraction(*c)))
    for a, e in m:
        atom = _atom_node(a)
        factors.append(atom if e == 1 else Pow(atom, e))
    if len(factors) == 1:
        return factors[0]
    factors.sort(key=lambda f: f.sort_key())
    return Mul(tuple(factors))


def _poly_node(p):
    if not p:
        return ZERO
    terms = [_term_node(m, c) for m, c in p.items()]
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=lambda t: t.sort_key())
    return Add(tuple(terms))


def _build(rf):
    num, den = rf
    if den == _ONE_POLY:
        node = _poly_node(num)
    else:
        if len(den) == 1:
            ((dm, _dc),) = den.items()
            den_factors = [Pow(_atom_node(a), -e) for a, e in dm]
        else:
            den_factors = [Pow(_poly_node(den), -1)]
        if len(num) == 1:
            ((nm, nc),) = num.items()
            factors = [Const(Fraction(*nc))] if (nc != _RAT_ONE or not nm) else []
            for a, e in nm:
                atom = _atom_node(a)
                factors.append(atom if e == 1 else Pow(atom, e))
            factors.extend(den_factors)
        else:
            factors = [_poly_node(num)] + den_factors
        if len(factors) == 1:
            node = factors[0]
        else:
            factors.sort(key=lambda f: f.sort_key())
            node = Mul(tuple(factors))
    node._rf = rf
    node._canon = True
    return node


def normalize(e) -> Expr:
    """Canonical form of ``e``; idempotent, value preserving."""
    e = as_expr(e)
    if e._canon:
        return e
    return _build(_rf_of(e))


def is_polynomial(e) -> bool:
    """True when the canonical form has denominator 1 and no kernels."""
    num, den = _rf_of(normalize(e))
    if den != _ONE_POLY:
        return False
    return not _has_kernel_poly(num)


def _has_kernel_poly(p):
    for m in p:
        for a, _e in m:
            if a[0] == 5:  # function-application rank
                return True
    return False


def polynomial_terms(e) -> dict:
    """Coefficients of a polynomial expression, keyed by monomials given
    as sorted tuples of (variable name, exponent); raises on non-polynomial
    input (denominators or kernels)."""
    from .errors import ExprError

    nf = normalize(e)
    num, den = _rf_of(nf)
    if den != _ONE_POLY or _has_kernel_poly(num):
        raise ExprError(f"not a polynomial: {to_string(nf)}")
    out = {}
    for m, c in num.items():
        out[tuple(sorted((a[1], k) for a, k in m))] = Fraction(*c)
    return out


# ---------------------------------------------------------------------------
# structural operations


def free_variables(e) -> set:
    """Names of all variables occurring in ``e`` (inside kernels too)."""
    out = set()
    _collect_vars(as_expr(e), out)
    return out


def _collect_vars(e, out):
    cls = e.__class__
    if cls is Var:
        out.add(str(e.name))
    elif cls is Add:
        for t in e.terms:
            _collect_vars(t, out)
    elif cls is Mul:
        for f in e.factors:
            _collect_vars(f, out)
    elif cls is Pow:
        _collect_vars(e.base, out)
    elif cls is Func:
        _collect_vars(e.arg, out)


def substitute(e, bindings) -> Expr:
    """Simultaneous substitution of variables, then normalization.

    Rejects binding sets in which any bound variable occurs in any
    replacement expression (directly, and therefore also transitively).
    """
    e = as_expr(e)
    named = {str(k): as_expr(v) for k, v in bindings.items()}
    if not named:
        return normalize(e)
    bound = set(named)
    for name, repl in named.items():
        hit = free_variables(repl) & bound
        if hit:
            raise SubstitutionError(
                f"replacement for {name!r} contains bound variable(s) {sorted(hit)}"
            )
    return normalize(_subst_walk(e, named))


def _subst_walk(e, named):
    cls = e.__class__
    if cls is Var:
        return named.get(str(e.name), e)
    if cls is Const:
        return e
    if cls is Add:
        return Add(tuple(_subst_walk(t, named) for t in e.terms))
    if cls is Mul:
        return Mul(tuple(_subst_walk(f, named) for f in e.factors))
    if cls is Pow:
        return Pow(_subst_walk(e.base, named), e.exponent)
    return Func(e.name, _subst_walk(e.arg, named))


def pdiff(e, v) -> Expr:
    """Partial derivative with respect to the variable ``v``; every other
    variable (jet coordinates included) is an independent symbol."""
    name = str(v)
    return derivatives(e, lambda n: {0: ONE} if n == name else {}).get(0, ZERO)


def derivatives(e, of_var) -> dict:
    """Derivatives of ``e`` along one or more directions, in one pass over
    its canonical form.

    A derivation is fixed by its values on the variables: ``of_var(name)``
    maps each variable name of ``e`` (inside kernels too) to a dict
    ``{direction: value}``, empty when every direction treats the variable
    as a constant.  Function kernels follow the chain rule.  Returns
    ``{direction: canonical derivative}`` for the nonzero results.
    """
    rf = _Derivation(of_var).rf(_rf_of(normalize(e)))
    return {d: _build(r) for d, r in rf.items()}


def _outer_derivative(key):
    """f'(g) of the function atom f(g), as a canonical pair."""
    node = _atom_node(key)
    name, arg = node.name, node.arg
    if name == "exp":
        return ({((key, 1),): _RAT_ONE}, _ONE_POLY)
    if name == "log":
        return _rpow(_rf_of(arg), -1)
    if name == "sin":
        return _rf_of(Func("cos", arg))
    num, den = _rf_of(Func("sin", arg))
    return (_k.poly_neg(num), den)


def _add_term(p, m, c):
    """Add ``c`` times the monomial ``m`` to ``p`` in place."""
    v = p.get(m)
    if v is None:
        p[m] = c
        return
    v = _k.rat_add(v, c)
    if v[0]:
        p[m] = v
    else:
        del p[m]


_CONSTANT = ((), ())  # an atom every direction treats as a constant


class _Derivation:
    """Derivatives of canonical pairs along several directions at once.

    Each atom's derivatives are worked out once per instance: from
    ``of_var`` for a variable, by the chain rule for a function atom.  A
    polynomial is walked once, monomial by monomial, with the product
    rule over its atoms; a quotient takes the quotient rule and one
    ``_reduce``, so results are canonical like every other pair.
    """

    def __init__(self, of_var):
        self.of_var = of_var
        self.memo = {}

    def atom(self, key):
        """The atom's nonzero derivatives as ``(monos, others)``: single
        exp-free monomials ``(direction, monomial, coefficient)``, which
        the polynomial walk multiplies in place, and any other pairs
        ``(direction, (num, den))``."""
        if key[0] == 1:  # variable rank
            vals = {d: _rf_of(v) for d, v in self.of_var(key[1]).items()}
        else:
            inner = self.rf(_rf_of(_atom_node(key).arg))
            outer = _outer_derivative(key) if inner else None
            vals = {d: _rmul(outer, r) for d, r in inner.items()}
        monos, others = [], []
        for d, (num, den) in vals.items():
            if not num:
                continue
            if len(num) == 1 and den == _ONE_POLY:
                ((m, c),) = num.items()
                if not any(_is_exp_key(a) for a, _e in m):
                    monos.append((d, m, c))
                    continue
            others.append((d, (num, den)))
        hit = (monos, others) if monos or others else _CONSTANT
        self.memo[key] = hit
        return hit

    def poly(self, p) -> dict:
        memo = self.memo
        direct = {}  # direction -> numerator built monomial by monomial
        partial = {}  # atom key -> partial derivative of p in that atom
        for m, c in p.items():
            for idx, (a, e) in enumerate(m):
                hit = memo.get(a)
                if hit is None:
                    hit = self.atom(a)
                if hit is _CONSTANT:
                    continue
                if e == 1:
                    rest = m[:idx] + m[idx + 1:]
                    ce = c
                else:
                    rest = m[:idx] + ((a, e - 1),) + m[idx + 1:]
                    ce = _k.rat_mul(c, (e, 1))
                monos, others = hit
                for d, gm, gc in monos:
                    acc = direct.get(d)
                    if acc is None:
                        acc = direct[d] = {}
                    _add_term(acc, _k.monomial_mul(rest, gm), _k.rat_mul(ce, gc))
                if others:
                    _add_term(partial.setdefault(a, {}), rest, ce)
        out = {d: (num, _ONE_POLY) for d, num in direct.items() if num}
        for a, pa in partial.items():
            if not pa:
                continue
            for d, r in memo[a][1]:
                term = _rmul((pa, _ONE_POLY), r)
                out[d] = _radd(out[d], term) if d in out else term
        return {d: r for d, r in out.items() if r[0]}

    def rf(self, r) -> dict:
        num, den = r
        dnum = self.poly(num)
        if den == _ONE_POLY:
            return dnum
        dden = self.poly(den)
        den_sq = _pmul(den, den)
        zero = (_ZERO_POLY, _ONE_POLY)
        out = {}
        for d in list(dnum) + [d for d in dden if d not in dnum]:
            a, b = dnum.get(d, zero)
            c, e = dden.get(d, zero)
            # (a/b)/den - num*(c/e)/den^2 = (a*e*den - num*c*b) / (b*e*den^2)
            top = _k.poly_sub(_pmul(_pmul(a, e), den), _pmul(_pmul(num, c), b))
            res = _reduce(top, _pmul(_pmul(b, e), den_sq))
            if res[0]:
                out[d] = res
        return out


_MATH = {"exp": math.exp, "sin": math.sin, "cos": math.cos}


def eval_expr(e, point) -> float:
    """Numeric value of ``e`` at ``point`` (variable name -> number)."""
    vals = {str(k): v for k, v in point.items()}
    return _eval_walk(as_expr(e), vals)


def _eval_walk(e, vals):
    cls = e.__class__
    if cls is Const:
        return float(e.value)
    if cls is Var:
        name = str(e.name)
        if name not in vals:
            raise UnboundVariableError(f"variable {name!r} is not bound")
        return float(vals[name])
    if cls is Add:
        return math.fsum(_eval_walk(t, vals) for t in e.terms)
    if cls is Mul:
        out = 1.0
        for f in e.factors:
            out *= _eval_walk(f, vals)
        return out
    if cls is Pow:
        b = _eval_walk(e.base, vals)
        try:
            return b ** e.exponent
        except ZeroDivisionError:
            raise DomainError("zero raised to a negative power") from None
        except OverflowError:
            raise DomainError("overflow in power") from None
    v = _eval_walk(e.arg, vals)
    if e.name == "log":
        if v <= 0.0:
            raise DomainError(f"log of non-positive value {v}")
        return math.log(v)
    try:
        return _MATH[e.name](v)
    except OverflowError:
        raise DomainError("overflow in kernel function") from None


def _poly_sample(p, atom_values):
    """Value of ``p`` at sampled atom values and the sum of its monomials'
    magnitudes; None when a monomial is not a finite float."""
    terms = []
    for m, (cn, cd) in p.items():
        v = cn / cd
        for a, k in m:
            v *= atom_values[a] ** k
        if not math.isfinite(v):
            return None
        terms.append(v)
    return math.fsum(terms), math.fsum(abs(v) for v in terms)


def zero_verdict(e, *, seed=None, samples=DEFAULT_SAMPLES) -> Verdict:
    """Classify ``e`` as zero.

    TRUE and FALSE are exact on the rational fragment.  When the
    canonical form ``N/D`` is nonzero but contains kernels, ``N`` is
    sampled at ``samples`` random rational points inside the kernel
    domains where ``D`` is finite and nonzero.  FALSE needs one sample
    whose value exceeds ``ZERO_MARGIN`` times eps times the sum of
    ``N``'s monomial magnitudes there, which rounding cannot explain;
    otherwise the verdict is PROBABLY (never silently TRUE).  Domain
    errors and overflow trigger resampling up to a cap.
    """
    nf = normalize(e)
    if nf.__class__ is Const:
        return Verdict.TRUE if nf.value == 0 else Verdict.FALSE
    num, den = _rf_of(nf)
    if not (_has_kernel_poly(num) or _has_kernel_poly(den)):
        return Verdict.FALSE
    atoms = {a for p in (num, den) for m in p for a, _k in m}
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    names = sorted(free_variables(nf))
    good = 0
    attempts = 0
    while good < samples:
        attempts += 1
        if attempts > 25 * samples:
            raise DomainError("could not sample inside kernel domains")
        point = {n: Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for n in names}
        try:
            values = {a: eval_expr(_atom_node(a), point) for a in atoms}
            d = _poly_sample(den, values)
            n = _poly_sample(num, values)
        except (DomainError, ZeroDivisionError, OverflowError):
            continue
        if d is None or d[0] == 0.0 or n is None:
            continue
        value, scale = n
        if abs(value) > ZERO_MARGIN * sys.float_info.epsilon * scale:
            return Verdict.FALSE
        good += 1
    return Verdict.PROBABLY


def is_zero(e, *, seed=None, samples=DEFAULT_SAMPLES) -> bool:
    """True only when ``e`` is exactly zero; a probably-zero outcome is
    reported as False here, use ``zero_verdict`` for the full verdict."""
    return zero_verdict(e, seed=seed, samples=samples) is Verdict.TRUE


# ---------------------------------------------------------------------------
# printing


def _paren(s):
    return "(" + s + ")"


def _pow_base_str(b):
    cls = b.__class__
    if cls is Var or cls is Func:
        return to_string(b)
    if cls is Const and b.value >= 0 and b.value.denominator == 1:
        return str(b.value)
    return _paren(to_string(b))


def _factor_str(f):
    cls = f.__class__
    if cls is Add or cls is Mul:
        return _paren(to_string(f))
    return to_string(f)


def _split_negative(t):
    """(is_negative, positive-twin) for rendering sums with minus signs."""
    cls = t.__class__
    if cls is Const and t.value < 0:
        return True, Const(-t.value)
    if cls is Mul and t.factors and t.factors[0].__class__ is Const:
        c = t.factors[0].value
        if c < 0:
            rest = t.factors[1:]
            if c == -1 and rest:
                return True, rest[0] if len(rest) == 1 else Mul(rest)
            return True, Mul((Const(-c),) + rest)
    return False, t


def to_string(e) -> str:
    """Canonical text; re-parsing reproduces the same canonical form."""
    cls = e.__class__
    if cls is Const:
        return str(e.value)
    if cls is Var:
        return str(e.name)
    if cls is Func:
        return f"{e.name}({to_string(e.arg)})"
    if cls is Pow:
        k = e.exponent
        es = str(k) if k >= 0 else _paren(str(k))
        return f"{_pow_base_str(e.base)}^{es}"
    if cls is Mul:
        fs = e.factors
        if fs and fs[0].__class__ is Const and fs[0].value == -1 and len(fs) > 1:
            rest = fs[1] if len(fs) == 2 else Mul(fs[1:])
            return "-" + _factor_str(rest)
        return "*".join(_factor_str(f) for f in fs)
    if cls is Add:
        parts = []
        for i, t in enumerate(e.terms):
            neg, tt = _split_negative(t)
            s = _factor_str(tt) if tt.__class__ is Add else to_string(tt)
            if i == 0:
                parts.append("-" + s if neg else s)
            else:
                parts.append((" - " if neg else " + ") + s)
        return "".join(parts)
    raise TypeError(f"unknown node {cls!r}")  # pragma: no cover
