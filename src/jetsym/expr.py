"""Symbolic expression kernel.

Every expression is a canonical value: a reduced rational function
(expanded numerator and denominator, gcd cancelled, denominator scaled
to leading coefficient 1) over rational constants, named variables and
the function kernels exp, log, sin, cos, held as the pair of numerator
and denominator monomial dicts.  Values are built from constants and
variables with the arithmetic operators, ``expr_sum``/``expr_prod`` and
the kernel constructors ``exp``, ``log``, ``sin``, ``cos``; each of them
combines pairs and returns a canonical value, so no unreduced tree ever
exists.  ``Expr`` is the one value class: it holds the pair, and works
out its frozen pair when it is first hashed or ordered: the numerator's
and the denominator's ``(monomial, coefficient)`` items as tuples sorted
by monomial.  The frozen pair is the value's identity, hash and order.
Two values are equal exactly when their pairs are, that is when they are
the same rational function of their variables and kernels.
``to_string``, ``free_variables`` and ``eval_expr`` read the pair
itself: printing sorts each polynomial's monomials as it writes them.

A monomial is a tuple of ``(atom, exponent)`` pairs sorted by atom, with
positive exponents.  A variable atom is ``(1, name)``, one object per
name for the life of the process, so equal atoms compare by identity;
a function atom ``(5, name, argument)`` describes itself and sorts after
the variables.  Atoms, monomials and frozen pairs compare as tuples, and
two function atoms of one name by the frozen pairs of their arguments.

A value prints as ``N`` when its denominator is 1 and as ``(N)/(D)``
otherwise.  ``N`` and ``D`` list their terms in ascending order of their
monomials: the constant first, then the monomials lexicographically by
their ``(atom, exponent)`` pairs, so ``1 + u + u*x + u^2 + x``.  A term
prints as its coefficient (left out when it is 1) followed by its
factors in atom order, joined by ``*``, as ``atom`` or ``atom^k``; the
sign of a term after the first is printed as `` + `` or `` - ``.

Derivatives are computed on the pair: a ``Derivation`` is the
derivation along one direction, fixed by its image of each variable, as
a callable on values.  It walks the numerator and denominator monomial
dicts in one pass (product rule over each monomial's atoms, chain rule
for kernels), builds one numerator for each of them, and takes the
quotient rule only when the denominator D is not 1: it cancels
gcd(D, D') first, so one reduction finishes the result.  It keeps each
variable's image for as long as it lives, and each function atom's
derivative for one call.  ``pdiff`` and the vector fields of
``jets`` use a new derivation per call; the total derivatives of
``jets`` keep one derivation per jet space and direction.

Substitution works on the canonical form too.  ``substitute`` maps each
atom once (a bound variable to its replacement, a function atom to the
function of its substituted argument), brings the images of the changed
atoms over one common denominator, and multiplies every monomial of the
numerator and denominator by its share of it, so the result needs one
reduction instead of one gcd per summand.

Zero testing is exact on the rational fragment.  When kernels are
present and the canonical form is not syntactically zero, the verdict
is decided numerically at seeded random rational points: FALSE when a
sampled numerator is far above the rounding error of its terms, else
``Verdict.PROBABLY`` rather than a proof.  ``Check`` is the one verdict
on a set of residuals: it zero-tests each of them and is TRUE only when
every one is proven zero.

Products of exponentials are merged (``exp(a)*exp(b) -> exp(a+b)``,
``exp(a)**k -> exp(k*a)``, ``1/exp(a) -> exp(-a)``); this is the one
rewrite applied beyond rational-function arithmetic, and it keeps
inverse-pair cancellations exact.  A sum of polynomial products none
of which has an exp atom on both sides needs no merging, so
``_radd_products`` adds two or more of them into one numerator dict.  No
other function identities are applied.  The gcd works over the atoms,
where ``exp(2*x)`` and ``exp(x)**2`` are unrelated, so a denominator
holding a sum with exponentials can keep a common factor, and its form
then depends on the order of the arithmetic.  So the quotient rule skips
gcd(D, D') when D holds an exp atom, until exp forms are canonical.
"""

from __future__ import annotations

import enum
import math
import random
import sys
from bisect import bisect_left
from fractions import Fraction

from . import backend as _k
from ._gcd import poly_divexact, poly_gcd
from .errors import (
    BudgetError,
    DomainError,
    ExprError,
    SubstitutionError,
    SymbolicDivisionError,
    UnboundVariableError,
)

DEFAULT_SEED = 1013904223
DEFAULT_SAMPLES = 8
# A sampled numerator proves nonzero-ness only when it exceeds this many
# units of rounding, eps times the sum of its monomials' magnitudes.  The
# margin is wide because kernel arguments are rounded before exp, log,
# sin and cos see them, and that error is not bounded term by term.
ZERO_MARGIN = 2.0 ** 24

_RAT_ONE = (1, 1)
_ONE_POLY = {(): _RAT_ONE}
_ZERO_POLY: dict = {}
_RF_ONE = (_ONE_POLY, _ONE_POLY)


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


# ---------------------------------------------------------------------------
# values


class Expr:
    """A canonical value, built from its reduced pair ``(num, den)``."""

    __slots__ = ("_rf", "_frozen", "_hash")

    def __init__(self, rf):
        self._rf = rf
        self._frozen = None
        self._hash = None

    def frozen(self):
        """The frozen pair: the numerator's and the denominator's
        ``(monomial, coefficient)`` items, sorted by monomial."""
        f = self._frozen
        if f is None:
            num, den = self._rf
            f = self._frozen = (tuple([(m, num[m]) for m in sorted(num)]),
                                tuple([(m, den[m]) for m in sorted(den)]))
        return f

    def __lt__(self, other):
        if isinstance(other, Expr):
            return self.frozen() < other.frozen()
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.frozen())
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self._rf == other._rf

    # arithmetic combines the canonical pairs of its operands
    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr(_radd(self._rf, other._rf))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr(_radd(self._rf, _rneg(other._rf)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr(_radd(other._rf, _rneg(self._rf)))

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr(_rmul(self._rf, other._rf))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr(_rmul(self._rf, _rpow(other._rf, -1)))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr(_rmul(other._rf, _rpow(self._rf, -1)))

    def __pow__(self, k):
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return Expr(_rpow(self._rf, k))

    def __neg__(self):
        return Expr(_rneg(self._rf))

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"<expr {to_string(self)}>"


def _rf_of(e):
    """The reduced pair of ``e``; perfbench's tracer reads it."""
    return e._rf


def _const(v):
    """The constant of the int or Fraction ``v``."""
    return Expr(({(): (v.numerator, v.denominator)} if v else _ZERO_POLY, _ONE_POLY))


ZERO = _const(0)
ONE = _const(1)


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, Fraction)):
        return _const(x)
    return None


def as_expr(x) -> Expr:
    """``x`` as a canonical value: an expression is returned as it is, an
    int or a Fraction becomes its constant; idempotent."""
    e = _coerce(x)
    if e is None:
        raise TypeError(f"cannot interpret {x!r} as an expression")
    return e


def rational(num, den=1) -> Expr:
    return _const(Fraction(num, den))


_VARIABLES: dict = {}  # name -> the one-term monomial of the variable


def variable(name) -> Expr:
    name = str(name)
    return Expr(({_VARIABLES.setdefault(name, (((1, name), 1),)): _RAT_ONE}, _ONE_POLY))


def constant_value(e):
    """The value of ``e`` as a Fraction when it is a constant, else None."""
    num, den = as_expr(e)._rf
    if den != _ONE_POLY or len(num) > 1:
        return None
    if not num:
        return Fraction(0)
    c = num.get(())
    return None if c is None else Fraction(*c)


def exp(e) -> Expr:
    return _apply("exp", e)


def log(e) -> Expr:
    return _apply("log", e)


def sin(e) -> Expr:
    return _apply("sin", e)


def cos(e) -> Expr:
    return _apply("cos", e)


def expr_sum(terms) -> Expr:
    """Sum of expressions, added left to right on their canonical pairs."""
    r = None
    for t in terms:
        rt = as_expr(t)._rf
        r = rt if r is None else _radd(r, rt)
    return ZERO if r is None else Expr(r)


def expr_prod(factors) -> Expr:
    """Product of expressions, multiplied left to right on their canonical
    pairs."""
    r = None
    for f in factors:
        rf = as_expr(f)._rf
        r = rf if r is None else _rmul(r, rf)
    return ONE if r is None else Expr(r)


# ---------------------------------------------------------------------------
# rational-function layer
#
# Monomials hold atoms as tuples: a variable is ``(1, name)``, a function
# atom ``(5, name, argument)``.  An atom hashes and compares like a tuple;
# two function atoms of one name compare their arguments, as values.


def _function_key(name, arg) -> tuple:
    """The atom of the function application ``name(arg)``."""
    return (5, name, arg)


def _is_exp_key(a) -> bool:
    return a[0] == 5 and a[1] == "exp"


def _fix_exp(p):
    """Merge exponential atoms inside every monomial of ``p``."""
    r = {}
    for m, c in p.items():
        rest = []
        pieces = []
        for a, e in m:
            if _is_exp_key(a):
                pieces.append((a[2], e))
            else:
                rest.append((a, e))
        if len(pieces) == 1 and pieces[0][1] == 1:
            mm = m
        else:
            if pieces:
                arg = expr_sum(a if e == 1 else a * e for a, e in pieces)
                if arg != ZERO:
                    rest.append((_function_key("exp", arg), 1))
            mm = tuple(sorted(rest))
        _add_term(r, mm, c)
    return r


def _has_exp(p) -> bool:
    # variables (1, name) sort before function atoms (5, name, arg), so
    # only a monomial whose last atom is a function atom can hold an exp
    for m in p:
        if m and m[-1][0][0] == 5:
            for a, _e in m:
                if _is_exp_key(a):
                    return True
    return False


def _pmul(p, q):
    """The product of two exp-normal polynomials (at most one ``exp``
    atom per monomial, to the first power), exp-normal itself.  A product
    with an exp-free operand is exp-normal as it stands, so exponentials
    are merged only when both operands carry one."""
    r = _k.poly_mul(p, q)
    return _fix_exp(r) if _has_exp(p) and _has_exp(q) else r


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
    return arg_key[2] if arg_key is not None else None


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
        shift = {((_function_key("exp", -arg), 1),): _RAT_ONE}
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
    # canonical pairs are reduced: adding zero changes nothing
    if not n2:
        return r1
    if not n1:
        return r2
    if d1 == d2:
        if d1 is _ONE_POLY or d1 == _ONE_POLY:
            return (_k.poly_add(n1, n2), _ONE_POLY)
        return _reduce(_k.poly_add(n1, n2), d1)
    num = _k.poly_add(_pmul(n1, d2), _pmul(n2, d1))
    return _reduce(num, _pmul(d1, d2))


def _rmul(r1, r2):
    n1, d1 = r1
    n2, d2 = r2
    if r2 == _RF_ONE:
        return r1
    if r1 == _RF_ONE:
        return r2
    if (d1 is _ONE_POLY or d1 == _ONE_POLY) and (d2 is _ONE_POLY or d2 == _ONE_POLY):
        return (_pmul(n1, n2), _ONE_POLY)
    return _reduce(_pmul(n1, n2), _pmul(d1, d2))


def _radd_products(r, terms):
    """``r + s*x*y`` summed over the ``(s, x, y)`` of ``terms``, s = 1 or
    -1, on canonical pairs: into one copy of r's numerator when there are
    two or more products, every denominator is 1 and none merges exp
    atoms (``_pmul``); else by the ``_radd``/``_rmul`` fold, as cheap for one."""
    if len(terms) > 1 and r[1] == _ONE_POLY and all(
            x[1] == y[1] == _ONE_POLY and not (_has_exp(x[0]) and _has_exp(y[0]))
            for _s, x, y in terms):
        out = dict(r[0])
        for s, x, y in terms:
            _k.poly_add_mul(out, x[0] if s > 0 else _k.poly_neg(x[0]), y[0])
        return (out, _ONE_POLY)
    for s, x, y in terms:
        xy = _rmul(x, y)
        r = _radd(r, xy if s > 0 else _rneg(xy))
    return r


def _rneg(r):
    return (_k.poly_neg(r[0]), r[1])


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


def _apply(name, e) -> Expr:
    """``name(e)`` as a canonical value: a folded constant, or the
    function atom."""
    arg = as_expr(e)
    folded = _FOLDS.get((name, constant_value(arg)))
    if folded is not None:
        return folded
    return Expr(({((_function_key(name, arg), 1),): _RAT_ONE}, _ONE_POLY))


def is_polynomial(e) -> bool:
    """True when the canonical form has denominator 1 and no kernels."""
    num, den = as_expr(e)._rf
    if den != _ONE_POLY:
        return False
    return not _has_kernel_poly(num)


def _has_kernel_poly(p):
    # a monomial holds a function atom exactly when its last atom is one
    for m in p:
        if m and m[-1][0][0] == 5:  # function-application rank
            return True
    return False


def polynomial_terms(e) -> dict:
    """Coefficients of a polynomial expression, keyed by monomials given
    as sorted tuples of (variable name, exponent); raises on non-polynomial
    input (denominators or kernels)."""
    e = as_expr(e)
    num, den = e._rf
    if den != _ONE_POLY or _has_kernel_poly(num):
        raise ExprError(f"not a polynomial: {to_string(e)}")
    out = {}
    for m, c in num.items():
        out[tuple(sorted((a[1], k) for a, k in m))] = Fraction(*c)
    return out


# ---------------------------------------------------------------------------
# structural operations


def free_variables(e) -> set:
    """Names of all variables occurring in the canonical value ``e``
    (inside kernels too): ``x - x`` names none."""
    out = set()
    _collect_vars(as_expr(e), out, set())
    return out


def _collect_vars(e, out, seen):
    for p in e._rf:
        for m in p:
            for a, _e in m:
                if a not in seen:
                    seen.add(a)
                    if a[0] == 1:  # variable rank
                        out.add(a[1])
                    else:
                        _collect_vars(a[2], out, seen)


def substitute(e, bindings) -> Expr:
    """Simultaneous substitution of variables into the canonical form.

    Rejects binding sets in which any bound variable occurs in any
    replacement expression (directly, and therefore also transitively).
    The substitution acts on the canonical value of ``e``: ``x * x^(-1)``
    is ``1`` before anything is substituted, so ``x -> 0`` gives ``1``.
    A denominator of the canonical form that the substitution makes zero
    raises ``SymbolicDivisionError``.
    """
    e = as_expr(e)
    named = {str(k): as_expr(v) for k, v in bindings.items()}
    bound = set(named)
    for name, repl in named.items():
        hit = free_variables(repl) & bound
        if hit:
            raise SubstitutionError(
                f"replacement for {name!r} contains bound variable(s) {sorted(hit)}"
            )
    return _substitute(e, named)


def _substitute(e, named) -> Expr:
    """``substitute`` of the map ``named`` (name -> value) into the value
    ``e``, for a caller that knows the map is closed: no replacement
    names a bound variable, so nothing is re-checked."""
    if not named:
        return e
    out = _Substitution(named).rf(e._rf)
    return e if out is None else Expr(out)


class _Substitution:
    """Images of canonical pairs under a simultaneous substitution.

    Each atom's image is worked out once per instance: the pair of its
    replacement for a bound variable, the function rebuilt on the image
    of its argument for a function atom, None for an untouched atom.  A
    pair ``N/D`` is mapped over one common denominator: with ``p/q`` the
    image of a changed atom ``a`` and ``k`` its top exponent in ``N`` and
    ``D``, a monomial holding ``a^e`` is multiplied by ``p^e * q^(k-e)``,
    so both sides gain the factor ``q^k`` and a single ``_reduce``
    cancels what they share.
    """

    def __init__(self, named):
        self.named = named
        self.memo = {}

    def atom(self, key):
        if key[0] == 1:  # variable rank
            repl = self.named.get(key[1])
            img = None if repl is None else repl._rf
        else:
            arg = self.rf(key[2]._rf)
            img = None if arg is None else _apply(key[1], Expr(arg))._rf
        self.memo[key] = img
        return img

    def rf(self, r):
        """The image of the pair ``r``; None when no atom of it changes."""
        memo = self.memo
        top = {}  # changed atom -> its top exponent in r
        for p in r:
            for m in p:
                for a, e in m:
                    # negative powers live in the denominator
                    assert e > 0, "canonical monomials carry positive exponents"
                    img = memo[a] if a in memo else self.atom(a)
                    if img is not None and e > top.get(a, 0):
                        top[a] = e
        if not top:
            return None
        factors = {}  # exponents of the changed atoms -> their factor

        def image(p):
            out = {}
            for m, c in p.items():
                exps = dict.fromkeys(top, 0)
                rest = []
                for a, e in m:
                    if a in exps:
                        exps[a] = e
                    else:
                        rest.append((a, e))
                key = tuple(exps.values())
                f = factors.get(key)
                if f is None:
                    f = _ONE_POLY
                    for a, e in exps.items():
                        pa, qa = memo[a]
                        f = _pmul(f, _pmul(_ppow(pa, e), _ppow(qa, top[a] - e)))
                    factors[key] = f
                for mm, cc in _pmul({tuple(rest): c}, f).items():
                    _add_term(out, mm, cc)
            return out

        num, den = image(r[0]), image(r[1])
        if not den:
            raise SymbolicDivisionError("substitution makes a denominator zero")
        return _reduce(num, den)


def pdiff(e, v) -> Expr:
    """Partial derivative with respect to the variable ``v``; every other
    variable (jet coordinates included) is an independent symbol."""
    name = str(v)
    return Derivation(lambda n: ONE if n == name else None)(e)


def _outer_derivative(key):
    """f'(g) of the function atom f(g), as a canonical pair."""
    name, arg = key[1], key[2]
    if name == "exp":
        return ({((key, 1),): _RAT_ONE}, _ONE_POLY)
    if name == "log":
        return _rpow(arg._rf, -1)
    if name == "sin":
        return cos(arg)._rf
    return _rneg(sin(arg)._rf)


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


_CONSTANT = (None, None)  # the memo entry of an atom the derivation fixes


class Derivation:
    """The derivation along one direction, as a callable on values.

    A derivation is fixed by its values on the variables: ``of_var(name)``
    returns the image of each variable name (inside kernels too), or None
    when the derivation treats the variable as a constant, and must give
    a name the same image every time.  Function kernels follow the chain
    rule.

    Each atom's derivative is worked out once.  A variable's image goes
    into ``images``, the one memo the instance keeps across calls; a
    function atom's derivative, whose key holds its whole argument, goes
    into ``memo``, a dict for the current call that is made only when the
    call meets a function atom, so the lasting memo grows only with the
    variables met and no call copies it.  An entry depends on its atom
    alone, so results do not depend on what was derived before.  A
    polynomial is walked once, monomial by monomial, with the product
    rule over its atoms, into one numerator.  An image is direct when it
    is a constant ``c`` or one exp-free atom power ``c*b^f``, as the
    image of a variable under a total derivative or ``pdiff`` is: the
    monomial then becomes the product in one list splice, which drops or
    lowers the derived atom, places ``b^f`` at the position
    ``bisect_left`` finds, adding ``f`` to the exponent of a ``b``
    already there, and is made a tuple once.  Every other image, a
    multi-atom monomial such as ``2*x*u`` included, is multiplied in once
    per atom through the partial derivative in that atom, as sums and
    quotients are.  A quotient ``num/den`` takes the quotient rule over
    ``den*den/g``, ``g = gcd(den, D den)``, and one ``_reduce``, so
    results are canonical like every other pair.  A ``den`` with an
    ``exp`` atom takes ``g = 1``, the rule over den^2, as its reduced
    form depends on the order of the arithmetic until exp forms are
    canonical.
    """

    def __init__(self, of_var):
        self.of_var = of_var
        self.images = {}  # variable key -> memo entry, kept across calls
        self.memo = None  # function atom key -> memo entry, for one call

    def __call__(self, e) -> Expr:
        self.memo = None
        return Expr(self.rf(as_expr(e)._rf))

    def atom(self, key):
        """The atom's memo entry: ``(monomial, coefficient)`` for a direct
        image, whose monomial is ``()`` or one exp-free ``((b, f),)``,
        ``(None, (num, den))`` for any other nonzero pair, ``_CONSTANT``
        for zero."""
        if key[0] == 1:  # variable rank
            image = self.of_var(key[1])
            r = None if image is None else image._rf
            memo = self.images
        else:
            memo = self.memo
            if memo is None:
                memo = self.memo = {}
            else:
                hit = memo.get(key)
                if hit is not None:
                    return hit
            inner = self.rf(key[2]._rf)
            r = _rmul(_outer_derivative(key), inner) if inner[0] else None
        if r is None or not r[0]:
            hit = _CONSTANT
        else:
            num, den = r
            hit = (None, r)
            if len(num) == 1 and den == _ONE_POLY:
                ((m, c),) = num.items()
                if not m or (len(m) == 1 and not _is_exp_key(m[0][0])):
                    hit = (m, c)
        memo[key] = hit
        return hit

    def poly(self, p):
        images = self.images
        direct = {}  # the numerator built monomial by monomial
        partial = {}  # atom key -> (partial derivative of p in it, its image)
        for m, c in p.items():
            for idx, (a, e) in enumerate(m):
                hit = images.get(a)
                if hit is None:
                    hit = self.atom(a)
                if hit is _CONSTANT:
                    continue
                rest = list(m)
                if e == 1:
                    del rest[idx]
                    ce = c
                else:
                    rest[idx] = (a, e - 1)
                    ce = _k.rat_mul(c, (e, 1))
                gm, gc = hit
                if gm is None:
                    pa = partial.get(a)
                    if pa is None:
                        pa = partial[a] = ({}, gc)
                    _add_term(pa[0], tuple(rest), ce)
                    continue
                if gm:
                    ((b, f),) = gm
                    k = bisect_left(rest, (b,))
                    if k < len(rest) and rest[k][0] == b:
                        rest[k] = (b, rest[k][1] + f)
                    else:
                        rest.insert(k, gm[0])
                _add_term(direct, tuple(rest), ce if gc == _RAT_ONE else _k.rat_mul(ce, gc))
        out = (direct, _ONE_POLY)
        for pa, image in partial.values():
            if pa:
                out = _radd(out, _rmul((pa, _ONE_POLY), image))
        return out

    def rf(self, r):
        num, den = r
        a, b = self.poly(num)
        if den == _ONE_POLY:
            return (a, b)
        c, e = self.poly(den)
        if not (a or c):
            return (_ZERO_POLY, _ONE_POLY)
        # (a/b)/den - num*(c/e)/den^2 = (a*e*h - num*k*b) / (b*e*den*h)
        # with h = den/g, k = c/g; g = 1 keeps exp forms as they were
        g = _ONE_POLY if _has_exp(den) else poly_gcd(den, c)
        h = poly_divexact(den, g)
        top = _k.poly_sub(_pmul(_pmul(a, e), h), _pmul(_pmul(num, poly_divexact(c, g)), b))
        return _reduce(top, _pmul(_pmul(b, e), _pmul(den, h)))


_MATH = {"exp": math.exp, "sin": math.sin, "cos": math.cos}


def eval_expr(e, point) -> float:
    """Numeric value of ``e`` at ``point`` (variable name -> number): the
    atoms first, then numerator over denominator."""
    vals = {str(k): v for k, v in point.items()}
    return _eval_rf(as_expr(e)._rf, vals)


def _eval_atom(key, vals):
    if key[0] == 1:  # variable rank
        if key[1] not in vals:
            raise UnboundVariableError(f"variable {key[1]!r} is not bound")
        return float(vals[key[1]])
    v = _eval_rf(key[2]._rf, vals)
    if key[1] == "log":
        if v <= 0.0:
            raise DomainError(f"log of non-positive value {v}")
        return math.log(v)
    try:
        return _MATH[key[1]](v)
    except OverflowError:
        raise DomainError("overflow in kernel function") from None


def _eval_rf(rf, vals):
    atoms = {a for p in rf for m in p for a, _k in m}
    values = {a: _eval_atom(a, vals) for a in atoms}
    try:
        num, den = [_poly_sample(p, values) for p in rf]
    except OverflowError:
        num = None
    if num is None or den is None:
        raise DomainError("overflow in evaluation")
    if den[0] == 0.0:
        raise DomainError("zero denominator")
    return num[0] / den[0]


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


def zero_verdict(e, *, seed=None) -> Verdict:
    """Classify ``e`` as zero.

    TRUE and FALSE are exact on the rational fragment.  When the
    canonical form ``N/D`` is nonzero but contains kernels, ``N`` is
    sampled at ``DEFAULT_SAMPLES`` random rational points inside the
    kernel domains where ``D`` is finite and nonzero.  FALSE needs one sample
    whose value exceeds ``ZERO_MARGIN`` times eps times the sum of
    ``N``'s monomial magnitudes there, which rounding cannot explain;
    otherwise the verdict is PROBABLY (never silently TRUE).  Domain
    errors and overflow trigger resampling up to a cap.
    """
    nf = as_expr(e)
    num, den = nf._rf
    if not num:
        return Verdict.TRUE
    if not (_has_kernel_poly(num) or _has_kernel_poly(den)):
        return Verdict.FALSE
    atoms = {a for p in (num, den) for m in p for a, _k in m}
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    names = sorted(free_variables(nf))
    good = 0
    attempts = 0
    while good < DEFAULT_SAMPLES:
        attempts += 1
        if attempts > 25 * DEFAULT_SAMPLES:
            raise DomainError("could not sample inside kernel domains")
        point = {n: Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for n in names}
        try:
            values = {a: _eval_atom(a, point) for a in atoms}
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


class Check:
    """The verdict on a dict of residuals, each zero-tested in key order
    and combined by :meth:`Verdict.combine`: TRUE only when every residual
    is proven zero.  ``residuals`` keeps them all, zeros included, and
    ``probable`` lists the keys whose test gave PROBABLY."""

    __slots__ = ("verdict", "residuals", "probable")

    def __init__(self, residuals, *, seed=None):
        verdicts = [(key, zero_verdict(e, seed=seed)) for key, e in residuals.items()]
        self.verdict = Verdict.combine(v for _key, v in verdicts)
        self.residuals = residuals
        self.probable = tuple(key for key, v in verdicts if v is Verdict.PROBABLY)

    def __bool__(self):
        return self.verdict is Verdict.TRUE


# ---------------------------------------------------------------------------
# printing


class _Printer:
    """Text of one canonical value, printed straight from its pair in the
    order of the module docstring: each polynomial's monomials are sorted
    and written term by term.  The texts of function atoms, whose
    arguments print from their own pairs, are remembered for one call."""

    def __init__(self):
        self.texts = {}

    def function(self, a):
        """The text of the function atom ``a``, remembered."""
        t = self.texts[a] = f"{a[1]}({self.pair(a[2]._rf)})"
        return t

    def poly(self, p):
        get = self.texts.get
        parts = []
        for m in sorted(p):
            n, d = p[m]
            parts.append(" - " if n < 0 else " + ")
            c = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            fs = [] if c == "1" and m else [c]
            for a, e in m:
                t = a[1] if a[0] == 1 else get(a) or self.function(a)
                fs.append(t if e == 1 else f"{t}^{e}")
            parts.append("*".join(fs))
        if not parts:
            return "0"
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def pair(self, rf):
        num, den = rf
        if den == _ONE_POLY:
            return self.poly(num)
        return f"({self.poly(num)})/({self.poly(den)})"


def to_string(e) -> str:
    """Canonical text; re-parsing reproduces the same canonical form.  An
    integer past Python's digit limit on string conversion raises
    ``BudgetError``."""
    try:
        return _Printer().pair(e._rf)
    except ValueError:  # str() of an integer past the limit
        raise BudgetError(
            f"an integer to print is over the {sys.get_int_max_str_digits()}-digit limit"
        ) from None
