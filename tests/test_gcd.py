"""The polynomial gcd against sympy.

For random ``a``, ``b`` and ``g`` over ``x``, ``u``, ``u_x`` and one
opaque kernel atom, ``poly_gcd(a*g, b*g)`` must equal sympy's gcd scaled
to the kernel's leading coefficient 1 (the coefficient of the largest
monomial), and ``poly_divexact`` must divide both products by it exactly;
neither may change its inputs.
Each input shape is drawn so that it reaches one branch of ``poly_gcd``:
a one-term input, inputs without a shared atom, a gcd that lives in the
shared atoms only, the general remainder sequence, and the remainder
sequence on integer lists when both inputs hold the one atom ``x``.
"""

import copy
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsym import _gcd, _kernel_py
from jetsym.expr import sin, variable

from helpers import atom_key

sp = pytest.importorskip("sympy")

NAMES = ("x", "u", "u_x")
X, U, UX = (atom_key(variable(n)) for n in NAMES)
# sin(x + u): a function atom, ordered after every variable
K = atom_key(sin(variable("x") + variable("u")))
ATOMS = (X, U, UX, K)
SYMBOLS = dict(zip(ATOMS, sp.symbols("x u u_x k")))


def _monomial(chosen):
    exps = {}
    for a in chosen:
        exps[a] = exps.get(a, 0) + 1
    return tuple(sorted(exps.items()))


COEFFICIENTS = st.builds(_kernel_py.rat_make, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                         st.integers(1, 3))


@st.composite
def polys(draw, atoms, min_terms=1, max_terms=3, max_degree=2):
    """A polynomial over ``atoms`` with distinct monomials and small nonzero
    rational coefficients."""
    monos = (st.lists(st.sampled_from(atoms), max_size=max_degree).map(_monomial)
             if atoms else st.just(()))
    chosen = draw(st.lists(monos, min_size=min_terms, max_size=max_terms, unique=True))
    return {m: draw(COEFFICIENTS) for m in chosen}


def monomials(atoms):
    return polys(atoms, max_terms=1)


# one atom, degree up to 4 per factor and so up to 8 per input; a
# constant factor makes a coprime pair (g) or a gcd that is the whole
# smaller input (a)
UNIVARIATE = st.one_of(polys((X,), min_terms=2, max_terms=5, max_degree=4),
                       polys((), max_terms=1))


# shape -> strategies for (a, b, g)
SHAPES = {
    "one-term": (monomials(ATOMS), polys(ATOMS), monomials(ATOMS)),
    "disjoint": (polys((X, U), min_terms=2), polys((UX, K), min_terms=2),
                 polys((), max_terms=1)),
    "shared-only": (polys((X, U), min_terms=2), polys((X, K), min_terms=2),
                    polys((X,), min_terms=2)),
    "general": (polys(ATOMS, min_terms=2), polys(ATOMS, min_terms=2),
                polys(ATOMS, min_terms=2)),
    "univariate": (UNIVARIATE, polys((X,), min_terms=2, max_terms=5, max_degree=4),
                   UNIVARIATE),
}

# helpers each shape must reach (at least once over its examples), and
# helpers it must never reach
BRANCHES = {
    "one-term": (("_monomial_gcd",), ("_coefficients", "_pseudo_rem")),
    "disjoint": ((), ("_monomial_gcd", "_coefficients", "_pseudo_rem")),
    "shared-only": (("_coefficients",), ()),
    "general": (("_pseudo_rem",), ()),
    "univariate": (("_dense_gcd",), ("_pseudo_rem",)),
}


def to_sympy(p):
    total = sp.Integer(0)
    for m, c in p.items():
        term = sp.Rational(*_kernel_py.rat_parts(c))
        for a, e in m:
            term *= SYMBOLS[a] ** e
        total += term
    return total


def from_sympy(expr):
    """A sympy polynomial as a kernel dict, scaled to leading coefficient 1."""
    poly = sp.Poly(expr, *SYMBOLS.values())
    p = {}
    for exps, c in poly.terms():
        mono = tuple(sorted((a, e) for a, e in zip(ATOMS, exps) if e))
        p[mono] = Fraction(int(c.p), int(c.q))
    lead = p[max(p)]
    return {m: c / lead for m, c in p.items()}


def as_fractions(p):
    return {m: Fraction(*_kernel_py.rat_parts(c)) for m, c in p.items()}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_gcd_matches_sympy(shape):
    reached, avoided = BRANCHES[shape]
    hits = dict.fromkeys(reached + avoided, 0)

    def spy(name):
        real = getattr(_gcd, name)

        def wrapped(*args):
            hits[name] += 1
            return real(*args)
        return wrapped

    @settings(max_examples=40, deadline=None)
    @given(*SHAPES[shape])
    def check(a, b, g):
        p = _kernel_py.poly_mul(a, g)
        q = _kernel_py.poly_mul(b, g)
        before = copy.deepcopy((p, q))
        got = _gcd.poly_gcd(p, q)
        assert (p, q) == before  # the gcd changes only views it builds
        want = from_sympy(sp.gcd(to_sympy(p), to_sympy(q)))
        assert as_fractions(got) == want
        for f in (p, q):
            before = copy.deepcopy((f, got))
            quot = _gcd.poly_divexact(f, got)
            assert (f, got) == before
            assert _kernel_py.poly_mul(quot, got) == f

    with mock.patch.multiple(_gcd, **{name: spy(name) for name in hits}):
        check()
    for name in reached:
        assert hits[name], (shape, name)
    for name in avoided:
        assert not hits[name], (shape, name)


def test_gcd_of_equal_and_zero_inputs_is_monic():
    rat = _kernel_py.rat_make
    p = {((X, 1),): rat(2, 1), ((U, 2),): rat(-3, 1)}
    # x sorts after u, so x carries the leading coefficient
    assert _gcd.poly_gcd(p, p) == {((X, 1),): rat(1, 1), ((U, 2),): rat(-3, 2)}
    assert _gcd.poly_gcd({}, p) == _gcd.poly_gcd(p, p)
    assert _gcd.poly_gcd(p, {}) == _gcd.poly_gcd(p, p)

