"""The polynomial kernel matches exact rational and ring semantics."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetsym import _kernel_py
from jetsym.expr import Var

ATOMS = [Var(n).sort_key() for n in ("x", "t", "u", "u_x")]


def rat(n, d):
    return _kernel_py.rat_make(n, d)


@st.composite
def rationals(draw):
    return rat(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 5))
    p = {}
    for _ in range(n_terms):
        n_atoms = draw(st.integers(0, 3))
        chosen = draw(st.permutations(ATOMS))[:n_atoms]
        mono = tuple(sorted((a, draw(st.integers(1, 3))) for a in chosen))
        c = draw(rationals())
        acc = _kernel_py.rat_add(p.get(mono, (0, 1)), c)
        if acc[0]:
            p[mono] = acc
        else:
            p.pop(mono, None)
    return p


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals())
def test_rational_pairs_match_fraction_semantics(a, b):
    fa, fb = Fraction(*a), Fraction(*b)
    assert Fraction(*_kernel_py.rat_add(a, b)) == fa + fb
    assert Fraction(*_kernel_py.rat_mul(a, b)) == fa * fb
    assert Fraction(*_kernel_py.rat_sub(a, b)) == fa - fb
    n, d = _kernel_py.rat_add(a, b)
    import math
    assert d > 0 and (n == 0 or math.gcd(n, d) == 1)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms_python_kernel(p, q, r):
    k = _kernel_py
    assert k.poly_add(p, q) == k.poly_add(q, p)
    assert k.poly_mul(p, q) == k.poly_mul(q, p)
    assert k.poly_mul(p, k.poly_add(q, r)) == k.poly_add(k.poly_mul(p, q), k.poly_mul(p, r))
    assert k.poly_sub(p, p) == {}
