"""Compatibility-structure tests: flatness, potentials, Darboux, gauge moves."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from forms import Form, basis_key_dx, dx, exterior_derivative, inc, zero_mu
from helpers import rand_closed_scalar_mu, rand_point_field, rand_poly, rand_unipotent_gauge
from jetsym.errors import (
    EquationError,
    GaugeError,
    NonPolynomialError,
    NoPotentialError,
    PotentialNotClosedError,
)
from jetsym import expr, gauge
from jetsym.expr import Check, Verdict, exp, rational, zero_verdict
from jetsym.gauge import (
    GaugeFunction,
    _solve_exact,
    darboux_derivative,
    maurer_cartan_check,
    scalar_potential,
    verify_gauge_equivalence_scalar,
)
from jetsym.jets import JetSpec, MuForm, total_derivative
from jetsym.parsing import parse
from jetsym.prolong import PointVectorField
from jetsym.symmetry import DifferentialEquation, restrict_to_solution_manifold

ODE1 = JetSpec(("x",), ("u",), 1)
ODE2 = JetSpec(("x",), ("u",), 2)
PDE1 = JetSpec(("x", "t"), ("u",), 1)
PDE2 = JetSpec(("x", "t"), ("u",), 2)
SYS2 = JetSpec(("x", "t"), ("u", "v"), 1)


def mat(spec, rows):
    return tuple(tuple(parse(e) for e in row) for row in rows)


# --- flatness ------------------------------------------------------------------

def test_scalar_flatness_reduces_to_closedness():
    mu = MuForm.scalar(PDE2, [parse("u_x"), parse("u_t")])
    assert maurer_cartan_check(mu).verdict is Verdict.TRUE
    mu2 = MuForm.scalar(PDE2, [parse("u"), parse("0")])
    assert maurer_cartan_check(mu2).verdict is Verdict.FALSE


def test_constant_matrix_counterexample():
    mu = MuForm(SYS2, [
        mat(SYS2, [["0", "1"], ["0", "0"]]),
        mat(SYS2, [["0", "0"], ["1", "0"]]),
    ])
    res = maurer_cartan_check(mu)
    assert res.verdict is Verdict.FALSE
    R = res.residuals
    assert R[0, 1, 0, 0] == rational(1)
    assert R[0, 1, 0, 1] == rational(0)
    assert R[0, 1, 1, 0] == rational(0)
    assert R[0, 1, 1, 1] == rational(-1)


def test_flatness_lists_its_probable_entries():
    # closed only up to sin^2 + cos^2 = 1, which zero testing does not
    # prove; the curvature entry (i, k, a, b) = (0, 1, 0, 0) reads PROBABLY
    mu = MuForm.scalar(PDE1, [parse("t*(sin(x)^2 + cos(x)^2)"), parse("x")])
    res = maurer_cartan_check(mu)
    assert res.verdict is Verdict.PROBABLY
    assert res.probable == ((0, 1, 0, 0),)
    eq = DifferentialEquation.from_strings(PDE1, {"u_t": "0"})
    on_eq = maurer_cartan_check(mu, eq)
    assert on_eq.verdict is Verdict.PROBABLY
    assert on_eq.probable == ((0, 1, 0, 0),)


def test_equal_constant_matrices_pass():
    L = mat(SYS2, [["0", "1"], ["0", "0"]])
    mu = MuForm(SYS2, [L, L])
    assert maurer_cartan_check(mu).verdict is Verdict.TRUE


def test_on_equation_flatness():
    # fails globally, passes on the equation u_t = 0
    mu = MuForm.scalar(PDE1, [parse("u_t"), parse("0")])
    eq = DifferentialEquation.from_strings(PDE1, {"u_t": "0"})
    assert maurer_cartan_check(mu).verdict is Verdict.FALSE
    assert maurer_cartan_check(mu, eq).verdict is Verdict.TRUE


def test_flatness_on_an_equation_of_another_jet_space_raises():
    # the form lives on (x, t; u); restricting by w_y = 0 on (x, y; w)
    # would judge the curvature by an unrelated equation
    mu = MuForm.scalar(PDE1, [parse("u_t"), parse("0")])
    other = JetSpec(("x", "y"), ("w",), 1)
    eq = DifferentialEquation.from_strings(other, {"w_y": "0"})
    with pytest.raises(EquationError, match="different jet spaces"):
        maurer_cartan_check(mu, eq)
    # the same space built again is the same space
    same = DifferentialEquation.from_strings(JetSpec(("x", "t"), ("u",), 1), {"u_t": "0"})
    assert maurer_cartan_check(mu, same).verdict is Verdict.TRUE


def test_globally_flat_forms_pass_on_any_equation():
    rng = random.Random(31)
    eq = DifferentialEquation.from_strings(PDE1, {"u_t": "u*u_x"})
    for _ in range(3):
        mu, _phi = rand_closed_scalar_mu(rng, PDE1)
        assert maurer_cartan_check(mu, eq).verdict is Verdict.TRUE


def test_constant_residual_fails_on_every_equation():
    mu = MuForm(SYS2, [
        mat(SYS2, [["0", "1"], ["0", "0"]]),
        mat(SYS2, [["0", "0"], ["1", "0"]]),
    ])
    eq = DifferentialEquation.from_strings(
        SYS2, {"u_t": "u_x", "v_t": "v_x"}
    )
    assert maurer_cartan_check(mu, eq).verdict is Verdict.FALSE


@pytest.mark.parametrize("spec, eq, rows", [
    (PDE1, {"u_t": "u*u_x"}, [["u_t"], ["u_x"]]),
    (PDE1, {"u_t": "0"}, [["t*(sin(x)^2 + cos(x)^2)"], ["x"]]),
    (PDE2, {"u_xx": "u_tt"}, [["u_t"], ["u_x"]]),
    (SYS2, {"u_t": "u_x", "v_t": "v*u_x"},
     [[["0", "u_t"], ["v", "0"]], [["x", "0"], ["u_x", "v_x"]]]),
])
def test_flatness_on_an_equation_checks_the_restricted_curvature(spec, eq, rows):
    """The check on an equation is the ``Check`` of the form's curvature
    entries, each restricted to the solution manifold: same keys, same
    residuals, same verdict and same probable keys."""
    if spec.q == 1:
        mu = MuForm.scalar(spec, [parse(l) for (l,) in rows])
    else:
        mu = MuForm(spec, [mat(spec, M) for M in rows])
    eq = DifferentialEquation.from_strings(spec, eq)
    want = Check({key: restrict_to_solution_manifold(e, eq)
                  for key, e in mu.curvature().items()})
    got = maurer_cartan_check(mu, eq)
    assert got.residuals == want.residuals
    assert list(got.residuals) == list(mu.curvature())
    assert (got.verdict, got.probable) == (want.verdict, want.probable)
    assert maurer_cartan_check(mu).residuals == mu.curvature()


# --- scalar potentials ----------------------------------------------------------

def test_potential_of_du():
    mu = MuForm.scalar(PDE1, [parse("u_x"), parse("u_t")])
    phi = scalar_potential(mu)
    for i in range(2):
        assert total_derivative(phi, i, PDE1) == mu.lambdas[i]
    assert phi - parse("u") == rational(0)


def test_potential_of_zero_and_dx():
    assert scalar_potential(zero_mu(ODE1)) == rational(0)
    phi = scalar_potential(MuForm.scalar(ODE1, [rational(1)]))
    assert total_derivative(phi, 0, ODE1) == rational(1)


def test_potential_errors():
    with pytest.raises(PotentialNotClosedError):
        scalar_potential(MuForm.scalar(PDE1, [parse("u"), parse("0")]))
    with pytest.raises(NonPolynomialError):
        scalar_potential(MuForm.scalar(ODE1, [parse("1/u")]))
    # closed (p = 1) but with no polynomial potential on any jet space
    with pytest.raises(NoPotentialError):
        scalar_potential(MuForm.scalar(ODE1, [parse("u")]))


def test_potential_recovers_random_construction():
    rng = random.Random(32)
    for spec in (PDE1, PDE2):
        for _ in range(4):
            mu, phi = rand_closed_scalar_mu(rng, spec)
            found = scalar_potential(mu)
            for i in range(spec.p):
                assert total_derivative(found - phi, i, spec) == rational(0)


def dense_solve(aug, ncols):
    """Reference: Gauss-Jordan elimination over full rows of an augmented
    matrix, pivoting column by column on the first remaining nonzero
    entry; one solution with free unknowns at zero, or None."""
    rows = [r[:] for r in aug]
    pivot_of = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_of[c] = r
        r += 1
        if r == len(rows):
            break
    if any(not any(row[:ncols]) and row[ncols] for row in rows):
        return None
    out = [Fraction(0)] * ncols
    for c, ri in pivot_of.items():
        out[c] = rows[ri][ncols]
    return out


def test_sparse_solve_agrees_with_dense_elimination():
    rng = random.Random(4051)
    inconsistent = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        aug = [[Fraction(rng.choice([0, 0, 0, 1, -1, 2, 3]), rng.choice([1, 2]))
                for _ in range(ncols + 1)] for _ in range(nrows)]
        if rng.random() < 0.3:  # a row repeated with a shifted right-hand side
            aug.append(aug[0][:ncols] + [aug[0][ncols] + 1])
        sparse = [{c: v for c, v in enumerate(row) if v} for row in aug]
        expected = dense_solve(aug, ncols)
        assert _solve_exact(sparse, ncols) == expected
        inconsistent += expected is None
    assert 30 < inconsistent < 200


# --- gauge functions and Darboux derivatives -------------------------------------

def test_gauge_identity_has_zero_darboux_derivative():
    gamma = GaugeFunction(SYS2, mat(SYS2, [["1", "0"], ["0", "1"]]))
    assert darboux_derivative(gamma) == zero_mu(SYS2)


def test_gauge_scalar_exponential():
    spec = PDE1
    phi = parse("x*u + t")
    gamma = GaugeFunction(
        spec,
        ((exp(phi),),),
        inverse=((exp(-phi),),),
    )
    mu = darboux_derivative(gamma)
    for i in range(spec.p):
        assert mu.lambdas[i] == total_derivative(phi, i, spec)


def test_gauge_unipotent_example():
    gamma = GaugeFunction(JetSpec(("x",), ("u", "v"), 1), mat(SYS2, [["1", "u"], ["0", "1"]]))
    mu = darboux_derivative(gamma)
    assert mu.entry(0, 0, 1) == parse("u_x")
    assert mu.entry(0, 0, 0) == rational(0)
    assert mu.entry(0, 1, 0) == rational(0)
    assert mu.entry(0, 1, 1) == rational(0)


def test_gauge_validation():
    with pytest.raises(GaugeError):
        GaugeFunction(SYS2, mat(SYS2, [["1", "u"], ["v", "1"]]))  # not triangular
    with pytest.raises(GaugeError):
        GaugeFunction(SYS2, mat(SYS2, [["2", "u"], ["0", "1"]]))  # diagonal not 1
    with pytest.raises(GaugeError):
        GaugeFunction(
            SYS2,
            mat(SYS2, [["1", "u"], ["0", "1"]]),
            inverse=mat(SYS2, [["1", "u"], ["0", "1"]]),  # wrong inverse
        )


def test_copying_a_gauge_does_not_check_it_again(monkeypatch):
    # a copy is the frozen value itself; a pickle, which may come from
    # another process, rebuilds through __init__ and checks the inverse
    spec = JetSpec(("x",), ("u", "v", "w"), 1)
    gamma = GaugeFunction(spec, rand_unipotent_gauge(random.Random(5), spec))
    calls = []

    def spy(e, *, seed=None):
        calls.append(e)
        return zero_verdict(e, seed=seed)

    monkeypatch.setattr(gauge, "zero_verdict", spy)
    assert copy.deepcopy(gamma) is gamma and copy.copy(gamma) is gamma
    assert calls == []
    assert pickle.loads(pickle.dumps(gamma)) == gamma
    assert len(calls) == 9


def test_darboux_derivatives_are_flat():
    rng = random.Random(33)
    for q in (2, 3):
        for p in (1, 2):
            spec = JetSpec(("x", "t")[:p], ("u", "v", "w")[:q], 1)
            for _ in range(3):
                gamma = GaugeFunction(spec, rand_unipotent_gauge(rng, spec))
                mu = darboux_derivative(gamma)
                assert maurer_cartan_check(mu).verdict is Verdict.TRUE


def test_darboux_then_potential_consistency():
    # scalar case: the potential recovered from exp(phi) differs from phi
    # by a function with vanishing total derivatives
    spec = PDE1
    rng = random.Random(34)
    for _ in range(3):
        phi = rand_poly(rng, ["x", "t", "u"], max_degree=2)
        gamma = GaugeFunction(
            spec,
            ((exp(phi),),),
            inverse=((exp(-phi),),),
        )
        mu = darboux_derivative(gamma)
        recovered = scalar_potential(mu)
        for i in range(spec.p):
            assert total_derivative(phi - recovered, i, spec) == rational(0)


# --- flatness as a two-form identity ----------------------------------------------

def _horizontalize(tau, spec):
    """Project a two-form to its horizontal part by du^a_J -> u^a_{J,i} dx^i."""

    def expand(key):
        # returns [(dx-key, coefficient-expr)]
        if key[0] == "x":
            return [(key, rational(1))]
        a, J = key[1], key[2]
        return [
            (basis_key_dx(i), spec.jet_var(a, inc(J, i)))
            for i in range(spec.p)
        ]

    acc = {}
    for (k1, k2), c in tau.coeffs.items():
        for e1, f1 in expand(k1):
            for e2, f2 in expand(k2):
                if e1 == e2:
                    continue
                if e1[1] < e2[1]:
                    acc.setdefault((e1, e2), []).append(c * f1 * f2)
                else:
                    acc.setdefault((e2, e1), []).append(rational(-1) * c * f1 * f2)
    from jetsym.expr import expr_sum
    return Form({k: expr_sum(v) for k, v in acc.items()})


def test_flatness_residual_equals_two_form_expansion():
    # the residual matrices match the coefficients of D(mu) + mu ^ mu
    rng = random.Random(35)
    for _ in range(4):
        spec = SYS2
        mats = [
            tuple(
                tuple(rand_poly(rng, ["x", "t", "u", "v"], 1, 2) for _ in range(2))
                for _ in range(2)
            )
            for _ in range(2)
        ]
        mu = MuForm(spec, mats)
        residuals = mu.curvature()
        for a in range(2):
            for b in range(2):
                entry_form = dx(0).scale(mu.entry(0, a, b)) + dx(1).scale(
                    mu.entry(1, a, b)
                )
                d_part = _horizontalize(exterior_derivative(entry_form, spec), spec)
                wedge_cross = []
                for c in range(2):
                    # (mu ^ mu)_{ab} over dx0 ^ dx1
                    wedge_cross.append(
                        mu.entry(0, a, c) * mu.entry(1, c, b)
                        - mu.entry(1, a, c) * mu.entry(0, c, b)
                    )
                from jetsym.expr import expr_sum
                total = (
                    d_part.coefficient(basis_key_dx(0), basis_key_dx(1))
                    + expr_sum(wedge_cross)
                )
                assert total == residuals[0, 1, a, b]


# --- scalar gauge equivalence ------------------------------------------------------

def pvf(spec, xi, phi, generalized=False):
    return PointVectorField(
        spec, (parse(xi),), (parse(phi),), generalized=generalized
    )


def test_gauge_equivalence_trivial_potential():
    X = pvf(ODE2, "x", "u")
    res = verify_gauge_equivalence_scalar(X, rational(0), 2)
    assert res.verdict is Verdict.TRUE
    assert res.probable == ()


def test_gauge_equivalence_lists_its_probable_multiindex(monkeypatch):
    # the residuals are exactly zero whenever the arithmetic is exact, so
    # the zero test of the second one, at J = (1,), is made to read PROBABLY
    calls = []

    def second_probable(e, *, seed=None):
        calls.append(e)
        return Verdict.PROBABLY if len(calls) == 2 else zero_verdict(e, seed=seed)

    monkeypatch.setattr(expr, "zero_verdict", second_probable)
    X = pvf(ODE2, "x", "u")
    res = verify_gauge_equivalence_scalar(X, parse("x*u"), 2)
    assert len(calls) == 3
    assert res.verdict is Verdict.PROBABLY
    assert res.probable == ((1,),)
    assert list(res.residuals) == [(0,), (1,), (2,)]


def test_gauge_equivalence_linear_potential():
    X = pvf(ODE1, "0", "1")
    res = verify_gauge_equivalence_scalar(X, parse("x"), 1)
    assert res.verdict is Verdict.TRUE


def test_gauge_equivalence_mixed_potential():
    X = pvf(ODE2, "0", "1")
    res = verify_gauge_equivalence_scalar(X, parse("u*x"), 2)
    assert res.verdict is Verdict.TRUE


def test_gauge_equivalence_jet_dependent_potential_needs_flag():
    X = pvf(ODE2, "0", "1")
    with pytest.raises(GaugeError):
        verify_gauge_equivalence_scalar(X, parse("u_x"), 2)
    Xg = pvf(ODE2, "0", "1", generalized=True)
    assert verify_gauge_equivalence_scalar(Xg, parse("u_x"), 2).verdict is Verdict.TRUE


def test_gauge_equivalence_random_polynomials():
    rng = random.Random(36)
    for _ in range(5):
        spec = ODE2
        X = rand_point_field(rng, spec)
        phi = rand_poly(rng, ["x", "u"], max_degree=2)
        res = verify_gauge_equivalence_scalar(X, phi, rng.choice([1, 2]))
        assert res.verdict is Verdict.TRUE, res.residuals
