"""Symmetry module tests: equations, restriction, verdicts, characterizations."""

import random

import pytest

from forms import (
    characterization_check,
    commutator_with_total_derivative,
    contact_form,
    in_contact_module,
    interior_product,
    lie_derivative,
    total_derivative_along,
    zero_mu,
)
from helpers import rand_point_field, rand_poly
from jetsym import expr, jets, symmetry
from jetsym.errors import EquationError, RestrictionError
from jetsym.expr import Verdict, rational
from jetsym.jets import JetSpec, MuForm, total_derivative
from jetsym.parsing import parse
from jetsym.prolong import PointVectorField, lambda_form, lift
from jetsym.symmetry import (
    DifferentialEquation,
    characteristic,
    check_symmetry,
    coincide_on_invariant_set,
    invariant_set_relations,
    restrict_to_solution_manifold,
)

ODE1 = JetSpec(("x",), ("u",), 1)
ODE2 = JetSpec(("x",), ("u",), 2)
PDE1 = JetSpec(("x", "t"), ("u",), 1)


def pvf(spec, xi, phi, generalized=False):
    return PointVectorField(
        spec,
        tuple(parse(s) for s in xi),
        tuple(parse(s) for s in phi),
        generalized=generalized,
    )


# --- characteristic and invariant set ----------------------------------------

def test_characteristic_examples():
    assert characteristic(pvf(ODE1, ["0"], ["1"]))[0] == rational(1)
    assert characteristic(pvf(ODE1, ["x"], ["u"]))[0] == parse("u - x*u_x")
    assert characteristic(pvf(ODE1, ["1"], ["0"]))[0] == parse("-u_x")


def test_invariant_set_relations_examples():
    rels = invariant_set_relations(pvf(ODE2, ["x"], ["u"]), 2)
    assert rels == [parse("u - x*u_x"), parse("-x*u_xx")]
    rels2 = invariant_set_relations(pvf(ODE2, ["0"], ["1"]), 2)
    assert rels2 == [rational(1), rational(0)]
    rels3 = invariant_set_relations(pvf(ODE1, ["1"], ["0"]), 1)
    assert rels3 == [parse("-u_x")]
    assert invariant_set_relations(pvf(ODE2, ["x"], ["u"]), 0) == []


def test_invariant_set_relations_take_one_total_derivative_per_multiindex(monkeypatch):
    spec = JetSpec(("x", "t"), ("u", "v"), 4)
    X = rand_point_field(random.Random(29), spec)
    Q = characteristic(X)
    want = [total_derivative_along(q, J, spec) for J in spec.multi_indices(3) for q in Q]
    steps = []

    def counted(e, i, spec):
        steps.append(i)
        return total_derivative(e, i, spec)

    monkeypatch.setattr(symmetry, "total_derivative", counted)
    assert invariant_set_relations(X, 4) == want
    # one total derivative per multiindex 0 < |J| <= 3 and component of Q
    assert len(steps) == len(spec.multi_indices(3, min_order=1)) * spec.q


# --- equations and restriction ------------------------------------------------

def test_equation_validation():
    with pytest.raises(EquationError):
        DifferentialEquation.from_strings(ODE2, {"u_x": "0"})  # wrong order
    with pytest.raises(EquationError):
        DifferentialEquation.from_strings(ODE2, {"u_xx": "u_xx + 1"})
    with pytest.raises(EquationError):
        # derivative of the leading coordinate in the rhs
        DifferentialEquation.from_strings(
            JetSpec(("x", "t"), ("u",), 2), {"u_xx": "u_xxt"}
        )


def test_restrict_kills_the_equation():
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "x*u + u_x"})
    e = parse("u_xx - (x*u + u_x)")
    assert restrict_to_solution_manifold(e, eq) == rational(0)


def test_restrict_uses_derivative_consequences():
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "u"})
    assert restrict_to_solution_manifold(parse("u_xxx"), eq) == parse("u_x")
    assert restrict_to_solution_manifold(parse("u_xxxx"), eq) == parse("u")


def test_restrict_leaves_nonleading_expressions_alone():
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "u"})
    e = parse("x*u_x + u^2")
    assert restrict_to_solution_manifold(e, eq) == e


def test_restrict_depth_failure_is_reported():
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "u"})
    with pytest.raises(RestrictionError):
        restrict_to_solution_manifold(parse("u_xxx"), eq, depth=0)


@pytest.mark.parametrize("independent", ["xt", "tx"])
@pytest.mark.parametrize("lead, other", ["xt", "tx"])
def test_wave_restriction_does_not_depend_on_the_order_of_the_variables(
        independent, lead, other):
    # on u_ll = u_oo two steps along l are two along o: a coordinate with
    # counts (c, d) along (l, o) restricts to (c mod 2, d + c - c mod 2),
    # u_xxxx to u_tttt for u_xx = u_tt
    spec = JetSpec(tuple(independent), ("u",), 2)
    eq = DifferentialEquation.from_strings(spec, {f"u_{lead}{lead}": f"u_{other}{other}"})
    l, o = spec.independent.index(lead), spec.independent.index(other)
    for J in spec.multi_indices(5, min_order=3):
        K = [0, 0]
        K[l], K[o] = J[l] % 2, J[o] + J[l] - J[l] % 2
        assert restrict_to_solution_manifold(spec.jet_var(0, J), eq) == spec.jet_var(0, K)


def test_circular_consequences_are_a_restriction_error():
    # D_t u_xx = v_xtt and D_x v_tt = u_xxt bind each of two leading-derived
    # coordinates to the other
    spec = JetSpec(("x", "t"), ("u", "v"), 2)
    eq = DifferentialEquation.from_strings(spec, {"u_xx": "v_xt", "v_tt": "u_xt"})
    with pytest.raises(RestrictionError, match="depend on each other"):
        restrict_to_solution_manifold(parse("u_xxt"), eq)


# u_xxxxxxxxxxxxt restricted to u_xx = u_tt + x*u_t on (x, t; u)
DEEP_RESTRICTION = (
    "280*u_ttttt + 260*u_tttttt*x^3 + 780*u_ttttttt*x^2 + u_ttttttt*x^6 + "
    "780*u_tttttttt*x + 6*u_tttttttt*x^5 + 260*u_ttttttttt + "
    "15*u_ttttttttt*x^4 + 20*u_tttttttttt*x^3 + 15*u_ttttttttttt*x^2 + "
    "6*u_tttttttttttt*x + u_ttttttttttttt + 600*u_xttttt*x + 600*u_xtttttt + "
    "30*u_xtttttt*x^4 + 120*u_xttttttt*x^3 + 180*u_xtttttttt*x^2 + "
    "120*u_xttttttttt*x + 30*u_xtttttttttt"
)


def test_a_deep_restriction_checks_each_bound_value_once(monkeypatch):
    """The bindings of a restriction name no bound coordinate by
    construction: each value is checked once, when it is bound, and the
    growing map is not checked again on each substitution."""
    spec = JetSpec(("x", "t"), ("u",), 2)
    eq = DifferentialEquation.from_strings(spec, {"u_xx": "u_tt + x*u_t"})
    walks = []
    real = expr.free_variables

    def spy(e):
        walks.append(e)
        return real(e)

    for module in (expr, jets, symmetry):
        monkeypatch.setattr(module, "free_variables", spy)
    got = restrict_to_solution_manifold(spec.jet_var(0, (12, 1)), eq)
    assert len(walks) < 200
    assert got == parse(DEEP_RESTRICTION)


# --- symmetry verdicts ----------------------------------------------------------

def test_lambda_symmetry_regression():
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "(1+x^2)*u"})
    X = pvf(ODE2, ["0"], ["1"])
    res = check_symmetry(X, eq, lambda_form(X, parse("x")))
    assert res.verdict is Verdict.TRUE
    assert res.probable == ()

    res_std = check_symmetry(X, eq)
    assert res_std.verdict is Verdict.FALSE
    assert res_std.residuals[0] == parse("-(1+x^2)")


def test_symmetry_lists_its_probable_equation():
    # the scaling x d/dx + u d/du of u_x = 1 with xi scaled by
    # sin^2 + cos^2: the residual 1 - sin^2 - cos^2 of equation 0 reads
    # PROBABLY until zero testing proves that identity
    eq = DifferentialEquation.from_strings(ODE1, {"u_x": "1"})
    X = pvf(ODE1, ["x*(sin(x)^2 + cos(x)^2)"], ["u"])
    res = check_symmetry(X, eq)
    assert res.verdict is Verdict.PROBABLY
    assert res.probable == (0,)
    assert res.residuals == {0: parse("1 - sin(x)^2 - cos(x)^2")}


def test_translation_symmetry_of_autonomous_equation():
    eq = DifferentialEquation.from_strings(ODE1, {"u_x": "0"})
    X = pvf(ODE1, ["1"], ["0"])
    assert check_symmetry(X, eq).verdict is Verdict.TRUE


def test_scaling_symmetry_of_scale_invariant_equation():
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "u_x^2/u"})
    X = pvf(ODE2, ["0"], ["u"])
    assert check_symmetry(X, eq).verdict is Verdict.TRUE


def test_mu_kind_reduces_to_lambda_kind():
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "(1+x^2)*u"})
    X = pvf(ODE2, ["0"], ["1"])
    mu = MuForm.scalar(ODE2, [parse("x")])
    assert check_symmetry(X, eq, mu).verdict is Verdict.TRUE


def test_lambda_zero_matches_standard_verdicts():
    rng = random.Random(21)
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "u*u_x"})
    for _ in range(5):
        X = rand_point_field(rng, ODE2)
        a = check_symmetry(X, eq).verdict
        b = check_symmetry(X, eq, lambda_form(X, rational(0))).verdict
        assert a == b


def test_verdict_invariant_under_nonvanishing_rescaling():
    # tangency tested on r and on g*r agrees, g = 1 + x^2
    eq = DifferentialEquation.from_strings(ODE2, {"u_xx": "(1+x^2)*u"})
    g = parse("1 + x^2")
    for X, lam in [
        (pvf(ODE2, ["0"], ["1"]), parse("x")),
        (pvf(ODE2, ["0"], ["u"]), parse("x")),
        (pvf(ODE2, ["x"], ["u"]), parse("0")),
    ]:
        Y = lift(X, lambda_form(X, lam), 2)
        r = parse("u_xx - (1+x^2)*u")
        plain = restrict_to_solution_manifold(Y.apply(r), eq)
        scaled = restrict_to_solution_manifold(Y.apply(g * r), eq)
        from jetsym.expr import zero_verdict
        assert zero_verdict(plain) == zero_verdict(scaled)


def test_constructed_symmetric_equations_pass():
    # equations assembled from invariants of simple fields must accept them
    rng = random.Random(22)
    for _ in range(4):
        f = rand_poly(rng, ["u", "u_x"], max_degree=2, allow_zero=False)
        eq = DifferentialEquation.from_strings(ODE2, {"u_xx": str(f)})
        assert check_symmetry(pvf(ODE2, ["1"], ["0"]), eq).verdict is Verdict.TRUE
    for _ in range(4):
        f = rand_poly(rng, ["x", "u_x"], max_degree=2, allow_zero=False)
        eq = DifferentialEquation.from_strings(ODE2, {"u_xx": str(f)})
        assert check_symmetry(pvf(ODE2, ["0"], ["1"]), eq).verdict is Verdict.TRUE
    for _ in range(4):
        # scaling field x d_x: u, x*u_x and x^2*u_xx are invariant
        f = rand_poly(rng, ["u", "w"], max_degree=2, allow_zero=False)
        f = parse(str(f).replace("w", "(x*u_x)")) / parse("x^2")
        eq = DifferentialEquation.from_strings(ODE2, {"u_xx": str(f)})
        assert check_symmetry(pvf(ODE2, ["x"], ["0"]), eq).verdict is Verdict.TRUE


# --- commutator characterizations ---------------------------------------------

def test_commutator_pairs_to_zero_for_standard_prolongations():
    Y = lift(pvf(ODE1, ["1"], ["0"]), n=1)
    C = commutator_with_total_derivative(Y, 0)
    theta = contact_form(0, (0,), ODE1)
    assert interior_product(C, theta) == rational(0)

    Y2 = lift(pvf(ODE1, ["x"], ["u"]), n=1)
    C2 = commutator_with_total_derivative(Y2, 0)
    assert interior_product(C2, theta) == rational(0)


def test_commutator_recovers_lambda():
    X = pvf(ODE1, ["0"], ["1"])
    Y = lift(X, lambda_form(X, parse("u")), 1)
    C = commutator_with_total_derivative(Y, 0)
    theta = contact_form(0, (0,), ODE1)
    assert interior_product(C, theta) == parse("u")


def test_characterization_check_accepts_prolongations():
    rng = random.Random(23)
    for _ in range(4):
        X = rand_point_field(rng, ODE2)
        assert characterization_check(lift(X, n=2)) is Verdict.TRUE
        lam = rand_poly(rng, ["x", "u"], max_degree=2)
        Yl = lift(X, lambda_form(X, lam), 2)
        assert characterization_check(Yl, lam) is Verdict.TRUE


def _perturb(Y, a, Ji):
    psi = dict(Y.psi)
    psi[(a, Ji)] = Y.psi_at(a, Ji) + rational(1)
    from jetsym.jets import JetVectorField
    return JetVectorField(Y.spec, Y.xi, psi, order=Y.order)


def test_perturbing_a_shared_lift_leaves_it_unchanged():
    X = pvf(ODE2, ["x"], ["u"])
    Y = lift(X, n=2)
    before = dict(Y.psi)
    Z = _perturb(Y, 0, (1,))
    assert Z.psi_at(0, (1,)) == Y.psi_at(0, (1,)) + rational(1)
    assert Z != Y and dict(Y.psi) == before and lift(X, n=2) is Y


def test_characterization_check_rejects_perturbed_fields():
    X = pvf(ODE2, ["x"], ["u"])
    Y = _perturb(lift(X, n=2), 0, (1,))
    assert characterization_check(Y) is Verdict.FALSE
    lam = parse("x*u")
    Yl = _perturb(lift(X, lambda_form(X, lam), 2), 0, (2,))
    assert characterization_check(Yl, lam) is Verdict.FALSE


def test_characterization_agrees_with_contact_membership():
    rng = random.Random(24)
    for _ in range(4):
        X = rand_point_field(rng, ODE2)
        Y = lift(X, n=2)
        for cand in (Y, _perturb(Y, 0, (2,))):
            char = characterization_check(cand)
            member = Verdict.combine(
                in_contact_module(
                    lie_derivative(cand, contact_form(0, Ji, ODE2), ODE2), ODE2
                ).verdict
                for Ji in ODE2.multi_indices(1)
            )
            assert char == member


# --- coincidence on the invariant set -------------------------------------------

def test_coincidence_trivial_for_zero_mu():
    X = pvf(ODE2, ["x"], ["u"])
    res = coincide_on_invariant_set(X, zero_mu(ODE2), 2)
    assert res.verdict is Verdict.TRUE
    assert not res.vacuous


def test_coincidence_scaling_field_first_order():
    X = pvf(ODE1, ["x"], ["u"])
    mu = MuForm.scalar(ODE1, [parse("x*u + u^2")])
    res = coincide_on_invariant_set(X, mu, 1)
    assert res.verdict is Verdict.TRUE
    assert not res.vacuous
    assert res.solved  # u_x was solved from the characteristic


def test_coincidence_lists_its_probable_difference_terms():
    # the characteristic sin^2 + cos^2 - 1 holds no jet coordinate, so the
    # invariant set is unverifiable and the difference term lambda*Q at
    # (a, J) = (0, (1,)) reads PROBABLY; the zero-order term is exactly zero
    X = pvf(ODE1, ["0"], ["sin(x)^2 + cos(x)^2 - 1"])
    res = coincide_on_invariant_set(X, MuForm.scalar(ODE1, [parse("x")]), 1)
    assert res.verdict is Verdict.PROBABLY
    assert res.unverifiable and not res.vacuous
    assert res.probable == ((0, (1,)),)
    assert res.residuals[0, (0,)] == rational(0)


def test_coincidence_vacuous_for_vertical_shift():
    X = pvf(ODE1, ["0"], ["1"])  # characteristic 1, empty invariant set
    mu = MuForm.scalar(ODE1, [parse("u")])
    res = coincide_on_invariant_set(X, mu, 1)
    assert res.vacuous
    assert res.verdict is Verdict.TRUE


def test_coincidence_higher_order():
    rng = random.Random(25)
    for _ in range(3):
        xi = rand_poly(rng, ["x", "u"], max_degree=1, allow_zero=False)
        phi = rand_poly(rng, ["x", "u"], max_degree=1)
        X = PointVectorField(ODE2, (xi,), (phi,))
        mu = MuForm.scalar(ODE2, [rand_poly(rng, ["x", "u"], max_degree=2)])
        res = coincide_on_invariant_set(X, mu, 2)
        if res.vacuous:
            continue
        assert res.verdict is Verdict.TRUE, res.residuals
