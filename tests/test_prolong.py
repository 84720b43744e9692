"""Prolongation tests: the standard, lambda and mu lifts, their degenerations,
difference terms."""

import copy
import pickle
import random
import sys
from pathlib import Path

import pytest

from forms import (
    contact_form,
    difference_recursion,
    dx,
    inc,
    in_contact_module,
    in_vector_contact_module,
    interior_product,
    lie_derivative,
    zero_mu,
)
from helpers import rand_closed_scalar_mu, rand_point_field, rand_poly, rand_unipotent_gauge
from jetsym import prolong
from jetsym.cli import run
from jetsym.errors import InconsistentMuError, MuNotClosedError, ProlongationError
from jetsym.expr import Verdict, ZERO, _rf_of, rational
from jetsym.gauge import GaugeFunction, darboux_derivative, maurer_cartan_check
from jetsym.jets import (
    JetSpec,
    MuForm,
    mat_mul,
    total_derivative,
)
from jetsym.parsing import parse
from jetsym.problemfile import load_problem
from jetsym.prolong import (
    PointVectorField,
    difference_terms,
    lambda_form,
    lift,
)

ODE1 = JetSpec(("x",), ("u",), 1)
ODE2 = JetSpec(("x",), ("u",), 2)
PDE1 = JetSpec(("x", "t"), ("u",), 1)
PDE2 = JetSpec(("x", "t"), ("u",), 2)
SYS1 = JetSpec(("x",), ("u", "v"), 1)


def pvf(spec, xi, phi, generalized=False):
    return PointVectorField(
        spec,
        tuple(parse(s) for s in xi),
        tuple(parse(s) for s in phi),
        generalized=generalized,
    )


# --- standard prolongation ----------------------------------------------------

def test_standard_scaling_field():
    X = pvf(ODE2, ["x"], ["u"])
    Y = lift(X, n=2)
    assert Y.psi_at(0, (0,)) == parse("u")
    assert Y.psi_at(0, (1,)) == rational(0)
    assert Y.psi_at(0, (2,)) == parse("-u_xx")


def test_standard_translation_is_trivial():
    X = pvf(ODE2, ["1"], ["0"])
    Y = lift(X, n=2)
    assert all(Y.psi_at(0, Ji) == rational(0) for Ji in ODE2.multi_indices(2))


@pytest.mark.parametrize("phi_text", ["x^2*u + u^3", "x*u", "u^2 - x"])
def test_standard_vertical_field_first_step(phi_text):
    # psi_1 = phi_x + phi_u u_x for a vertical field phi d_u
    X = pvf(ODE1, ["0"], [phi_text])
    Y = lift(X, n=1)
    phi = parse(phi_text)
    from jetsym.expr import pdiff
    expected = pdiff(phi, "x") + pdiff(phi, "u") * parse("u_x")
    assert Y.psi_at(0, (1,)) == expected


def chain_reference(xi_text, phi_text, lam_text, n):
    """``psi_0 .. psi_n`` of the scalar-ODE lift by the form ``lam dx``,
    computed in sympy by the chain

        psi_{k+1} = (D + lam) psi_k - u_{k+1} (D + lam) xi,

    which shares no code with the package; ``lam = 0`` gives the standard
    lift.  Returns the components and a reader of jetsym's printed text."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.Symbol("x")
    # lam may live on J^2, so D^n lam reaches u_{n+2}
    us = [sympy.Symbol("u" + ("_" + "x" * k if k else "")) for k in range(n + 4)]
    conv = {"x": xs, **{str(u): u for u in us}}

    def read(text):
        return sympy.sympify(text.replace("^", "**"), locals=conv)

    xi, lam = read(xi_text), read(lam_text)

    def nabla(f):
        out = sympy.diff(f, xs) + lam * f
        for k in range(n + 3):
            out = out + sympy.diff(f, us[k]) * us[k + 1]
        return sympy.expand(out)

    psi = [read(phi_text)]
    for k in range(n):
        psi.append(sympy.expand(nabla(psi[-1]) - us[k + 1] * nabla(xi)))
    return psi, read


def assert_matches_chain(Y, X, lam, n):
    """Every component of the scalar-ODE lift ``Y`` of ``X`` equals the
    sympy chain of :func:`chain_reference` by the form ``lam dx``."""
    sympy = pytest.importorskip("sympy")
    ref, read = chain_reference(str(X.xi[0]), str(X.phi[0]), str(lam), n)
    for k in range(n + 1):
        assert sympy.cancel(read(str(Y.psi_at(0, (k,)))) - ref[k]) == 0, k


def test_standard_against_independent_cas():
    cases = [("x", "u"), ("x^2", "x*u"), ("u", "x + u^2"), ("x*u", "u^2")]
    for xi_text, phi_text in cases:
        X = pvf(ODE2, [xi_text], [phi_text])
        assert_matches_chain(lift(X, n=2), X, ZERO, 2)


# --- lambda prolongation ------------------------------------------------------

def test_lambda_zero_degenerates_to_standard():
    rng = random.Random(3)
    for _ in range(5):
        X = rand_point_field(rng, ODE2)
        assert lift(X, lambda_form(X, rational(0)), 2) == lift(X, n=2)


def test_lambda_vertical_example():
    X = pvf(ODE2, ["0"], ["1"])
    Y = lift(X, lambda_form(X, parse("u")), 2)
    assert Y.psi_at(0, (0,)) == rational(1)
    assert Y.psi_at(0, (1,)) == parse("u")
    assert Y.psi_at(0, (2,)) == parse("u_x + u^2")


def test_lambda_of_x_seeds_symmetry_regression():
    X = pvf(ODE2, ["0"], ["1"])
    Y = lift(X, lambda_form(X, parse("x")), 2)
    assert Y.psi_at(0, (1,)) == parse("x")
    assert Y.psi_at(0, (2,)) == parse("1 + x^2")


def test_lambda_against_independent_cas():
    # a field with xi != 0, so the lambda xi^m term of the step is live
    cases = [("x", "u", "x"), ("x^2", "x*u", "u"), ("u", "x + u^2", "x*u + u_x"),
             ("x*u", "u^2", "u"), ("1 + u", "x", "x*u + u_x")]
    for xi_text, phi_text, lam_text in cases:
        X = pvf(ODE2, [xi_text], [phi_text])
        lam = parse(lam_text)
        assert_matches_chain(lift(X, lambda_form(X, lam), 2), X, lam, 2)
    Xg = pvf(ODE2, ["x*u_x"], ["u + u_x"], generalized=True)
    lam = parse("u_xx")
    assert_matches_chain(lift(Xg, lambda_form(Xg, lam), 2), Xg, lam, 2)


def test_lambda_rejects_systems():
    X = pvf(SYS1, ["0"], ["1", "0"])
    with pytest.raises(ProlongationError, match="needs p = q = 1"):
        lambda_form(X, parse("u"))


def test_lambda_on_first_jet_space_allowed_without_flag():
    X = pvf(ODE2, ["0"], ["1"])
    Y = lift(X, lambda_form(X, parse("u_x")), 2)
    assert Y.psi_at(0, (1,)) == parse("u_x")


def test_lambda_above_first_jet_needs_generalized_flag():
    X = pvf(ODE2, ["0"], ["1"])
    with pytest.raises(ProlongationError, match="jet order > 1"):
        lift(X, lambda_form(X, parse("u_xx")), 2)
    Xg = pvf(ODE2, ["0"], ["1"], generalized=True)
    Y = lift(Xg, lambda_form(Xg, parse("u_xx")), 2)
    assert Y.psi_at(0, (1,)) == parse("u_xx")


# --- scalar mu prolongation ---------------------------------------------------

def test_mu_zero_degenerates_to_standard():
    rng = random.Random(4)
    for _ in range(5):
        X = rand_point_field(rng, PDE2)
        Y = lift(X, zero_mu(PDE2), 2)
        assert Y == lift(X, n=2)


def test_mu_constant_dx_example():
    X = pvf(PDE2, ["0", "0"], ["1"])
    mu = MuForm.scalar(PDE2, [parse("c"), parse("0")])
    Y = lift(X, mu, 2, path_check=True)
    assert Y.psi_at(0, (1, 0)) == parse("c")
    assert Y.psi_at(0, (0, 1)) == rational(0)
    assert Y.psi_at(0, (2, 0)) == parse("c^2")
    assert Y.psi_at(0, (1, 1)) == rational(0)
    assert Y.psi_at(0, (0, 2)) == rational(0)


def test_mu_single_direction_equals_lambda():
    # the lambda lift is the mu lift by lambda dx; both against the sympy chain
    rng = random.Random(5)
    lam = parse("x*u + u_x")
    mu = MuForm.scalar(ODE2, [lam])
    for _ in range(5):
        X = rand_point_field(rng, ODE2)
        assert lambda_form(X, lam) == mu
        assert_matches_chain(lift(X, mu, 2), X, lam, 2)


def test_mu_not_closed_raises_without_waiver():
    mu = MuForm.scalar(PDE1, [parse("u"), parse("0")])
    X = pvf(PDE1, ["0", "0"], ["1"])
    with pytest.raises(MuNotClosedError):
        lift(X, mu, 1)


def test_mu_not_closed_path_check_detects_disagreement():
    mu = MuForm.scalar(PDE2, [parse("u"), parse("0")])
    X = pvf(PDE2, ["0", "0"], ["1"])
    with pytest.raises(InconsistentMuError):
        lift(X, mu, 2, path_check=True)


def test_mu_closed_is_path_independent():
    rng = random.Random(6)
    for _ in range(5):
        X = rand_point_field(rng, PDE2)
        mu, _phi = rand_closed_scalar_mu(rng, PDE2)
        Y1 = lift(X, mu, 2)
        Y2 = lift(X, mu, 2, path_check=True)
        assert Y1 == Y2


# --- path independence of flat forms -----------------------------------------

def _edge_differences(Y, X, mu):
    """Test-only copy of the direct path check: for every edge into J
    that is not the canonical one, recompute Psi_J from the stored
    Psi_{J-i} by the deformed step

        Psi_{J} = (D_i + L_i) Psi_{J-i} - (D_i xi^m + L_i xi^m) u_{J-i+m}

    and yield the stored value minus the recomputed one."""
    spec = Y.spec
    for Jt in spec.multi_indices(Y.order, min_order=2):
        last = max(m for m, k in enumerate(Jt) if k)
        for i, c in enumerate(Jt):
            if not c or i == last:
                continue
            K = Jt[:i] + (c - 1,) + Jt[i + 1:]
            L = mu.matrices[i]
            for a in range(spec.q):
                alt = total_derivative(Y.psi_at(a, K), i, spec)
                for b in range(spec.q):
                    alt = alt + L[a][b] * Y.psi_at(b, K)
                for m, xi in enumerate(X.xi):
                    for b in range(spec.q):
                        w = L[a][b] * xi
                        if a == b:
                            w = w + total_derivative(xi, i, spec)
                        alt = alt - w * spec.jet_var(b, inc(K, m))
                yield (a, Jt, i), Y.psi_at(a, Jt) - alt


def _random_flat_forms(rng):
    """Closed scalar forms and Darboux derivatives of 2x2 gauges, two of
    them unipotent and two not, so the commutator term is live."""
    scalar = JetSpec(("x", "t"), ("u",), 3)
    for _ in range(2):
        yield rand_closed_scalar_mu(rng, scalar)[0]
    system = JetSpec(("x", "t"), ("u", "v"), 3)
    names = ["x", "t", "u", "v"]
    for _ in range(2):
        yield darboux_derivative(GaugeFunction(system, rand_unipotent_gauge(rng, system)))
    for _ in range(2):
        # det [[1, f], [g, 1 + f g]] = 1: an inverse with polynomial entries
        f = rand_poly(rng, names, 1, max_terms=2) + parse("u")
        g = rand_poly(rng, names, 1, max_terms=2) + parse("x*v")
        gamma = GaugeFunction(
            system,
            ((rational(1), f), (g, 1 + f * g)),
            inverse=((1 + f * g, -f), (-g, rational(1))),
        )
        mu = darboux_derivative(gamma)
        Lx, Lt = mu.matrices
        assert mat_mul(Lx, Lt) != mat_mul(Lt, Lx)
        yield mu


def test_flat_forms_make_every_edge_exactly_consistent():
    # the flat shortcut skips the edge check; this oracle re-derives every
    # edge and requires the difference to be exactly zero, not merely
    # "not provably nonzero"
    rng = random.Random(41)
    for mu in _random_flat_forms(rng):
        assert maurer_cartan_check(mu).verdict is Verdict.TRUE
        X = rand_point_field(rng, mu.spec)
        Y = lift(X, mu, 3, path_check=True)
        assert Y == lift(X, mu, 3)
        edges = dict(_edge_differences(Y, X, mu))
        assert edges
        assert all(d == ZERO for d in edges.values()), [
            k for k, d in edges.items() if d != ZERO
        ]


def _operator_lift(X, mu, n):
    """Test-only copy of the lift's step as Expr operators, one product
    and one sum at a time along the canonical path:

        Psi^a_{J+i} = (D_i Psi^a_J + L_i[a][b] Psi^b_J) - u^b_{J+m} W_i[a][b][m]

    with W_i[a][b][m] = delta_ab D_i xi^m + L_i[a][b] xi^m, its zero
    entries skipped.  Returns the component table keyed by J."""
    spec = X.spec
    table = {(0,) * spec.p: tuple(X.phi)}
    for J, i, K in spec.canonical_steps(n):
        row = table[K]
        out = []
        for a in range(spec.q):
            r = total_derivative(row[a], i, spec)
            for b, l in enumerate(mu.matrices[i][a]):
                if l != ZERO:
                    r = r + l * row[b]
            for m, x in enumerate(X.xi):
                for b in range(spec.q):
                    w = total_derivative(x, i, spec) if a == b else ZERO
                    w = w + mu.matrices[i][a][b] * x
                    if w != ZERO:
                        r = r - spec.jet_var(b, inc(K, m)) * w
            out.append(r)
        table[J] = tuple(out)
    return table


def test_the_one_numerator_step_matches_the_operator_step():
    # each step adds its products into one numerator; the form M and the
    # Darboux derivative of the gauge G of the golden PDE problem, lifted
    # to order 4, must give the pairs that operator arithmetic gives
    golden = Path(__file__).parent / "golden" / "pde.jsf"
    problem = load_problem(golden.read_text(encoding="utf-8"))
    X = problem.declared["field", "F"]
    forms = [problem.declared["mu", "M"], darboux_derivative(problem.declared["gauge", "G"])]
    for mu in forms:
        Y = lift(X, mu, 4, path_check=True)
        table = _operator_lift(X, mu, 4)
        assert len(table) == len(X.spec.multi_indices(4))
        for J, row in table.items():
            for a, e in enumerate(row):
                assert _rf_of(Y.psi_at(a, J)) == _rf_of(e), (J, a)


def test_path_check_skips_edges_only_on_exact_flatness(monkeypatch):
    calls = []
    real = prolong._verify_path_independence

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(prolong, "_verify_path_independence", spy)
    X = pvf(PDE2, ["t", "x*u"], ["u^2 + x"])
    # closed, but only up to sin^2 + cos^2 = 1, so flatness reads PROBABLY;
    # once zero testing proves that identity, use another PROBABLY form
    probable = MuForm.scalar(PDE2, [parse("(u + x*u_x)*(sin(t)^2 + cos(t)^2)"),
                                    parse("x*u_t")])
    assert maurer_cartan_check(probable).verdict is Verdict.PROBABLY
    lift(X, probable, 2, path_check=True)
    assert len(calls) == 1
    exact = MuForm.scalar(PDE2, [parse("u + x*u_x"), parse("x*u_t")])
    assert maurer_cartan_check(exact).verdict is Verdict.TRUE
    lift(X, exact, 2, path_check=True)
    assert len(calls) == 1


def test_a_lift_makes_each_jet_variable_once(monkeypatch):
    made = []
    real = JetSpec.jet_var

    def spy(spec, a, K):
        # total derivatives make their images of jet variables themselves
        if sys._getframe(1).f_globals["__name__"] == "jetsym.prolong":
            made.append((a, K))
        return real(spec, a, K)

    monkeypatch.setattr(JetSpec, "jet_var", spy)
    system = JetSpec(("x", "t"), ("u", "v"), 3)
    lift(rand_point_field(random.Random(11), system))
    assert sorted(made) == sorted((a, K) for K in system.multi_indices(3, min_order=1)
                                  for a in range(2))
    # the edge checks of a form that is not proven flat take no new ones
    made.clear()
    X = pvf(PDE2, ["t", "x*u"], ["u^2 + x"])
    probable = MuForm.scalar(PDE2, [parse("(u + x*u_x)*(sin(t)^2 + cos(t)^2)"),
                                    parse("x*u_t")])
    lift(X, probable, 2, path_check=True)
    assert sorted(made) == sorted((0, K) for K in PDE2.multi_indices(2, min_order=1))


def test_a_second_lift_on_a_space_builds_no_new_name():
    # names of its own, so the space's total derivations name through it
    spec = JetSpec(("y", "s"), ("p", "w"), 3)
    lift(pvf(spec, ["p*w + y", "s*p + w"], ["y*w + p^2", "s*p*w + 1"]))
    names = dict(spec._names)
    lift(pvf(spec, ["w + s*p", "y*p*w"], ["p + w^2", "y*s + p*w"]))
    # a name built again would be stored again, as a new string
    assert spec._names.keys() == names.keys()
    assert all(spec._names[coord] is name for coord, name in names.items())


def test_a_lift_hashes_its_space_once_per_derivation_it_fetches(monkeypatch):
    """A lift fetches each of its p total derivations once and its steps
    call them directly; the p^2 derivatives D_i xi^m of its coefficients
    go through ``total_derivative``, one cache lookup each.  So the lift
    hashes its space at most p + p^2 times whatever its order, once the
    derivations have met every variable (a new variable is decoded
    through a cache keyed by the space)."""
    spec = JetSpec(("x", "t"), ("u", "v"), 5)
    X = rand_point_field(random.Random(5), spec)
    Y = lift(X)
    again = PointVectorField(spec, X.xi, X.phi)
    hashes = []
    real = JetSpec.__hash__

    def spy(self):
        hashes.append(self)
        return real(self)

    monkeypatch.setattr(JetSpec, "__hash__", spy)
    Z = lift(again)
    assert len(hashes) <= spec.p + spec.p ** 2
    assert Z == Y and Z is not Y


@pytest.mark.parametrize("n", [2.0, True, "2", 0, -1])
def test_a_prolongation_order_is_an_int_of_at_least_one(n):
    X = pvf(ODE2, ["x"], ["u"])
    for form in (None, lambda_form(X, parse("x"))):
        with pytest.raises(ProlongationError, match="prolongation order must be"):
            lift(X, form, n)
    assert X._lifts == {}


# --- vector mu prolongation ---------------------------------------------------

def test_vector_zero_matrices_degenerate_to_standard():
    rng = random.Random(7)
    spec = JetSpec(("x",), ("u", "v"), 2)
    for _ in range(4):
        X = rand_point_field(rng, spec)
        Y = lift(X, zero_mu(spec), 2)
        assert Y == lift(X, n=2)


def test_vector_constant_diagonal_example():
    mu = MuForm(SYS1, [(
        (parse("c"), parse("0")),
        (parse("0"), parse("0")),
    )])
    X = pvf(SYS1, ["0"], ["1", "0"])
    Y = lift(X, mu, 1)
    assert Y.psi_at(0, (1,)) == parse("c")
    assert Y.psi_at(1, (1,)) == rational(0)


def test_vector_incompatible_matrices_raise():
    spec = JetSpec(("x", "t"), ("u", "v"), 1)
    mu = MuForm(spec, [
        ((parse("0"), parse("1")), (parse("0"), parse("0"))),
        ((parse("0"), parse("0")), (parse("1"), parse("0"))),
    ])
    X = pvf(spec, ["0", "0"], ["1", "0"])
    with pytest.raises(MuNotClosedError):
        lift(X, mu, 1)
    res = mu.curvature()
    assert res[0, 1, 0, 0] == rational(1)
    assert res[0, 1, 1, 1] == rational(-1)
    assert res[0, 1, 0, 1] == rational(0)


def test_vector_path_check_reports_first_disagreement():
    # a non-flat form with a rational entry: the check must name the first
    # edge that disagrees and print the canonical difference there
    spec = JetSpec(("x", "t"), ("u", "v"), 2)
    mu = MuForm(spec, [
        ((parse("t"), parse("u")), (parse("0"), parse("1/(1 + x)"))),
        ((parse("0"), parse("x")), (parse("v"), parse("0"))),
    ])
    X = pvf(spec, ["1", "x"], ["v", "-u/2"])
    with pytest.raises(InconsistentMuError) as err:
        lift(X, mu, 2, path_check=True)
    assert str(err.value) == (
        "recursion paths disagree at u_xt: difference (1/2*t*u*x"
        " + 1/2*t*u*x^2 + t*v_t*x^2 + t*v_t*x^3 + t*v_x*x + t*v_x*x^2"
        " + 1/2*u - 1/2*u*u_t + u*u_t*v*x + u*u_t*v*x^2 - 1/2*u*u_t*x"
        " + u*u_x*v + u*u_x*v*x - u*v^2 - u*v^2*x - u_t*v_t*x - u_t*v_t*x^2"
        " - u_t*v_x - u_t*v_x*x - u_t*x - u_t*x^2 - u_x - u_x*x + v + v*x"
        " + v_t*x + v_x)/(1 + x)"
    )


def test_nabla_operator_matches_definition():
    # with xi = 0 the first step of the lift is the deformed derivative
    # (D_x + L_x) of phi
    mu = MuForm(SYS1, [(
        (parse("x"), parse("u")),
        (parse("0"), parse("v")),
    )])
    Y = lift(pvf(SYS1, ["0"], ["u", "v"]), mu, 1)
    assert Y.psi_at(0, (1,)) == parse("u_x + x*u + u*v")
    assert Y.psi_at(1, (1,)) == parse("v_x + v^2")


# --- contact characterizations as membership ----------------------------------

def theta_generators(spec):
    return [
        (a, Ji)
        for Ji in spec.multi_indices(spec.order - 1)
        for a in range(spec.q)
    ]


def test_standard_prolongation_preserves_contact_module():
    rng = random.Random(9)
    for spec in (ODE2, PDE2):
        X = rand_point_field(rng, spec)
        Y = lift(X, n=spec.order)
        for a, Ji in theta_generators(spec):
            LY = lie_derivative(Y, contact_form(a, Ji, spec), spec)
            assert in_contact_module(LY, spec).verdict is Verdict.TRUE


def test_mu_prolongation_satisfies_deformed_contact_condition():
    rng = random.Random(10)
    for _ in range(3):
        X = rand_point_field(rng, PDE2)
        mu, _phi = rand_closed_scalar_mu(rng, PDE2)
        Y = lift(X, mu, 2)
        lambdas = mu.lambdas
        for a, Ji in theta_generators(PDE2):
            theta = contact_form(a, Ji, PDE2)
            LY = lie_derivative(Y, theta, PDE2)
            pairing = interior_product(Y, theta)
            deformed = LY
            for i in range(PDE2.p):
                deformed = deformed + dx(i).scale(pairing * lambdas[i])
            assert in_contact_module(deformed, PDE2).verdict is Verdict.TRUE


def test_vector_mu_prolongation_satisfies_matrix_contact_condition():
    spec = JetSpec(("x",), ("u", "v"), 2)
    mu = MuForm(spec, [(
        (parse("0"), parse("x")),
        (parse("0"), parse("0")),
    )])
    assert not any(e != rational(0) for e in mu.curvature().values())
    X = pvf(spec, ["0"], ["u", "v"])
    Y = lift(X, mu, 2)
    for Ji in spec.multi_indices(spec.order - 1):
        comps = []
        for a in range(spec.q):
            theta_a = contact_form(a, Ji, spec)
            row = lie_derivative(Y, theta_a, spec)
            for i in range(spec.p):
                extra = [
                    mu.entry(i, a, b) * interior_product(Y, contact_form(b, Ji, spec))
                    for b in range(spec.q)
                ]
                from jetsym.expr import expr_sum
                row = row + dx(i).scale(expr_sum(extra))
            comps.append(row)
        assert in_vector_contact_module(comps, spec) is Verdict.TRUE


# --- difference terms -----------------------------------------------------------

def test_difference_terms_vanish_for_zero_mu():
    rng = random.Random(11)
    X = rand_point_field(rng, PDE2)
    mu = zero_mu(PDE2)
    terms = difference_terms(X, mu, 2)
    assert all(v == rational(0) for v in terms.values())
    assert difference_recursion(X, mu, terms)[0] is Verdict.TRUE


def test_difference_terms_first_order_example():
    X = pvf(ODE1, ["0"], ["1"])
    mu = MuForm.scalar(ODE1, [parse("u")])
    terms = difference_terms(X, mu, 1)
    assert terms[(0, (1,))] == parse("u")
    verdict, residuals = difference_recursion(X, mu, terms)
    assert verdict is Verdict.TRUE
    assert not residuals


def test_difference_recursion_holds_on_random_cases():
    rng = random.Random(12)
    for _ in range(5):
        X = rand_point_field(rng, ODE2)
        lam = parse("x + u*u_x")
        mu = MuForm.scalar(ODE2, [lam])
        terms = difference_terms(X, mu, 2)
        assert difference_recursion(X, mu, terms)[0] is Verdict.TRUE


# --- one standard lift per field and order -------------------------------------

SHARED_LIFTS = """
[jet]
independent = x
dependent = u
order = 2

[field S]
xi x = 0
phi u = u

[field T]
xi x = x
phi u = 2*u

[equation A]
u_xx = u

[equation B]
u_xx = x*u_x

[equation C]
u_xx = u_x^2/u

{tasks}"""


def _symmetry_task(name, field, equation):
    return (f"[task check-symmetry {name}]\nfield = {field}\nequation = {equation}\n"
            "kind = standard\n\n")


def _count_steps(monkeypatch):
    made = []
    real = prolong._make_step

    def spy(X, mu=None):
        made.append((X, mu))
        return real(X, mu)

    monkeypatch.setattr(prolong, "_make_step", spy)
    return made


def test_standard_checks_share_one_lift_per_field_and_order(monkeypatch):
    made = _count_steps(monkeypatch)
    tasks = "".join(_symmetry_task(f"s{k}", "S", eq) for k, eq in enumerate("ABC"))
    report = run(load_problem(SHARED_LIFTS.format(tasks=tasks)))
    assert [r.verdict for r in report.records] == ["pass", "pass", "pass"]
    assert len(made) == 1
    # another field, and another order of the same field, lift again
    tasks += _symmetry_task("t", "T", "A")
    tasks += "[task prolong p1]\nfield = S\nkind = standard\norder = 1\n\n"
    tasks += "[task prolong p2]\nfield = S\nkind = standard\n\n"
    made.clear()
    run(load_problem(SHARED_LIFTS.format(tasks=tasks)))
    assert [X.phi for X, _ in made] == [(parse("u"),), (parse("2*u"),), (parse("u"),)]


def test_a_field_keeps_its_standard_lift_for_each_order(monkeypatch):
    made = _count_steps(monkeypatch)
    X = pvf(ODE2, ["x"], ["u^2"])
    Y = lift(X)
    assert lift(X, n=2) is Y and lift(X, None, 2) is Y
    assert lift(X, n=1) is not Y and lift(X, n=1) is lift(X, n=1)
    assert len(made) == 2
    # an equal field built apart keeps its own lifts
    assert lift(pvf(ODE2, ["x"], ["u^2"])) == Y
    assert len(made) == 3
    # a lift with a form is never kept, and the zero form is not "no form"
    mu = zero_mu(ODE2)
    assert lift(X, mu) == Y and lift(X, mu) is not lift(X, mu)
    assert len(made) == 6
    # difference terms take the kept standard lift
    difference_terms(X, mu)
    assert [m for _, m in made[6:]] == [mu]


def test_a_failed_lift_is_not_kept():
    X = pvf(ODE1, ["0"], ["u"])
    for _ in range(2):
        with pytest.raises(ProlongationError):
            lift(X, n=0)
    assert X._lifts == {}
    lift(X)
    assert list(X._lifts) == [1]


def test_kept_lifts_stay_out_of_equality_hash_and_repr():
    X, same = pvf(ODE2, ["x"], ["u"]), pvf(ODE2, ["x"], ["u"])
    lift(X)
    lift(X, n=1)
    assert X == same and hash(X) == hash(same) and repr(X) == repr(same)
    assert "_lifts" not in repr(X)
    # a copy is the value itself, kept lifts included; a pickle keeps none
    assert copy.copy(X) is X and copy.deepcopy(X) is X
    twin = pickle.loads(pickle.dumps(X))
    assert twin == X and twin._lifts == {}
    assert len(X._lifts) == 2


def test_a_lift_is_read_only():
    Y = lift(pvf(ODE2, ["x"], ["u"]))
    Y0 = lift(pvf(ODE2, ["x"], ["u"]))
    for name, value in (("order", 1), ("xi", ()), ("psi", {}), ("spec", ODE1), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(Y, name, value)
    with pytest.raises(AttributeError):
        del Y.psi
    with pytest.raises(TypeError):
        Y.psi[(0, (1,))] = rational(1)
    with pytest.raises(TypeError):
        del Y.psi[(0, (0,))]
    assert Y == Y0 and repr(Y) == repr(Y0)
    assert repr(Y) == f"JetVectorField(spec={ODE2!r}, xi={Y.xi!r}, psi={dict(Y.psi)!r}, order=2)"
    assert dict(Y.psi) == dict(Y0.psi) and type(dict(Y.psi)) is dict
    for twin in (copy.copy(Y), copy.deepcopy(Y), pickle.loads(pickle.dumps(Y))):
        assert twin == Y and twin.order == Y.order and repr(twin) == repr(Y)


def test_lifts_of_different_orders_differ():
    # every component past the zeroth vanishes, so only the order tells them apart
    X = pvf(ODE2, ["0"], ["1"])
    low, high = lift(X, n=2), lift(X, n=3)
    assert dict(low.psi) == dict(high.psi) and low != high
    assert low == pickle.loads(pickle.dumps(low)) != high


def test_psi_at_takes_a_multiindex_or_a_tuple():
    Y = lift(PointVectorField(ODE2, (ZERO,), (parse("u"),)))
    assert Y.psi_at(0, (2,)) == parse("u_xx") and Y.psi_at(0, [1]) == parse("u_x")
    assert Y.psi_at(0, (3,)) == ZERO
