"""Jet geometry tests: coordinates, total derivatives, and the contact-form
oracle of ``forms``: forms, Lie derivatives, the contact module."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forms import (
    Form,
    basis_key_du,
    basis_key_dx,
    contact_form,
    du,
    dx,
    exterior_derivative,
    in_contact_module,
    in_vector_contact_module,
    interior_product,
    lie_derivative,
    scalar_differential,
    scale_field,
    truncated_total_derivative,
)
from helpers import rand_poly, run_child
from jetsym.errors import EquationError, JetError
from jetsym.expr import ZERO, Verdict, rational, to_string
from jetsym.gauge import GaugeFunction, maurer_cartan_check
from jetsym.jets import (
    JetSpec,
    JetVectorField,
    MuForm,
    total_derivative,
    _decode,
    _total_derivation,
    jet_coordinate,
    multiindex,
)
from jetsym.parsing import parse
from jetsym.prolong import PointVectorField
from jetsym.symmetry import DifferentialEquation, check_symmetry

ODE1 = JetSpec(("x",), ("u",), 1)
ODE2 = JetSpec(("x",), ("u",), 2)
PDE2 = JetSpec(("x", "t"), ("u",), 2)
SYS1 = JetSpec(("x",), ("u", "v"), 1)


def field(spec, xi, psi):
    return JetVectorField(
        spec,
        tuple(parse(s) for s in xi),
        {k: parse(s) for k, s in psi.items()},
    )


J0_1 = (0,)
J0_2 = (0, 0)


# --- naming -----------------------------------------------------------------

def test_jet_names_follow_declaration_order():
    assert PDE2.jet_name(0, (2, 1)) == "u_xxt"
    assert PDE2.jet_name(0, J0_2) == "u"
    assert PDE2.decode("u_xt") == ("jet", 0, (1, 1))
    assert PDE2.decode("x") == ("independent", 0)
    assert PDE2.decode("c") == ("auxiliary", None)


def test_decode_rejects_misordered_or_alien_suffix():
    with pytest.raises(JetError):
        PDE2.decode("u_tx")
    with pytest.raises(JetError):
        PDE2.decode("u_zz")


def test_spec_validation():
    with pytest.raises(JetError):
        JetSpec(("x", "x"), ("u",), 1)
    with pytest.raises(JetError):
        JetSpec(("x",), ("u",), 0)
    with pytest.raises(JetError):
        JetSpec(("x", "xx"), ("u",), 1)
    with pytest.raises(JetError):
        JetSpec(("x",), ("u_1",), 1)


# --- value classes ----------------------------------------------------------

def _field(phi):
    return PointVectorField(ODE1, (parse("x"),), (parse(phi),))


def _equation(rhs):
    return DifferentialEquation.from_strings(ODE2, {"u_xx": rhs})


def _gauge(corner):
    return GaugeFunction(SYS1, [[1, parse(corner)], [0, 1]])


# per value class: a field name, two equal values built apart, and a
# value that differs from them
VALUES = {
    "JetSpec": ("order", JetSpec(("x",), ("u",), 2), JetSpec(["x"], ["u"], 2), ODE1),
    "MuForm": ("matrices", MuForm.scalar(ODE1, [parse("u")]), MuForm(ODE1, [[[parse("u")]]]),
               MuForm.scalar(ODE1, [parse("x")])),
    "GaugeFunction": ("entries", _gauge("u"), _gauge("u"), _gauge("x")),
    "PointVectorField": ("xi", _field("u"), _field("u"), _field("2*u")),
    "DifferentialEquation": ("equations", _equation("u"), _equation("u"), _equation("-u")),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_values_compare_and_hash_by_their_fields(name):
    _, a, same, other = VALUES[name]
    assert a is not same and a == same and hash(a) == hash(same)
    assert a != other and not a == other
    assert {a: 1, other: 2}[same] == 1 and len({a, same, other}) == 2
    # a copy is the frozen value itself; a pickle rebuilds an equal one
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", list(VALUES))
def test_values_are_frozen(name):
    field_name, a, same, other = VALUES[name]
    with pytest.raises(AttributeError):
        setattr(a, field_name, getattr(other, field_name))
    with pytest.raises(AttributeError):
        delattr(a, field_name)
    assert a == same


def test_equal_specs_share_the_jet_caches():
    first, again = JetSpec(["x", "t"], ["u"], 2), JetSpec(("x", "t"), ("u",), 2)
    _decode.cache_clear()
    _total_derivation.cache_clear()
    assert _total_derivation(first, 0) is _total_derivation(again, 0)
    assert _decode(first, "u_xt") == _decode(again, "u_xt") == ("jet", 0, (1, 1))
    assert _total_derivation.cache_info().hits == 1 and _decode.cache_info().hits == 1


def test_specs_that_differ_keep_their_own_derivations():
    D = _total_derivation(PDE2, 0)
    assert _total_derivation(PDE2, 1) is not D
    for other in (JetSpec(("x", "t"), ("u",), 3), JetSpec(("x", "s"), ("u",), 2),
                  JetSpec(("x", "t"), ("w",), 2)):
        assert other != PDE2 and _total_derivation(other, 0) is not D


# Total derivatives whose atoms other derivations resolve differently: on
# (x; v), u_x is an auxiliary constant; along t, u_x goes to u_xt.
HISTORY_TEXTS = ("u*u_x + x*t", "exp(u_x)*sin(t*u)", "u_xt/(1 + u_x^2)", "log(x + u_t)*u_x")
HISTORY_SCRIPT = f"""
from jetsym.expr import to_string
from jetsym.jets import JetSpec, total_derivative
from jetsym.parsing import parse

for text in {HISTORY_TEXTS!r}:
    print(to_string(total_derivative(parse(text), 0, JetSpec(("x", "t"), ("u",), 2))))
"""


def test_total_derivatives_do_not_depend_on_earlier_derivations():
    fresh = run_child(HISTORY_SCRIPT, timeout=60)
    others = (JetSpec(("x",), ("v",), 2), JetSpec(("x", "t"), ("u",), 3))
    for text in reversed(HISTORY_TEXTS):
        e = parse(text)
        total_derivative(e, 1, PDE2)
        total_derivative(total_derivative(e, 0, PDE2), 1, PDE2)
        for spec in others:
            total_derivative(e, 0, spec)
    assert [to_string(total_derivative(parse(t), 0, PDE2)) for t in HISTORY_TEXTS] == fresh


def test_a_total_derivation_keeps_only_variable_images_across_calls():
    D = _total_derivation(PDE2, 0)
    for k in range(1, 41):
        total_derivative(parse(f"sin(u + {k}*x)*exp(u_x/{k})*u_t"), 0, PDE2)
    assert all(key[0] == 1 for key in D.images)  # variables only
    # the function atoms in the memo are the last call's two kernels
    assert len(set(D.memo) - set(D.images)) == 2


def test_values_validate_and_coerce_their_fields():
    for independent, dependent in (((), ("u",)), (("x",), ())):
        with pytest.raises(JetError, match="at least one independent"):
            JetSpec(independent, dependent, 1)
    spec = JetSpec(["x"], ["u", "v"], 1)
    assert spec.independent == ("x",) and spec.dependent == ("u", "v")
    assert repr(spec) == "JetSpec(independent=('x',), dependent=('u', 'v'), order=1)"


@pytest.mark.parametrize("J", [(-1,), (0, 1), (), (1, -1)])
def test_a_multiindex_is_a_tuple_of_p_non_negative_counts(J):
    with pytest.raises(JetError, match="not a multiindex"):
        multiindex(ODE1, J)
    with pytest.raises(JetError, match="not a multiindex"):
        JetVectorField(ODE1, (ZERO,), {(0, J): ZERO})
    with pytest.raises(JetError, match="not a multiindex"):
        DifferentialEquation(ODE1, [((0, J), parse("u"))])
    with pytest.raises(JetError, match="not a multiindex"):
        ODE1.jet_name(0, J)


def test_a_multiindex_given_as_a_sequence_becomes_its_tuple():
    assert multiindex(PDE2, [2, 0]) == (2, 0)
    eq = DifferentialEquation(ODE2, [((0, [2]), parse("u"))])
    assert eq.leading(0) == (2,) and eq == _equation("u")


@pytest.mark.parametrize("a", [5, -1, 1, "0"])
def test_a_dependent_index_out_of_range_is_an_error(a):
    """An index outside range(q), negative ones included, is refused by
    every constructor that takes one, not read as another coordinate or
    as a coordinate that no equation or verdict can see."""
    u = parse("u")
    with pytest.raises(JetError, match="dependent index"):
        jet_coordinate(ODE1, a, (1,))
    with pytest.raises(JetError, match="dependent index"):
        ODE1.jet_name(a, (1,))
    for J in ((0,), (1,)):
        with pytest.raises(JetError, match="dependent index"):
            JetVectorField(ODE1, (ZERO,), {(a, J): u})
    with pytest.raises(EquationError, match="dependent index"):
        DifferentialEquation(ODE1, [((a, (1,)), u)])


BAD_COORDINATES = [(5, (1, 0)), (-1, (1, 0)), (1.0, (1, 0)), ("0", (1, 0)),
                   (0, (1,)), (0, (-1, 1)), (0, (1.0, 0))]


def _outcome(spec, a, J):
    try:
        return spec.jet_name(a, J)
    except Exception as exc:  # the comparison covers any exception
        return type(exc), str(exc)


def test_a_space_that_has_named_a_coordinate_still_checks_every_call():
    """A space keeps the names it has made, yet a call with an invalid
    coordinate, or with a count that only equals an int, fails as it does
    on a space that has named nothing."""
    named = JetSpec(("x", "t"), ("u", "v"), 2)
    for J in named.multi_indices():
        for a in range(named.q):
            named.jet_name(a, J)
    for a, J in BAD_COORDINATES:
        fresh = JetSpec(("x", "t"), ("u", "v"), 2)
        assert _outcome(named, a, J) == _outcome(fresh, a, J)
    for a, J in BAD_COORDINATES[:4]:
        with pytest.raises(JetError, match="dependent index"):
            named.jet_name(a, J)
    for a, J in BAD_COORDINATES[4:]:
        with pytest.raises(JetError, match="not a multiindex"):
            named.jet_name(a, J)
    assert named.jet_name(0, [1, 0]) == named.jet_name(0, (1, 0)) == "u_x"
    with pytest.raises(JetError, match="dependent index"):
        named.jet_name(True, (0, 1))


@pytest.mark.parametrize("a", [True, False])
def test_a_bool_dependent_index_is_not_a_coordinate(a):
    """A bool equals 0 or 1 but is not a dependent index: a field keyed
    by one is refused, not kept under the key ``(True, J)``."""
    spec = JetSpec(("x",), ("u", "v"), 1)
    with pytest.raises(JetError, match="dependent index"):
        jet_coordinate(spec, a, (1,))
    with pytest.raises(JetError, match="dependent index"):
        spec.jet_name(a, (1,))
    with pytest.raises(JetError, match="dependent index"):
        JetVectorField(spec, [ZERO], {(a, (0,)): parse("u")})


def test_a_float_count_is_not_a_multiindex():
    with pytest.raises(JetError, match="not a multiindex"):
        JetSpec(("x",), ("u",), 2).jet_name(0, (1.5,))


def test_a_field_refuses_a_float_count_in_a_key():
    spec = JetSpec(("x",), ("u",), 2)
    with pytest.raises(JetError, match="not a multiindex"):
        JetVectorField(spec, [0], {(0, (1.0,)): parse("u")})


def test_a_bool_count_is_not_a_multiindex():
    """``True`` equals 1 and hashes as 1, yet it is not a count, on a
    space that has named ``u_x`` as on one that has named nothing."""
    for named in (False, True):
        spec = JetSpec(("x",), ("u",), 2)
        if named:
            assert spec.jet_name(0, (1,)) == "u_x"
        with pytest.raises(JetError, match="not a multiindex"):
            spec.jet_name(0, (True,))


@pytest.mark.parametrize("order", [2.0, True, "2", 0, -1, None])
def test_a_jet_order_is_an_int_of_at_least_one(order):
    with pytest.raises(JetError, match="jet order must be"):
        JetSpec(("x",), ("u",), order)


def test_the_dependent_index_zero_is_the_first_coordinate():
    assert jet_coordinate(ODE1, 0, [1]) == (0, (1,))
    assert ODE1.jet_name(0, (1,)) == "u_x"
    assert SYS1.jet_name(1, (1,)) == "v_x"
    equation = DifferentialEquation(ODE1, [((0, (1,)), parse("u"))])
    scaling = PointVectorField(ODE1, [ZERO], [parse("u")])
    assert check_symmetry(scaling, equation).verdict is Verdict.TRUE


def test_multi_index_enumeration_is_graded_first_slot_first():
    names = [PDE2.jet_name(0, J) for J in PDE2.multi_indices(2)]
    assert names == ["u", "u_x", "u_t", "u_xx", "u_xt", "u_tt"]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_multi_indices_match_a_sorted_brute_force_enumeration(p):
    spec = JetSpec([f"x{i}" for i in range(p)], ["u"], 1)
    for max_order in range(5):
        every = list(itertools.product(range(max_order + 1), repeat=p))
        for min_order in range(max_order + 2):
            want = sorted((c for c in every if min_order <= sum(c) <= max_order),
                          key=lambda c: (sum(c), tuple(-k for k in c)))
            assert spec.multi_indices(max_order, min_order=min_order) == want


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_canonical_steps_reach_each_multiindex_once_along_its_last_slot(p):
    spec = JetSpec([f"x{i}" for i in range(p)], ["u"], 1)
    for n in range(5):
        steps = list(spec.canonical_steps(n))
        every = [c for c in itertools.product(range(n + 1), repeat=p) if 1 <= sum(c) <= n]
        assert sorted(J for J, _i, _K in steps) == sorted(every)
        assert [J for J, _i, _K in steps] == spec.multi_indices(n, min_order=1)
        reached = {(0,) * p}
        for J, i, K in steps:
            assert i == max(m for m in range(p) if J[m])
            assert K == tuple(c - (m == i) for m, c in enumerate(J))
            assert K in reached
            reached.add(J)


# --- total derivative -------------------------------------------------------

def test_total_derivative_base_case():
    assert total_derivative(parse("u"), 0, ODE1) == parse("u_x")


def test_total_derivative_product():
    assert total_derivative(parse("x*u"), 0, ODE1) == parse("u + x*u_x")


def test_total_derivative_chain_second_variable():
    assert total_derivative(parse("u_x^2"), 1, PDE2) == parse("2*u_x*u_xt")


def test_auxiliary_names_are_constants():
    assert total_derivative(parse("c"), 0, ODE1) == rational(0)
    assert total_derivative(parse("c*u"), 0, ODE1) == parse("c*u_x")


@pytest.mark.parametrize("text", ["u_tx", "x*exp(u_zz)", "sin(c + u_xtx)"])
def test_malformed_jet_names_raise_wherever_they_occur(text):
    e = parse(text)
    Y = field(PDE2, ["1", "0"], {(0, (0, 0)): "u"})
    # total_derivative twice: resolved names are cached, a bad name never is
    for derive in (
        lambda: total_derivative(e, 0, PDE2),
        lambda: total_derivative(e, 0, PDE2),
        lambda: Y.apply(e),
        lambda: scalar_differential(e, PDE2),
    ):
        with pytest.raises(JetError):
            derive()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["u*u_x + x*t", "u_x*u_t", "x^2*u + t*u_xx", "sin(u)*u_x"]))
def test_total_derivatives_commute(text):
    e = parse(text)
    d01 = total_derivative(total_derivative(e, 0, PDE2), 1, PDE2)
    d10 = total_derivative(total_derivative(e, 1, PDE2), 0, PDE2)
    assert d01 == d10


# --- contact forms ----------------------------------------------------------

def test_contact_form_scalar():
    theta = contact_form(0, J0_1, ODE1)
    assert theta.coefficient(basis_key_du(0, J0_1)) == rational(1)
    assert theta.coefficient(basis_key_dx(0)) == parse("-u_x")


def test_contact_form_higher_and_second_component():
    theta = contact_form(0, (1, 0), PDE2)
    assert theta.coefficient(basis_key_du(0, (1, 0))) == rational(1)
    assert theta.coefficient(basis_key_dx(0)) == parse("-u_xx")
    assert theta.coefficient(basis_key_dx(1)) == parse("-u_xt")
    theta_v = contact_form(1, J0_1, SYS1)
    assert theta_v.coefficient(basis_key_du(1, J0_1)) == rational(1)
    assert theta_v.coefficient(basis_key_dx(0)) == parse("-v_x")


def test_no_contact_form_at_top_order():
    with pytest.raises(JetError):
        contact_form(0, (1,), ODE1)


def test_contact_forms_annihilate_total_derivative_directions():
    for spec in (ODE2, PDE2):
        for i in range(spec.p):
            dhat = truncated_total_derivative(spec, i)
            for J in spec.multi_indices(spec.order - 1):
                theta = contact_form(0, J, spec)
                assert interior_product(dhat, theta) == rational(0)


# --- interior product -------------------------------------------------------

def test_interior_product_examples():
    theta = contact_form(0, J0_1, ODE1)
    d_u = field(ODE1, ["0"], {(0, J0_1): "1"})
    d_x = field(ODE1, ["1"], {})
    assert interior_product(d_u, theta) == rational(1)
    assert interior_product(d_x, theta) == parse("-u_x")


def test_interior_product_prolonged_field():
    # scaling field x d_x + u d_u prolonged to order 1 has psi_x = 0
    Y = field(ODE2, ["x"], {(0, J0_1): "u", (0, (1,)): "0"})
    omega = contact_form(0, (1,), ODE2)
    assert interior_product(Y, omega) == parse("-x*u_xx")


# --- exterior derivative ----------------------------------------------------

def test_exterior_derivative_of_u_dx():
    omega = dx(0).scale(parse("u"))
    tau = exterior_derivative(omega, ODE1)
    assert tau.coefficient(basis_key_du(0, J0_1), basis_key_dx(0)) == rational(1)
    assert tau.coefficient(basis_key_dx(0), basis_key_du(0, J0_1)) == rational(-1)


def test_exterior_derivative_of_constant_coefficient():
    omega = dx(0).scale(rational(3))
    assert exterior_derivative(omega, ODE1).is_structurally_zero


def test_exterior_derivative_of_contact_form():
    theta = contact_form(0, J0_1, ODE1)
    tau = exterior_derivative(theta, ODE1)
    assert tau.coefficient(basis_key_dx(0), basis_key_du(0, (1,))) == rational(1)
    assert len(tau.coeffs) == 1


def test_form_subtraction_adds_the_negated_coefficients():
    a = dx(0).scale(parse("u")) + du(0, J0_1).scale(parse("x"))
    b = contact_form(0, J0_1, ODE2)
    diff = a - b
    assert diff.coefficient(basis_key_dx(0)) == parse("u + u_x")
    assert diff.coefficient(basis_key_du(0, J0_1)) == parse("x - 1")
    assert diff + b == a and (a - a).is_structurally_zero
    tau, sigma = exterior_derivative(a, ODE2), exterior_derivative(b, ODE2)
    # d(u dx + x du) = 0 and d(theta) = dx ^ du_x, so the difference is du_x ^ dx
    assert tau.is_structurally_zero
    low = tau - sigma
    assert low.coefficient(basis_key_du(0, (1,)), basis_key_dx(0)) == rational(1)
    assert low + sigma == tau and (sigma - sigma).is_structurally_zero


def test_exterior_derivative_against_sympy():
    # d(sum f dg) = sum df ^ dg, coefficient by coefficient; f and g hold
    # every coordinate, so the du coefficients vary and both orders of a
    # stored pair, (dk, du) and (du, dk), are exercised
    sympy = pytest.importorskip("sympy")
    spec = JetSpec(("x", "t"), ("u",), 1)
    keys = [basis_key_dx(i) for i in range(spec.p)]
    keys += [basis_key_du(0, K) for K in spec.multi_indices(1)]
    names = [spec.independent[k[1]] if k[0] == "x" else spec.jet_name(0, k[2])
             for k in keys]
    symbol = {n: sympy.Symbol(n) for n in names}

    def read(e):
        return sympy.sympify(str(e).replace("^", "**"), locals=symbol)

    rng = random.Random(17)
    for _ in range(10):
        omega, pairs = Form({}), []
        for _ in range(2):
            f, g = (rand_poly(rng, names, 2, 3) for _ in range(2))
            omega = omega + scalar_differential(g, spec).scale(f)
            pairs.append((read(f), read(g)))
        tau = exterior_derivative(omega, spec)
        for (k1, n1), (k2, n2) in itertools.combinations(zip(keys, names), 2):
            s1, s2 = symbol[n1], symbol[n2]
            want = sum(sympy.diff(f, s1) * sympy.diff(g, s2) - sympy.diff(f, s2) * sympy.diff(g, s1)
                       for f, g in pairs)
            assert sympy.expand(read(tau.coefficient(k1, k2)) - want) == 0, (k1, k2)


# --- Lie derivative ---------------------------------------------------------

def test_lie_derivative_translation_kills_dx():
    d_x = field(ODE1, ["1"], {})
    assert lie_derivative(d_x, dx(0), ODE1).is_structurally_zero


def test_lie_derivative_vertical_shift_kills_contact_form():
    d_u = field(ODE1, ["0"], {(0, J0_1): "1"})
    theta = contact_form(0, J0_1, ODE1)
    assert lie_derivative(d_u, theta, ODE1).is_structurally_zero


def test_scaling_identity_for_lie_derivatives():
    # L_{fY}(w) = f L_Y(w) + (Y . w) df, checked on concrete data
    spec = ODE2
    Y = field(spec, ["u"], {(0, J0_1): "x*u", (0, (1,)): "u_x^2"})
    omega = du(0, J0_1).scale(parse("x")) + dx(0).scale(parse("u_x"))
    for f_text in ("x", "u", "x*u_x + 1"):
        f = parse(f_text)
        lhs = lie_derivative(scale_field(Y, f), omega, spec)
        rhs = lie_derivative(Y, omega, spec).scale(f) + scalar_differential(f, spec).scale(
            interior_product(Y, omega)
        )
        assert lhs == rhs


# --- contact module membership ----------------------------------------------

def test_scalar_multiple_of_contact_form_is_in_module():
    theta = contact_form(0, J0_1, ODE1).scale(parse("x^2"))
    assert in_contact_module(theta, ODE1).verdict is Verdict.TRUE


def test_horizontal_form_is_not_in_module():
    m = in_contact_module(dx(0), ODE1)
    assert m.verdict is Verdict.FALSE
    assert m.horizontal_residuals[0] == rational(1)


def test_top_order_differential_is_not_in_module():
    m = in_contact_module(du(0, (1,)), ODE1)
    assert m.verdict is Verdict.FALSE
    assert m.top_residuals[(0, (1,))] == rational(1)


def test_decomposition_reconstructs_the_form():
    spec = PDE2
    omega = (
        du(0, J0_2).scale(parse("x*t"))
        + du(0, (1, 0)).scale(parse("u_t"))
        + dx(0).scale(parse("u + t"))
        + du(0, (2, 0)).scale(parse("3"))
    )
    m = in_contact_module(omega, spec)
    rebuilt = du(0, (2, 0)).scale(rational(0))
    for key, c in omega.coeffs.items():
        if key[0] == "u" and sum(key[2]) <= spec.order - 1:
            rebuilt = rebuilt + contact_form(key[1], key[2], spec).scale(c)
    for i, r in m.horizontal_residuals.items():
        rebuilt = rebuilt + dx(i).scale(r)
    for (a, J), c in m.top_residuals.items():
        rebuilt = rebuilt + du(a, J).scale(c)
    assert rebuilt == omega


def test_vector_module_membership():
    theta_v = contact_form(1, J0_1, SYS1)
    zero_form = dx(0).scale(rational(0))
    assert in_vector_contact_module([theta_v, zero_form], SYS1) is Verdict.TRUE
    assert in_vector_contact_module([dx(0), zero_form], SYS1) is Verdict.FALSE
    theta_1 = contact_form(0, J0_1, SYS1)
    comp = [theta_1.scale(parse("u")), theta_1.scale(parse("v"))]
    assert in_vector_contact_module(comp, SYS1) is Verdict.TRUE


# --- closedness -------------------------------------------------------------

def test_d_closed_examples():
    # closedness is flatness at q = 1: the residual is a 1x1 matrix
    mu = MuForm.scalar(PDE2, [parse("u_x"), parse("u_t")])
    assert maurer_cartan_check(mu).verdict is Verdict.TRUE
    mu2 = MuForm.scalar(PDE2, [parse("u"), parse("0")])
    res = maurer_cartan_check(mu2)
    assert res.verdict is Verdict.FALSE
    assert res.residuals == {(0, 1, 0, 0): parse("-u_t")}
    mu3 = MuForm.scalar(ODE1, [parse("u*u_x")])
    assert maurer_cartan_check(mu3).verdict is Verdict.TRUE  # single direction, no pairs
