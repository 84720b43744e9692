"""Differential forms on jet space: the geometric oracle for the lifts.

The lambda and mu prolongations are defined geometrically.  The Lie
derivative of a contact form along a lifted field stays in the contact
module, up to a lambda (or mu) multiple of the field's pairing with the
form, and the bracket of the lifted field with a total derivative pairs
with the contact forms to lambda times the field itself.  The package
computes the lifts by their one-step recursion (``prolong._make_step``);
the functions here state the definitions, and the tests check the
recursion against them.

A form is a map from basis keys to coefficients: ``("x", i)`` for
``dx^i`` and ``("u", a, J)`` for ``du^a_J``, J the tuple of counts.  A two-form is keyed by
pairs ``(k1, k2)`` with ``k1 < k2``, its antisymmetric completion being
implicit.  Absent entries are zero.
"""

from collections import namedtuple

from jetsym.errors import JetError
from jetsym.expr import ONE, ZERO, Verdict, expr_sum, free_variables, pdiff, variable, zero_verdict
from jetsym.jets import (
    JetSpec,
    JetVectorField,
    MuForm,
    total_derivative,
)
from jetsym.prolong import characteristic


def basis_key_dx(i):
    return ("x", i)


def basis_key_du(a, J):
    return ("u", a, J)


def inc(J, i):
    """The multiindex ``J + i``, one more count in slot i."""
    return J[:i] + (J[i] + 1,) + J[i + 1:]


def total_derivative_along(e, J, spec):
    """``D_J e``, taken as ``J[i]`` total derivatives along each slot i."""
    for i, c in enumerate(J):
        for _ in range(c):
            e = total_derivative(e, i, spec)
    return e


class Form:
    """A one-form, or a two-form when its keys are pairs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {k: e for k, e in coeffs.items() if e != ZERO}

    def coefficient(self, *key):
        """The coefficient on one basis key, or on a pair of them."""
        if len(key) == 1:
            return self.coeffs.get(key[0], ZERO)
        k1, k2 = key
        if k1 < k2:
            return self.coeffs.get(key, ZERO)
        return -self.coeffs.get((k2, k1), ZERO)

    @property
    def is_structurally_zero(self):
        return not self.coeffs

    def __add__(self, other):
        acc = {k: [v] for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            acc.setdefault(k, []).append(v)
        return Form({k: expr_sum(v) for k, v in acc.items()})

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, f):
        return Form({k: f * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return self.coeffs == other.coeffs


def dx(i):
    return Form({basis_key_dx(i): ONE})


def du(a, J):
    return Form({basis_key_du(a, J): ONE})


def contact_form(a, J, spec):
    """The contact form ``du^a_J - u^a_{J+i} dx^i``, for |J| below the
    jet order."""
    if sum(J) > spec.order - 1:
        raise JetError(
            f"no contact form at order {sum(J)} on a jet space of order {spec.order}"
        )
    coeffs = {basis_key_dx(i): -spec.jet_var(a, inc(J, i)) for i in range(spec.p)}
    coeffs[basis_key_du(a, J)] = ONE
    return Form(coeffs)


def component(Y, key):
    """The component of a jet vector field along one basis key; zero
    above the field's order."""
    if key[0] == "x":
        return Y.xi[key[1]]
    return Y.psi_at(key[1], key[2])


def interior_product(Y, omega):
    """The pairing of a jet vector field with a one-form."""
    return expr_sum(component(Y, k) * c for k, c in omega.coeffs.items())


def scalar_differential(f, spec):
    """df, one partial derivative per coordinate that ``f`` holds;
    auxiliary names are parameters and have no differential."""
    coeffs = {}
    for name in free_variables(f):
        kind = spec.decode(name)
        if kind[0] == "independent":
            coeffs[basis_key_dx(kind[1])] = pdiff(f, name)
        elif kind[0] == "jet":
            coeffs[basis_key_du(kind[1], kind[2])] = pdiff(f, name)
    return Form(coeffs)


def exterior_derivative(omega, spec):
    """d(sum c_k dk) = sum dc_k ^ dk."""
    acc = {}
    for key, c in omega.coeffs.items():
        for vkey, d in scalar_differential(c, spec).coeffs.items():
            if vkey < key:
                acc.setdefault((vkey, key), []).append(d)
            elif key < vkey:
                acc.setdefault((key, vkey), []).append(-d)
    return Form({k: expr_sum(v) for k, v in acc.items()})


def lie_derivative(Y, omega, spec):
    """Cartan's formula: ``i_Y d(omega) + d(i_Y omega)``, where the pair
    ``(k1, k2)`` of a two-form contracts to ``Y^k1 dk2 - Y^k2 dk1``."""
    acc = {}
    for (k1, k2), c in exterior_derivative(omega, spec).coeffs.items():
        acc.setdefault(k2, []).append(component(Y, k1) * c)
        acc.setdefault(k1, []).append(-component(Y, k2) * c)
    contracted = Form({k: expr_sum(v) for k, v in acc.items()})
    return contracted + scalar_differential(interior_product(Y, omega), spec)


Membership = namedtuple("Membership", "verdict horizontal_residuals top_residuals")


def in_contact_module(omega, spec):
    """Rewrite each ``du^a_J`` below the jet order through its contact
    form; ``omega`` lies in the contact module exactly when the horizontal
    remainder along each ``dx^i`` and the top-order ``du`` coefficients
    vanish.  The residuals hold the nonzero remainders and the top-order
    coefficients."""
    horizontal = [[] for _ in range(spec.p)]
    tops = {}
    for key, c in omega.coeffs.items():
        if key[0] == "x":
            horizontal[key[1]].append(c)
            continue
        a, J = key[1], key[2]
        if sum(J) < spec.order:
            for i in range(spec.p):
                horizontal[i].append(c * spec.jet_var(a, inc(J, i)))
        else:
            tops[(a, J)] = c
    remainders = [expr_sum(parts) for parts in horizontal]
    verdict = Verdict.combine(zero_verdict(r) for r in remainders + list(tops.values()))
    return Membership(verdict, {i: r for i, r in enumerate(remainders) if r != ZERO}, tops)


def in_vector_contact_module(forms, spec):
    """Membership of a q-tuple of one-forms in the vector contact module;
    matrix coefficients are free, so the test is componentwise."""
    assert len(forms) == spec.q
    return Verdict.combine(in_contact_module(w, spec).verdict for w in forms)


def truncated_total_derivative(spec, i, order=None):
    """``D_i`` as a jet vector field whose components stop at ``order``
    (default: the jet order)."""
    order = spec.order if order is None else order
    xi = [ONE if m == i else ZERO for m in range(spec.p)]
    psi = {(a, J): spec.jet_var(a, inc(J, i))
           for J in spec.multi_indices(order) for a in range(spec.q)}
    return JetVectorField(spec, xi, psi, order=order)


def commutator_with_total_derivative(Y, i):
    """The bracket ``[Y, D_i]`` by its action on the coordinates, ``D_i``
    truncated at the field's order; oriented so that a lambda-lifted field
    pairs with the contact forms to ``+lambda`` times the pairing of Y."""
    spec, n = Y.spec, Y.order
    dhat = truncated_total_derivative(spec, i, n)

    def bracket(v):
        return Y.apply(dhat.apply(v)) - dhat.apply(Y.apply(v))

    xi = [bracket(variable(x)) for x in spec.independent]
    psi = {(a, J): bracket(spec.jet_var(a, J))
           for J in spec.multi_indices(n) for a in range(spec.q)}
    return JetVectorField(spec, xi, psi, order=n)


def characterization_check(Y, lam=ZERO):
    """The verdict that ``[Y, D_i]`` pairs with every contact form to
    ``lam`` times Y's own pairing: ``lam = 0`` characterizes the standard
    lift, and the lambda of a scalar ODE (p = 1) its lambda lift."""
    spec = JetSpec(Y.spec.independent, Y.spec.dependent, Y.order)
    verdicts = []
    for i in range(spec.p):
        C = commutator_with_total_derivative(Y, i)
        for J in spec.multi_indices(spec.order - 1):
            for a in range(spec.q):
                theta = contact_form(a, J, spec)
                r = interior_product(C, theta) - lam * interior_product(Y, theta)
                verdicts.append(zero_verdict(r))
    return Verdict.combine(verdicts)


def difference_recursion(X, mu, terms):
    """Re-derive the scalar ``prolong.difference_terms`` through their own
    recursion ``F_{J+i} = (D_i + lambda_i) F_J + lambda_i D_J Q``, where
    Q is the characteristic and ``F_0 = 0``.  Returns the verdict over
    every edge and the nonzero residuals, keyed by ``(J, i)``."""
    spec = X.spec
    n = max(sum(J) for _a, J in terms)
    Q = characteristic(X)[0]
    residuals = {}
    verdicts = []
    for J in spec.multi_indices(n - 1):
        F, dq = terms[(0, J)], total_derivative_along(Q, J, spec)
        for i, lam in enumerate(mu.lambdas):
            r = terms[(0, inc(J, i))] - total_derivative(F, i, spec) - lam * (F + dq)
            if r != ZERO:
                residuals[(J, i)] = r
            verdicts.append(zero_verdict(r))
    return Verdict.combine(verdicts), residuals


def zero_mu(spec):
    """The zero horizontal form, one zero q-by-q matrix per direction."""
    return MuForm(spec, [[[ZERO] * spec.q] * spec.q] * spec.p)


def scale_field(Y, f):
    """The jet vector field ``f Y``."""
    return JetVectorField(
        Y.spec, [f * x for x in Y.xi], {k: f * v for k, v in Y.psi.items()}, order=Y.order
    )
