"""Prolongations of point vector fields to jet space.

One function, :func:`lift`, computes every lift: without a form the
standard contact-preserving prolongation, with a horizontal form ``mu``
of q-by-q matrix coefficients the mu-deformed one, the scalar form
being its q = 1 case.  The lambda lift of a scalar ODE is the mu lift by
the form ``lambda dx`` (:func:`lambda_form`), and the standard lift the
mu lift by the zero form.  Every lift runs the same one-step recursion
along the canonical multiindex path, ``JetSpec.canonical_steps``, and
takes its jet coordinates from ``jets``: the multiindex steps ``J + e_i``
from ``jets.shifted``, the variables from the space, which keeps their
names.  A step builds each component in one numerator; the derivatives
``D_i xi^m`` of the field's base components, and the coefficients built
from them, are computed once per lift and shared by every step.  The
standard lift is computed once per field and order: the field keeps it,
and every later call returns that same read-only value, from which
``symmetry.invariant_set_relations`` also reads the total derivatives of
the characteristic.

The mu lift is path-independent exactly when the form is flat,
``D_i L_k - D_k L_i + [L_i, L_k] = 0``; at q = 1 the commutator drops
and flatness is closedness (Gaeta & Morando 2004, J. Phys. A 37:6955;
Cicogna, Gaeta & Morando 2004, J. Phys. A 37:9467).  A lift tests that
condition as an ``expr.Check`` of ``mu.curvature()``, the entries keyed
by ``(i, k, a, b)`` that the form computes; ``gauge.maurer_cartan_check``
is the same check for callers, on an equation's solutions if asked.  The
form of a point field must live on the first jet space; a field with
``generalized`` set takes a form of any jet order.  A ``path_check``
option accepts a form that is not proven flat and then verifies path
independence edge by edge; an exactly flat form needs no edge check,
because each step is ``Q_{J+i} = (D_i + L_i) Q_J`` on the characteristic
``Q_J = Psi_J - xi^m u_{J+m}`` and these deformed derivatives commute up
to the curvature.  A lift keeps the check it rests on, of the curvature
or of the re-derived edges, as its ``premise``; the verdicts of
``symmetry`` rest on it too, so a form that is only probably flat makes
no verdict TRUE.

The difference terms between a deformed and the standard lift vanish on
the invariant set of the field; :func:`difference_terms` computes them by
subtraction.
"""

from __future__ import annotations

from .errors import InconsistentMuError, JetError, MuNotClosedError, ProlongationError
from .expr import (
    Check,
    Expr,
    Verdict,
    ZERO,
    _radd_products,
    as_expr,
    expr_sum,
)
from .jets import (
    JetVectorField,
    MuForm,
    _Value,
    _set_field,
    as_order,
    jet_order,
    shifted,
    total_derivations,
    total_derivative,
)


class PointVectorField(_Value):
    """A vector field on the base space: one coefficient per independent
    variable and one per dependent variable, functions of (x, u).  With
    ``generalized`` set, coefficients may also depend on derivative
    coordinates and the same recursions apply verbatim.  The private
    ``_lifts`` maps an order to the field's standard lift (:func:`lift`)."""

    __slots__ = ("spec", "xi", "phi", "generalized", "_lifts")

    def __init__(self, spec, xi, phi, generalized=False):
        super().__init__(
            spec, tuple(as_expr(x) for x in xi), tuple(as_expr(f) for f in phi), generalized
        )
        _set_field(self, "_lifts", {})
        if len(self.xi) != self.spec.p or len(self.phi) != self.spec.q:
            raise JetError("component counts must match the jet space")
        for e in self.xi + self.phi:  # jet_order rejects a misspelled jet name
            if jet_order(e, self.spec) >= 1 and not self.generalized:
                raise JetError(
                    "point field coefficients may depend on (x, u) only; "
                    "set generalized=True for jet-dependent coefficients"
                )


def characteristic(X: PointVectorField):
    """The q-vector ``phi^a - u^a_i xi^i`` measuring the vertical action."""
    spec = X.spec
    out = []
    for a in range(spec.q):
        parts = [X.phi[a]]
        for i in range(spec.p):
            parts.append(-spec.jet_var(a, shifted((0,) * spec.p, i)) * X.xi[i])
        out.append(expr_sum(parts))
    return tuple(out)


def _make_step(X: PointVectorField, mu=None):
    """The one-step recursion of a lift along direction i,

        Psi^a_{J+i} = nabla_i Psi^a_J - W_i[a][b][m] u^b_{J+m},
        W_i[a][b][m] = delta_ab D_i xi^m + L_i[a][b] xi^m,

    summed over b and m, where L_i is the deforming form's matrix along i
    and ``nabla_i = D_i + L_i`` the deformed total derivative (no form for
    the standard lift, whose step takes D_i alone, and the 1x1 matrix
    lambda_i for a scalar form).  What a step needs that does not depend
    on J is worked out once per lift: the p total derivations, fetched
    through ``jets.total_derivations`` and called directly by every
    step; the nonzero coefficients W and entries of each L_i, as pairs.
    A step takes each ``u^b_{J+m}`` from the space, ``spec.jet_var(b,
    shifted(J, m))``, which names each coordinate once, and hands
    D_i Psi^a_J and its products to ``_radd_products``."""
    spec = X.spec
    p, q = spec.p, spec.q
    D = total_derivations(spec)
    # i -> a -> the nonzero (None, b, L_i[a][b]), then (m, b, W_i[a][b][m])
    T = [[[] for _a in range(q)] for _i in range(p)]
    for i in range(p):
        if mu is not None:
            for a, row in enumerate(mu.matrices[i]):
                T[i][a] = [(None, b, l._rf) for b, l in enumerate(row) if l != ZERO]
        for m, x in enumerate(X.xi):
            dxi = total_derivative(x, i, spec)
            for a in range(q):
                for b in range(q):
                    w = dxi if a == b else ZERO
                    if mu is not None:
                        w = w + mu.matrices[i][a][b] * x
                    if w != ZERO:
                        T[i][a].append((m, b, w._rf))

    def step(i, J, row):
        Di = D[i]
        out = []
        for a in range(q):
            terms = [(1, c, row[b]._rf) if m is None
                     else (-1, spec.jet_var(b, shifted(J, m))._rf, c)
                     for m, b, c in T[i][a]]
            out.append(Expr(_radd_products(Di(row[a])._rf, terms)))
        return tuple(out)

    return step


def _verify_path_independence(step, table, spec, n, *, seed=None) -> Check:
    """The ``Check`` of every single-step edge of the table, keyed by
    ``(a, J, i)``: the stored ``u^a_J`` minus the step into J along i;
    together the edges cover all increasing multiindex paths.  The
    canonical edge into each J made its stored value; the others are
    re-derived.  An edge that reads FALSE raises, the first one named."""
    edges = {}
    for J, last, _K in spec.canonical_steps(n):
        for i, c in enumerate(J):
            if not c or i == last:
                continue
            base = shifted(J, i, -1)
            alt = step(i, base, table[base])
            for a in range(spec.q):
                edges[a, J, i] = table[J][a] - alt[a]
    check = Check(edges, seed=seed)
    if check.verdict is Verdict.FALSE:
        # a nonzero edge that is not PROBABLY reads FALSE
        (a, J, _i), diff = next((key, e) for key, e in edges.items()
                                if e != ZERO and key not in check.probable)
        raise InconsistentMuError(
            f"recursion paths disagree at {spec.jet_name(a, J)}: difference {diff}"
        )
    return check


def lambda_form(X: PointVectorField, lam) -> MuForm:
    """The form ``lambda dx`` of the lambda lift of a scalar ODE field
    (one independent and one dependent variable), whose chain recursion
    is ``psi_{k+1} = (D + lambda) psi_k - u_{k+1} (D + lambda) xi``."""
    spec = X.spec
    if spec.p != 1 or spec.q != 1:
        raise ProlongationError(
            "lambda prolongation needs p = q = 1; use the mu lift otherwise"
        )
    return MuForm.scalar(spec, [lam])


def lift(
    X: PointVectorField, mu: MuForm = None, n=None, *, path_check=False, seed=None
) -> JetVectorField:
    """The lift of ``X`` to order ``n`` (the space's order by default, else
    an int of at least 1): without a form the standard,
    contact-preserving one; with a form ``mu`` the mu-deformed one, for
    every number q of dependent variables.  The form of a point field
    lives on the first jet space; a generalized field takes any form.  A
    form must be flat (``mu.curvature()`` vanishes; closed when q = 1),
    or carry an explicit ``path_check`` waiver under which path
    independence of the recursion is verified and any disagreement
    raises.

    Exact flatness already proves path independence, so ``path_check``
    re-derives the edges of the table only when the flatness verdict is
    not exactly TRUE.  The lift keeps what it rests on as its
    ``premise``, an ``expr.Check``: the check of the form's curvature,
    keyed by ``(i, k, a, b)`` (no entries for the standard lift, the
    lift by the zero form), or, when the edges were re-derived, their
    check, keyed by ``(a, J, i)``.  It is TRUE for the standard lift, for
    exact flatness and when every re-derived edge is exactly zero, and
    PROBABLY otherwise, its ``probable`` keys naming the entries or
    edges that read so.  With ``Q_J = Psi_J - xi^m u_{J+m}`` and the
    deformed derivative ``nabla_i = D_i + L_i``, the step reads
    ``Q_{J+i} = nabla_i Q_J``, for point and generalized fields alike;
    ``[nabla_i, nabla_k]`` is multiplication by the curvature
    ``D_i L_k - D_k L_i + [L_i, L_k]``, so when that vanishes every path
    to ``J`` gives the same ``Q_J`` (Gaeta & Morando 2004, J. Phys. A
    37:6955; Cicogna, Gaeta & Morando 2004, J. Phys. A 37:9467).

    The standard lift depends only on the field and the order, so each
    field keeps its standard lift of every order it was asked for and
    returns that same read-only value again; a lift with a form is
    computed afresh on every call."""
    spec = X.spec
    n = spec.order if n is None else as_order(n, "prolongation", ProlongationError)
    premise = Check({})
    if mu is None:
        kept = X._lifts.get(n)
        if kept is not None:
            return kept
    else:
        if mu.spec != spec:
            raise ProlongationError("mu must live on the field's jet space")
        if not X.generalized and any(jet_order(e, spec) > 1 for M in mu.matrices
                                     for row in M for e in row):
            raise ProlongationError(
                "the form depends on jet order > 1; set generalized=True on the field"
            )
        premise = Check(mu.curvature(), seed=seed)
        if premise.verdict is Verdict.FALSE and not path_check:
            raise MuNotClosedError(
                "the form is not flat (not closed when q = 1); "
                "pass path_check=True to verify path independence instead"
            )
    # the component table, keyed by multiindex and filled along the
    # canonical path, graded
    step = _make_step(X, mu)
    table = {(0,) * spec.p: tuple(X.phi)}
    for J, i, K in spec.canonical_steps(n):
        table[J] = step(i, K, table[K])
    if path_check and premise.verdict is not Verdict.TRUE:
        premise = _verify_path_independence(step, table, spec, n, seed=seed)
    psi = {(a, J): row[a] for J, row in table.items() for a in range(spec.q)}
    Y = JetVectorField(spec, X.xi, psi, order=n, premise=premise)
    if mu is None:
        X._lifts[n] = Y
    return Y


# ---------------------------------------------------------------------------
# difference terms


def difference_terms(
    X: PointVectorField, mu: MuForm, n=None, *, path_check=False, seed=None
) -> dict:
    """The difference ``Psi^mu_J - Psi_J`` between the mu lift and the
    standard lift, keyed by ``(a, J)`` for every ``|J| <= n``; the
    zero-order rows are identically zero."""
    return _differences(X, lift(X, mu, n, path_check=path_check, seed=seed))


def _differences(X: PointVectorField, deformed) -> dict:
    """``difference_terms`` of the deformed lift ``deformed`` of ``X``."""
    spec = X.spec
    standard = lift(X, n=deformed.order)
    return {(a, J): deformed.psi_at(a, J) - standard.psi_at(a, J)
            for J in spec.multi_indices(deformed.order) for a in range(spec.q)}
