"""Structure theory of the deforming form: flatness, potentials, gauge moves.

The form is admissible when its coefficient matrices satisfy the
horizontal flatness condition ``D_i L_k - D_k L_i + [L_i, L_k] = 0``,
closedness when q = 1.  :func:`maurer_cartan_check` is the one check of
it: an ``expr.Check`` of the entries of ``MuForm.curvature``, keyed by
``(i, k, a, b)``.  For symmetries of a fixed equation the condition only
needs to hold on the solution manifold, so given the equation the check
restricts each entry there before zero testing.

Flat forms are differential-logarithmic derivatives of gauge functions:
:func:`darboux_derivative` computes ``gamma^-1 (D_i gamma)`` of a
:class:`GaugeFunction`, a frozen value that holds its entries and their
inverse, and the result is always flat.  In the scalar case a closed
polynomial form has a polynomial potential whenever one exists within
the derived degree and
order bounds (:func:`scalar_potential`, sound by post-verification), and
:func:`verify_gauge_equivalence_scalar` checks constructively that the
lift by the form ``lambda dx``, with ``lambda = D_x phi``, is the standard
lift of the exp-rescaled field, component by component; its
``expr.Check`` is keyed by the multiindex of each component.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .backend import rat_parts
from .errors import (
    EquationError,
    GaugeError,
    NonPolynomialError,
    NoPotentialError,
    PotentialNotClosedError,
)
from .expr import (
    ONE,
    Check,
    Expr,
    Verdict,
    ZERO,
    as_expr,
    exp,
    expr_prod,
    expr_sum,
    free_variables,
    is_polynomial,
    variable,
    zero_verdict,
)
from .jets import (
    JetSpec,
    MuForm,
    _Value,
    jet_order,
    mat_identity,
    mat_mul,
    mat_square,
    mat_sub,
    mat_total_derivative,
    total_derivative,
)
from .prolong import PointVectorField, lift
from .symmetry import DifferentialEquation, restrict_to_solution_manifold


class GaugeFunction(_Value):
    """An invertible q-by-q matrix of expressions on jet space.

    Either the inverse is supplied explicitly (and the product is checked
    to normalize to the identity), or the matrix must be triangular with
    unit diagonal, in which case the polynomial inverse is computed from
    the nilpotent part.
    """

    __slots__ = ("spec", "entries", "inverse")

    def __init__(self, spec: JetSpec, entries, inverse=None):
        entries = mat_square(spec, entries, GaugeError, "gauge function must be a q by q matrix")
        if inverse is None:
            inverse = _unipotent_inverse(entries)
        else:
            inverse = mat_square(spec, inverse, GaugeError,
                                 "explicit inverse must be a q by q matrix")
            prod = mat_mul(entries, inverse)
            gap = mat_sub(prod, mat_identity(spec.q))
            for a, row in enumerate(gap):
                for b, e in enumerate(row):
                    if zero_verdict(e) is not Verdict.TRUE:
                        raise GaugeError(
                            "supplied inverse does not normalize to the identity "
                            f"(entry {a},{b} gives {prod[a][b]})"
                        )
        super().__init__(spec, entries, inverse)


def _unipotent_inverse(entries):
    """The inverse of a triangular matrix with unit diagonal."""
    q = len(entries)
    upper = all(entries[a][b] == ZERO for a in range(q) for b in range(a))
    lower = all(entries[a][b] == ZERO for a in range(q) for b in range(a + 1, q))
    unit = all(entries[a][a] == ONE for a in range(q))
    if not (unit and (upper or lower)):
        raise GaugeError(
            "without an explicit inverse the matrix must be triangular "
            "with unit diagonal"
        )
    # (I + N)^-1 = I - N + N^2 - ..., N nilpotent of index <= q
    N = mat_sub(entries, mat_identity(q))
    inv = mat_identity(q)
    power = mat_identity(q)
    sign = 1
    for _ in range(1, q):
        power = mat_mul(power, N)
        sign = -sign
        inv = tuple(
            tuple(inv[a][b] + sign * power[a][b] for b in range(q))
            for a in range(q)
        )
    return inv


def maurer_cartan_check(mu: MuForm, eq: DifferentialEquation = None, *, seed=None) -> Check:
    """Flatness of the form: every entry of ``mu.curvature()`` must
    vanish; for a scalar form the commutator drops and this is plain
    closedness.  Given an equation, each entry is restricted to its
    solution manifold before zero testing: compatibility is only required
    there when the form is used for symmetries of a fixed equation.  An
    equation on another jet space raises ``EquationError``."""
    if eq is not None and eq.spec != mu.spec:
        raise EquationError("form and equation live on different jet spaces")
    curvature = mu.curvature()
    if eq is not None:
        curvature = {key: restrict_to_solution_manifold(e, eq)
                     for key, e in curvature.items()}
    return Check(curvature, seed=seed)


# ---------------------------------------------------------------------------
# scalar potentials


def _total_degree(e):
    return max((sum(k for _a, k in m) for m in e._rf[0]), default=0)


def scalar_potential(mu: MuForm) -> Expr:
    """A function whose total derivatives reproduce the scalar form's
    coefficients.

    Works on the polynomial fragment by linear algebra over a finite
    candidate space: any polynomial potential must have jet order one
    below the coefficients' and degree at most one above, so solving for
    undetermined coefficients inside those bounds is complete for
    polynomial potentials.  The defining property is re-verified by total
    differentiation before returning; failure raises instead of guessing.
    """
    spec = mu.spec
    lambdas = mu.lambdas
    for l in lambdas:
        if not is_polynomial(l):
            raise NonPolynomialError(f"coefficient {l} is not polynomial")
    closed = maurer_cartan_check(mu)
    if closed.verdict is not Verdict.TRUE:
        nonzero = {(i, k): e for (i, k, _a, _b), e in closed.residuals.items()
                   if e != ZERO}
        raise PotentialNotClosedError(f"form is not closed: residuals {nonzero}")

    max_order = max((jet_order(l, spec) for l in lambdas), default=-1)
    degree = max((_total_degree(l) for l in lambdas), default=0) + 1
    names = list(spec.independent)
    for l in lambdas:
        for n in sorted(free_variables(l)):
            if spec.decode(n)[0] == "auxiliary" and n not in names:
                names.append(n)
    if max_order >= 1:
        for J in spec.multi_indices(max_order - 1):
            for a in range(spec.q):
                names.append(spec.jet_name(a, J))

    candidates = []
    for k in range(1, degree + 1):
        for combo in combinations_with_replacement(names, k):
            candidates.append(expr_prod(variable(n) for n in combo))

    # one linear equation per (direction, monomial of the expansion),
    # held as its nonzero coefficients, the right-hand side under ncols;
    # the monomials are the numerators' own, whose variable atoms sort by
    # name, and the coefficients the kernel's own until the solve
    ncols = len(candidates)
    rows = {}
    for i in range(spec.p):
        for mono, c in lambdas[i]._rf[0].items():
            rows.setdefault((i, mono), {})[ncols] = c
        for col, cand in enumerate(candidates):
            for mono, c in total_derivative(cand, i, spec)._rf[0].items():
                rows.setdefault((i, mono), {})[col] = c
    solution = _solve_exact([{col: Fraction(*rat_parts(c)) for col, c in rows[k].items()}
                             for k in sorted(rows)], ncols)
    if solution is None:
        raise NoPotentialError("no polynomial potential within the derived bounds")
    phi = expr_sum(c * cand for c, cand in zip(solution, candidates) if c)
    for i in range(spec.p):
        if total_derivative(phi, i, spec) - lambdas[i] != ZERO:
            raise NoPotentialError(
                "candidate potential failed post-verification"
            )  # pragma: no cover - the solve guarantees this
    return phi


def _solve_exact(rows, ncols):
    """Gauss-Jordan elimination over the rationals on sparse rows, each a
    dict from column to nonzero Fraction with the right-hand side under
    ``ncols``.  Column by column, the first remaining row that holds the
    column is the pivot.  Returns one solution (free unknowns at zero)
    or None."""
    rows = [dict(row) for row in rows]
    nrows = len(rows)
    pivot_of = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        prow = rows[r] = {k: v / pv for k, v in rows[r].items()}
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            for k, v in prow.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    del row[k]
        pivot_of[c] = r
        r += 1
        if r == nrows:
            break
    if any(row.keys() == {ncols} for row in rows):
        return None
    out = [Fraction(0)] * ncols
    for c, ri in pivot_of.items():
        out[c] = rows[ri].get(ncols, Fraction(0))
    return out


# ---------------------------------------------------------------------------
# Darboux derivatives and scalar gauge equivalence


def darboux_derivative(gamma: GaugeFunction) -> MuForm:
    """The form ``gamma^-1 (D_i gamma) dx^i`` attached to a gauge
    function; always flat."""
    spec = gamma.spec
    mats = [
        mat_mul(gamma.inverse, mat_total_derivative(gamma.entries, i, spec))
        for i in range(spec.p)
    ]
    return MuForm(spec, mats)


def verify_gauge_equivalence_scalar(
    X: PointVectorField, phi, n=None, *, seed=None
) -> Check:
    """Constructive gauge equivalence for scalar ODE fields: with
    ``lambda = D_x phi``, the lift of X by the form ``lambda dx`` agrees,
    after multiplication by e^phi, with the standard lift of the field
    with coefficients scaled by e^phi.  The residuals
    ``e^phi Psi^lambda_J - Psi^std_J`` are keyed by the multiindex J."""
    spec = X.spec
    if spec.p != 1 or spec.q != 1:
        raise GaugeError("scalar gauge equivalence needs p = q = 1")
    phi = as_expr(phi)
    if not is_polynomial(phi):
        raise NonPolynomialError("the potential must be polynomial")
    jet_dependent = jet_order(phi, spec) >= 1
    if jet_dependent and not X.generalized:
        raise GaugeError(
            "jet-dependent potential needs a field with generalized=True"
        )
    lam = total_derivative(phi, 0, spec)
    A = lift(X, MuForm.scalar(spec, [lam]), n, seed=seed)
    scale = exp(phi)
    rescaled = PointVectorField(
        spec, (scale * X.xi[0],), (scale * X.phi[0],), generalized=True
    )
    B = lift(rescaled, n=A.order)
    return Check({J: scale * A.psi_at(0, J) - B.psi_at(0, J)
                  for J in spec.multi_indices(A.order)}, seed=seed)
