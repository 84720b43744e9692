"""Differential equations in solved form and symmetry verdicts.

An equation system assigns to each dependent variable one leading
derivative of top order and a right-hand side that contains no leading
derivative or derivative thereof.  Restriction to the solution manifold
substitutes the leading coordinates and their derivative consequences,
innermost first, so it terminates by construction; it closes each
grade of them before the next, so it does not depend on the order of
the independent variables.

A field is a symmetry, for a form ``mu`` a mu-symmetry (a lambda-symmetry
when ``mu = lambda dx``), when its lift by that form, applied as a
derivation to each residual ``u^a_{J*} - f^a``, vanishes after
restriction; :func:`check_symmetry` returns the ``expr.Check`` of these
residuals, keyed by ``a``.  :func:`coincide_on_invariant_set` checks
that a deformed lift agrees with the standard one on the invariant set
of the field, where every total derivative of its characteristic
vanishes; its :class:`CoincidenceResult` is a ``Check`` of the
difference terms that also records the solved relations and whether
the set was empty or could not be solved.
"""

from __future__ import annotations

from itertools import groupby

from .errors import EquationError, RestrictionError
from .expr import (
    Check,
    Expr,
    Verdict,
    ZERO,
    _substitute,
    as_expr,
    constant_value,
    expr_sum,
    free_variables,
    pdiff,
    variable,
    zero_verdict,
)
from .jets import (
    JetSpec,
    MuForm,
    jet_coordinate,
    jet_order,
    total_derivative,
    _Value,
)
from .parsing import parse
from .prolong import PointVectorField, difference_terms, lift


class DifferentialEquation(_Value):
    """A determined system in solved form: one equation per dependent
    variable, each ``u^a_{J*} = f^a`` with ``|J*|`` equal to the jet
    order and ``f^a`` free of every leading coordinate and of all their
    derivatives.  ``equations`` holds the pairs ``((a, J*), f^a)`` in the
    order of a, a jet coordinate being the pair ``(a, J)`` throughout."""

    __slots__ = ("spec", "equations")

    def __init__(self, spec, equations):
        eqs = []
        seen = set()
        for (a, J), rhs in equations:
            a, J = jet_coordinate(spec, a, J, EquationError)
            rhs = as_expr(rhs)
            if sum(J) != spec.order:
                raise EquationError(
                    f"leading coordinate {spec.jet_name(a, J)} must have "
                    f"order {spec.order}"
                )
            if a in seen:
                raise EquationError(
                    f"two equations for dependent variable {spec.dependent[a]}"
                )
            seen.add(a)
            eqs.append(((a, J), rhs))
        if len(eqs) != spec.q:
            raise EquationError("need exactly one equation per dependent variable")
        eqs.sort(key=lambda it: it[0][0])
        super().__init__(spec, tuple(eqs))
        bad = [name for _coord, rhs in self.equations for name in self._leading_derived(rhs)]
        if bad:
            raise EquationError(
                f"right-hand side contains {bad[0]}, which is a leading "
                "coordinate or a derivative of one"
            )

    @classmethod
    def from_strings(cls, spec: JetSpec, mapping) -> "DifferentialEquation":
        """Build from ``{leading-coordinate-name: rhs-expression}``."""
        eqs = []
        for lead, rhs in mapping.items():
            kind = spec.decode(lead)
            if kind[0] != "jet":
                raise EquationError(f"{lead!r} is not a jet coordinate")
            rhs_expr = parse(rhs) if isinstance(rhs, str) else as_expr(rhs)
            eqs.append(((kind[1], kind[2]), rhs_expr))
        return cls(spec, tuple(eqs))

    def leading(self, a: int) -> tuple:
        return self.equations[a][0][1]

    def rhs(self, a: int) -> Expr:
        return self.equations[a][1]

    def _leading_derived(self, e) -> list:
        """The sorted names of the leading coordinates, and of their
        derivatives, that ``e`` holds."""
        out = []
        for name in free_variables(e):
            kind = self.spec.decode(name)
            if kind[0] == "jet" and all(
                    j >= k for j, k in zip(kind[2], self.leading(kind[1]))):
                out.append(name)
        return sorted(out)


def invariant_set_relations(X: PointVectorField, n=None):
    """All total derivatives ``Q_J = D_J Q`` of the characteristic with
    ``|J| < n``, graded, q per multiindex; their common zero set is the
    invariant set of the field.  Each is read off the field's kept
    standard lift of order n, whose components are ``Psi_J = Q_J +
    xi^m u_{J+e_m}``, so no total derivative is taken here."""
    spec = X.spec
    n = spec.order if n is None else n
    if n < 1:
        return []
    Y = lift(X, n=n)
    return [Y.psi_at(a, J) - expr_sum(xi * spec.jet_var(a, J[:m] + (J[m] + 1,) + J[m + 1:])
                                      for m, xi in enumerate(X.xi))
            for J in spec.multi_indices(n - 1) for a in range(spec.q)]


# ---------------------------------------------------------------------------
# restriction to the solution manifold


def _closed_substitutions(eq: DifferentialEquation, depth: int):
    """Replacement map for all leading coordinates and their derivatives
    up to ``depth`` extra orders, free of leading-derived coordinates:
    the value at ``J* + K`` is D_i of the value at ``K - e_i`` along the
    canonical path, with the bindings so far substituted.  A value that
    still names a coordinate its grade binds later waits until the grade
    ends, when the waiting values are resolved in dependency order; a
    cycle among them raises ``RestrictionError``.

    Every bound name is a leading-derived coordinate, and a value is
    bound only once it names none (the equation's right-hand sides are
    checked when it is built, every other value when it is bound), so
    the map is closed at every step and is substituted without
    ``substitute``'s re-check of the whole map."""
    spec = eq.spec
    closed = {}
    bindings = {}
    for a in range(spec.q):
        closed[(a, (0,) * spec.p)] = eq.rhs(a)
        bindings[spec.jet_name(a, eq.leading(a))] = eq.rhs(a)
    for _grade, steps in groupby(spec.canonical_steps(depth), lambda step: sum(step[0])):
        waiting = {}
        for K, i, base in steps:
            for a in range(spec.q):
                value = _substitute(total_derivative(closed[(a, base)], i, spec), bindings)
                name = spec.jet_name(a, tuple(l + k for l, k in zip(eq.leading(a), K)))
                needs = eq._leading_derived(value)
                if needs:
                    waiting[name] = ((a, K), value, needs)
                else:
                    closed[(a, K)] = bindings[name] = value
        while waiting:
            ready = [name for name, (_c, _v, needs) in waiting.items()
                     if bindings.keys() >= set(needs)]
            if not ready:
                raise RestrictionError(
                    f"the derivative consequences of {', '.join(waiting)} "
                    "depend on each other"
                )
            for name in ready:
                coord, value, needs = waiting.pop(name)
                value = _substitute(value, {n: bindings[n] for n in needs})
                closed[coord] = bindings[name] = value
    return bindings


def restrict_to_solution_manifold(e, eq: DifferentialEquation) -> Expr:
    """Substitute the equation and its derivative consequences, up to the
    jet order of ``e``, into ``e``."""
    e = as_expr(e)
    depth = max(0, jet_order(e, eq.spec) - eq.spec.order)
    return _substitute(e, _closed_substitutions(eq, depth))


# ---------------------------------------------------------------------------
# symmetry verdicts


def check_symmetry(
    X: PointVectorField,
    eq: DifferentialEquation,
    mu: MuForm = None,
    *,
    path_check=False,
    seed=None,
) -> Check:
    """Tangency of the lift of ``X`` by ``mu`` (standard without a form,
    see :func:`prolong.lift`) to the solution manifold.

    The prolonged field is applied as a derivation to each residual
    ``u^a_{J*} - f^a``; the result is restricted to the solution manifold
    and keyed by the dependent index ``a``.  TRUE on every equation means
    symmetry; a PROBABLY verdict survives into the aggregate rather than
    upgrading to TRUE.
    """
    spec = eq.spec
    if X.spec != spec:
        raise EquationError("field and equation live on different jet spaces")
    Y = lift(X, mu, spec.order, path_check=path_check, seed=seed)
    residuals = {}
    for (a, J), rhs in eq.equations:
        raw = Y.psi_at(a, J) - Y.apply(rhs)
        residuals[a] = restrict_to_solution_manifold(raw, eq)
    return Check(residuals, seed=seed)


# ---------------------------------------------------------------------------
# coincidence on the invariant set


class CoincidenceResult(Check):
    """Whether the deformed prolongation agrees with the standard one on
    the field's invariant set: the difference terms, keyed by ``(a, J)``,
    after the ``solved`` relations are substituted.  ``vacuous`` marks an
    empty invariant set (reported as true but flagged); ``unverifiable``
    marks relations that could not be solved for a jet coordinate, and
    is dropped when the solved ones were enough for TRUE."""

    __slots__ = ("vacuous", "unverifiable", "solved")

    def __init__(self, residuals, solved, *, vacuous=False, unverifiable=False,
                 seed=None):
        super().__init__(residuals, seed=seed)
        self.vacuous = vacuous
        self.unverifiable = unverifiable and self.verdict is not Verdict.TRUE
        self.solved = solved

    def __bool__(self):
        return self.verdict is Verdict.TRUE and not self.vacuous


def _try_solve_linear(r, name, *, seed=None):
    """Solve ``r = 0`` for ``name`` when r is affine-linear in it with a
    provably nonzero coefficient; returns the solution or None."""
    A = pdiff(r, name)
    if name in free_variables(A):
        return None
    if zero_verdict(A, seed=seed) is not Verdict.FALSE:
        return None  # coefficient not provably nonzero
    B = r - A * variable(name)
    if name in free_variables(B):
        return None
    sol = -B / A
    if name in free_variables(sol):
        return None
    return sol


def coincide_on_invariant_set(
    X: PointVectorField, mu: MuForm, n=None, *, path_check=False, seed=None
) -> CoincidenceResult:
    """Substitute the solved invariant-set relations into every difference
    term and verify that all of them vanish.  Each relation is solved
    after the solutions so far are substituted into it, and each new
    solution goes into those before it, so the solved map is closed by
    construction and is substituted without ``substitute``'s re-check."""
    spec = X.spec
    n = spec.order if n is None else n
    diff = difference_terms(X, mu, n, path_check=path_check, seed=seed)
    solved = {}
    unverifiable = False
    for rel in invariant_set_relations(X, n):
        r = _substitute(rel, solved)
        if r == ZERO:
            continue
        if constant_value(r) is not None:
            # a nonzero constant relation: empty invariant set
            return CoincidenceResult({}, solved, vacuous=True)
        orders = {}  # jet name -> its order, each name decoded once
        for name in free_variables(r):
            kind = spec.decode(name)
            if kind[0] == "jet":
                orders[name] = sum(kind[2])
        top = max(orders.values(), default=None)
        for name in sorted(name for name, order in orders.items() if order == top):
            sol = _try_solve_linear(r, name, seed=seed)
            if sol is not None:
                break
        else:  # no jet coordinate of the top order solves it
            unverifiable = True
            continue
        solved = {k: _substitute(v, {name: sol}) for k, v in solved.items()}
        solved[name] = sol
    return CoincidenceResult({key: _substitute(term, solved) for key, term in diff.items()},
                             solved, unverifiable=unverifiable, seed=seed)
