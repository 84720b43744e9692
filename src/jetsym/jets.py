"""Jet-space geometry: coordinates, total derivatives and vector fields.

A jet space is described by a :class:`JetSpec` (independent names,
dependent names, order).  A derivative coordinate is the pair ``(a, J)``
of a dependent index and an unordered multiindex J, the tuple of its p
derivative counts (one per independent variable), so mixed coordinates
like ``u_xt`` and ``u_tx`` are the same variable by construction;
:func:`jet_coordinate` validates a pair given from outside.  The name,
``JetSpec.jet_name(a, J)``, is the dependent name, underscore, then
the independent names repeated per count in declaration order (``u``,
``u_x``, ``u_xx``, ``u_xt`` when x is declared before t).

``JetSpec.canonical_steps`` owns the canonical path over multiindices,
which every recursion over J walks.  A value that names a misspelled jet
coordinate (``u_tx`` when x is declared before t) raises ``JetError``.

A space keeps the name of every coordinate it has named, so it builds
each name once.  ``total_derivative`` takes D_i from a cache of one
lasting derivation per space and direction; a caller that takes many
total derivatives on one space, as a lift does, fetches its p
derivations once through ``total_derivations`` and calls them directly.
No derivation is kept on the space itself: a derivation holds its
space, and the pair would be a reference cycle.

A :class:`JetVectorField` acts as a derivation on functions of the jet
coordinates; prolonged fields are built by ``prolong``.  Contact forms,
Lie derivatives and the contact module are not part of the package: the
lifts are computed by their one-step recursion, and the tests check it
against those geometric definitions (``tests/forms.py``).

The deforming horizontal form :class:`MuForm` holds one q-by-q matrix of
coefficients per independent direction, a scalar form being the q = 1
case.  The form owns its curvature: ``MuForm.curvature`` is the one
place that computes ``D_i L_k - D_k L_i + [L_i, L_k]``, which the lifts
test for flatness and ``gauge.maurer_cartan_check`` zero-tests, on the
solution manifold of an equation when it is given one.

Every class of values here, and the point fields, equations and gauge
functions built on them, derive from the frozen base ``_Value``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType

from .errors import JetError
from .expr import (
    ONE,
    Expr,
    ZERO,
    Derivation,
    as_expr,
    expr_sum,
    free_variables,
    variable,
)

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_set_field = object.__setattr__


class _Value:
    """A frozen value whose fields are its leading ``__slots__``, one per
    argument of ``__init__``: equality, hash and repr come from the tuple
    of fields, which ``__init__`` sets once and keeps as ``_key`` (spec
    hashes key the jet caches, so each costs one tuple hash).  Every
    field is immutable, so a copy is the value itself.  A slot after the
    fields is private state of the object, outside equality, hash, repr
    and pickle."""

    __slots__ = ("_key",)

    def __init__(self, *fields):
        _set_field(self, "_key", fields)
        for name, value in zip(self.__slots__, fields):
            _set_field(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):  # pickle rebuilds through __init__, which checks
        return type(self), self._key

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key))
        return f"{type(self).__name__}({fields})"


def multiindex(spec, J) -> tuple:
    """``J`` as a multiindex of ``spec``: the tuple of its p counts, each
    a non-negative int, not a bool; any other length or count raises."""
    J = tuple(J)
    if len(J) != spec.p or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in J):
        raise JetError(f"{J} is not a multiindex of {spec.p} non-negative int counts")
    return J


def jet_coordinate(spec, a, J, error=JetError) -> tuple:
    """``(a, J)`` as a jet coordinate of ``spec``: ``a`` an int, not a
    bool, in ``range(q)``, else ``error`` is raised, and ``J`` a
    multiindex."""
    if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < spec.q:
        raise error(f"dependent index {a!r} is not in range({spec.q})")
    return a, multiindex(spec, J)


def as_order(n, what, error=JetError) -> int:
    """``n`` as a jet or prolongation order: an int, not a bool, of at
    least 1; anything else raises ``error``."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise error(f"{what} order must be an int, got {n!r}")
    if n < 1:
        raise error(f"{what} order must be at least 1")
    return n


class JetSpec(_Value):
    """The jet space over p independent and q dependent variables.  The
    private ``_names`` maps each coordinate ``(a, J)`` that ``jet_name``
    has named to its name, so a space builds each name once."""

    __slots__ = ("independent", "dependent", "order", "_names")

    def __init__(self, independent, dependent, order):
        super().__init__(tuple(independent), tuple(dependent), order)
        _set_field(self, "_names", {})
        if not self.independent or not self.dependent:
            raise JetError("need at least one independent and one dependent variable")
        as_order(order, "jet")
        names = self.independent + self.dependent
        if len(set(names)) != len(names):
            raise JetError("independent and dependent names must be distinct")
        for n in names:
            if not _NAME_RE.match(n):
                raise JetError(
                    f"bad base name {n!r}: letters and digits only, no underscore"
                )
        for a in self.independent:
            for b in self.independent:
                if a != b and b.startswith(a):
                    raise JetError(
                        f"independent names must be prefix-free, {a!r} prefixes {b!r}"
                    )

    @property
    def p(self) -> int:
        return len(self.independent)

    @property
    def q(self) -> int:
        return len(self.dependent)

    # -- names ------------------------------------------------------------

    def jet_name(self, a: int, J) -> str:
        """The name of ``u^a_J``.  A coordinate given as an int ``a`` and a
        tuple ``J`` that this space has named before is looked up; any
        other call validates ``(a, J)`` through ``jet_coordinate``, so it
        raises as it would on a space that has named nothing yet."""
        if type(a) is int and type(J) is tuple:
            name = self._names.get((a, J))
            # a count equal to an int but of another type (1.0) must not
            # find the name
            if name is not None and all(type(c) is int for c in J):
                return name
        a, J = jet_coordinate(self, a, J)
        if not any(J):
            name = self.dependent[a]
        else:
            suffix = "".join(x * c for x, c in zip(self.independent, J))
            name = f"{self.dependent[a]}_{suffix}"
        self._names[a, J] = name
        return name

    def jet_var(self, a: int, J) -> Expr:
        return variable(self.jet_name(a, J))

    def decode(self, name: str):
        """Classify a variable name.

        Returns ``("independent", i)``, ``("jet", a, J)`` with ``J`` the
        tuple of counts, or ``("auxiliary", None)``.  A name that looks
        like a jet coordinate but does not decode (wrong letters or
        out-of-order suffix) is an error, which catches typos like
        ``u_zz`` or ``u_tx``.
        """
        return _decode(self, str(name))

    def multi_indices(self, max_order=None, min_order=0):
        """All multiindices with ``min_order <= |J| <= max_order``, graded,
        first slots first within each grade: the lexicographic order of
        the slot combinations of each grade gives that order."""
        if max_order is None:
            max_order = self.order
        slots = range(self.p)
        return [tuple(map(combo.count, slots))
                for total in range(min_order, max_order + 1)
                for combo in combinations_with_replacement(slots, total)]

    def canonical_steps(self, n):
        """The canonical path: ``(J, i, K)`` for each J with ``1 <= |J| <=
        n`` in ``multi_indices`` order, i the last nonzero slot of J and
        ``K = J - e_i``, so K comes before J and J is built by all its
        slot-0 steps first, then its slot-1 steps, and so on."""
        for J in self.multi_indices(n, min_order=1):
            i = max(m for m, c in enumerate(J) if c)
            yield J, i, J[:i] + (J[i] - 1,) + J[i + 1:]


@lru_cache(maxsize=4096)
def _decode(spec: JetSpec, name: str):
    if name in spec.independent:
        return ("independent", spec.independent.index(name))
    if name in spec.dependent:
        return ("jet", spec.dependent.index(name), (0,) * spec.p)
    head, sep, suffix = name.partition("_")
    if sep and head in spec.dependent:
        counts = [0] * spec.p
        pos = 0
        for i, ind in enumerate(spec.independent):
            ln = len(ind)
            while suffix.startswith(ind, pos):
                counts[i] += 1
                pos += ln
        if pos != len(suffix) or pos == 0:
            raise JetError(
                f"{name!r} is not a jet coordinate of this space "
                f"(suffix must repeat independent names in declaration order)"
            )
        return ("jet", spec.dependent.index(head), tuple(counts))
    return ("auxiliary", None)


def jet_order(e, spec: JetSpec) -> int:
    """The highest order of a jet coordinate in ``e``, or -1 when ``e``
    holds none."""
    best = -1
    for name in free_variables(e):
        kind = spec.decode(name)
        if kind[0] == "jet":
            best = max(best, sum(kind[2]))
    return best


# ---------------------------------------------------------------------------
# total derivative


@lru_cache(maxsize=256)
def _total_derivation(spec: JetSpec, i: int):
    """D_i on ``spec`` as one lasting derivation, shared by equal specs:
    the image of ``u^a_J`` is ``u^a_{J+i}``, of ``x^i`` 1, of any other
    name None."""

    def successor(name):
        kind = _decode(spec, name)
        if kind[0] == "jet":
            J = kind[2]
            return spec.jet_var(kind[1], J[:i] + (J[i] + 1,) + J[i + 1:])
        if kind[0] == "independent" and kind[1] == i:
            return ONE
        return None

    return Derivation(successor)


def total_derivations(spec: JetSpec) -> list:
    """D_0, ..., D_{p-1} on ``spec``, each the callable derivation that
    :func:`total_derivative` applies, fetched once for a caller that
    takes many total derivatives on one space."""
    return [_total_derivation(spec, i) for i in range(spec.p)]


def total_derivative(e, i: int, spec: JetSpec) -> Expr:
    """The formal derivative along the i-th independent variable:
    the partial in x^i plus, for every jet variable present, the next
    derivative coordinate times the partial in that variable.  The result
    lives one jet order higher than its input.  Calls along one
    direction of one jet space share one cached derivation, so each
    variable's image is worked out once per process."""
    return _total_derivation(spec, i)(e)


# ---------------------------------------------------------------------------
# vector fields on jet space


class JetVectorField(_Value):
    """A vector field on the jet space with components ``xi`` along the
    independent directions and ``psi`` on the derivative coordinates
    ``(a, J)`` up to ``order`` (missing entries are zero).  Lifts are
    shared between their callers, so the field is a frozen value and
    ``psi`` a read-only mapping; ``dict(Y.psi)`` is a copy to build
    another field from.  The key holds that plain dict, which equality,
    repr, copy and pickle read; a field has no hash."""

    __slots__ = ("spec", "xi", "psi", "order")

    def __init__(self, spec: JetSpec, xi, psi, order=None):
        xi = tuple(as_expr(x) for x in xi)
        if len(xi) != spec.p:
            raise JetError("xi must have one component per independent variable")
        store = {}
        for (a, J), e in psi.items():
            coord = jet_coordinate(spec, a, J)
            e = as_expr(e)
            if e != ZERO:
                store[coord] = e
        super().__init__(spec, xi, store, spec.order if order is None else order)
        _set_field(self, "psi", MappingProxyType(store))

    def psi_at(self, a: int, J) -> Expr:
        """The component on ``u^a_J``, ``J`` a tuple of counts or any
        sequence of them."""
        return self.psi.get((a, tuple(J)), ZERO)

    def apply(self, e) -> Expr:
        """Act as a derivation on a function of the jet coordinates."""

        def of_var(name):
            kind = self.spec.decode(name)
            if kind[0] == "independent":
                return self.xi[kind[1]]
            if kind[0] == "jet":
                return self.psi_at(kind[1], kind[2])
            return None

        return Derivation(of_var)(e)


# ---------------------------------------------------------------------------
# the deforming horizontal form


class MuForm(_Value):
    """A horizontal form with matrix coefficients, one q-by-q matrix per
    independent direction.  The scalar variant is the q = 1 case."""

    __slots__ = ("spec", "matrices")

    def __init__(self, spec: JetSpec, matrices):
        matrices = tuple(mat_square(spec, M, JetError, "each coefficient matrix must be q by q")
                         for M in matrices)
        if len(matrices) != spec.p:
            raise JetError("need one coefficient matrix per independent variable")
        super().__init__(spec, matrices)

    @classmethod
    def scalar(cls, spec: JetSpec, lambdas) -> "MuForm":
        if spec.q != 1:
            raise JetError("scalar form requires exactly one dependent variable")
        return cls(spec, [((l,),) for l in lambdas])

    @property
    def lambdas(self):
        if self.spec.q != 1:
            raise JetError("matrix-valued form has no scalar coefficients")
        return tuple(M[0][0] for M in self.matrices)

    def entry(self, i: int, a: int, b: int) -> Expr:
        return self.matrices[i][a][b]

    def curvature(self) -> dict:
        """For every direction pair i < k, the entries ``(i, k, a, b)`` of
        the matrix D_i L_k - D_k L_i + [L_i, L_k]; all zero exactly when
        the deformed derivatives ``D_i + L_i`` along different directions
        commute, that is when the form is flat (closed when q = 1, where
        the commutator drops)."""
        spec = self.spec
        out = {}
        for i, Li in enumerate(self.matrices):
            for k in range(i + 1, spec.p):
                Lk = self.matrices[k]
                R = mat_sub(
                    mat_total_derivative(Lk, i, spec),
                    mat_total_derivative(Li, k, spec),
                )
                R = mat_sub(R, mat_sub(mat_mul(Lk, Li), mat_mul(Li, Lk)))
                for a, row in enumerate(R):
                    for b, e in enumerate(row):
                        out[i, k, a, b] = e
        return out


# ---------------------------------------------------------------------------
# small matrix helpers shared by the form's curvature and the gauge layer


def mat_square(spec: JetSpec, rows, error, text):
    """``rows`` as a q-by-q matrix of values on ``spec``; any other shape
    raises ``error(text)``, a misspelled jet coordinate ``JetError``."""
    out = tuple(tuple(as_expr(e) for e in row) for row in rows)
    if len(out) != spec.q or any(len(r) != spec.q for r in out):
        raise error(text)
    for row in out:
        for e in row:
            jet_order(e, spec)
    return out


def mat_identity(q: int):
    return tuple(tuple(ONE if a == b else ZERO for b in range(q)) for a in range(q))


def mat_sub(A, B):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_mul(A, B):
    q = len(A)
    m = len(B[0])
    return tuple(
        tuple(
            expr_sum(A[a][c] * B[c][b] for c in range(len(B)))
            for b in range(m)
        )
        for a in range(q)
    )


def mat_total_derivative(A, i: int, spec: JetSpec):
    return tuple(tuple(total_derivative(e, i, spec) for e in row) for row in A)
