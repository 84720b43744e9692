"""Jet-space geometry: coordinates, total derivatives, and differential forms.

A jet space is described by a :class:`JetSpec` (independent names,
dependent names, order).  Derivative coordinates are addressed by
unordered multiindices, so mixed coordinates like ``u_xt`` and ``u_tx``
are the same variable by construction.  The textual convention is fixed:
dependent name, underscore, then the independent names repeated per
count in declaration order (``u``, ``u_x``, ``u_xx``, ``u_xt`` when x is
declared before t).

One- and two-forms are coefficient maps over the basis ``dx^i``,
``du^a_J``; contact forms, exterior derivatives, interior products and
Lie derivatives are provided, together with membership tests in the
contact module (the span of the contact forms over smooth functions).

The deforming horizontal form :class:`MuForm` holds one q-by-q matrix of
coefficients per independent direction, a scalar form being the q = 1
case; its one compatibility check, flatness, is
``prolong.maurer_cartan_check``.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import JetError
from .expr import (
    ONE,
    Expr,
    Verdict,
    ZERO,
    as_expr,
    derivative,
    expr_sum,
    free_variables,
    pdiff,
    variable,
    zero_verdict,
)

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_set_field = object.__setattr__


class _Value:
    """A frozen value whose fields are its ``__slots__``: equality, hash
    and repr come from the tuple of fields, which ``__init__`` sets once
    and keeps as ``_key`` (spec and multiindex hashes key the jet caches
    and tables, so each costs one tuple hash)."""

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

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class MultiIndex(_Value):
    """Unordered derivative counts, one slot per independent variable."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        if any(c < 0 for c in counts):
            raise JetError(f"negative multiindex counts {counts}")
        super().__init__(counts)

    @staticmethod
    def zero(p: int) -> "MultiIndex":
        return MultiIndex((0,) * p)

    @property
    def order(self) -> int:
        return sum(self.counts)

    def inc(self, i: int) -> "MultiIndex":
        c = list(self.counts)
        c[i] += 1
        return MultiIndex(tuple(c))

    def dec(self, i: int) -> "MultiIndex":
        c = list(self.counts)
        c[i] -= 1
        return MultiIndex(tuple(c))

    def last_slot(self) -> int:
        """The direction of the final step of the canonical build path
        (all slot-0 steps first, then slot 1, ...)."""
        for i in range(len(self.counts) - 1, -1, -1):
            if self.counts[i]:
                return i
        raise JetError("empty multiindex has no predecessor")

    def dominates(self, other: "MultiIndex") -> bool:
        return all(a >= b for a, b in zip(self.counts, other.counts))

    def __repr__(self):
        return f"MultiIndex{self.counts}"


def _graded_key(counts):
    return (sum(counts), tuple(-c for c in counts))


class JetSpec(_Value):
    """The jet space over p independent and q dependent variables."""

    __slots__ = ("independent", "dependent", "order")

    def __init__(self, independent, dependent, order):
        super().__init__(tuple(independent), tuple(dependent), order)
        if not self.independent or not self.dependent:
            raise JetError("need at least one independent and one dependent variable")
        if self.order < 1:
            raise JetError("jet order must be at least 1")
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

    def with_order(self, n: int) -> "JetSpec":
        return self if n == self.order else JetSpec(self.independent, self.dependent, n)

    # -- names ------------------------------------------------------------

    def independent_var(self, i: int) -> Expr:
        return variable(self.independent[i])

    def jet_name(self, a: int, index: MultiIndex) -> str:
        if len(index.counts) != self.p:
            raise JetError("multiindex length does not match the jet space")
        if index.order == 0:
            return self.dependent[a]
        suffix = "".join(
            self.independent[i] * index.counts[i] for i in range(self.p)
        )
        return f"{self.dependent[a]}_{suffix}"

    def jet_var(self, a: int, index: MultiIndex) -> Expr:
        return variable(self.jet_name(a, index))

    def decode(self, name: str):
        """Classify a variable name.

        Returns ``("independent", i)``, ``("jet", a, MultiIndex)`` or
        ``("auxiliary", None)``.  A name that looks like a jet coordinate
        but does not decode (wrong letters or out-of-order suffix) is an
        error, which catches typos like ``u_zz`` or ``u_tx``.
        """
        return _decode(self, str(name))

    def multi_indices(self, max_order=None, min_order=0):
        """All multiindices with ``min_order <= |J| <= max_order``, graded,
        first slots first within each grade."""
        if max_order is None:
            max_order = self.order
        counts = []
        for total in range(min_order, max_order + 1):
            level = []
            def rec2(prefix, slot, left):
                if slot == self.p - 1:
                    level.append(prefix + (left,))
                    return
                for c in range(left + 1):
                    rec2(prefix + (c,), slot + 1, left - c)
            rec2((), 0, total)
            level.sort(key=_graded_key)
            counts.extend(level)
        return [MultiIndex(c) for c in counts]


@lru_cache(maxsize=4096)
def _decode(spec: JetSpec, name: str):
    if name in spec.independent:
        return ("independent", spec.independent.index(name))
    if name in spec.dependent:
        return ("jet", spec.dependent.index(name), MultiIndex.zero(spec.p))
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
        return ("jet", spec.dependent.index(head), MultiIndex(tuple(counts)))
    return ("auxiliary", None)


def jet_order(e, spec: JetSpec) -> int:
    """The highest order of a jet coordinate in ``e``, or -1 when ``e``
    holds none."""
    best = -1
    for name in free_variables(e):
        kind = spec.decode(name)
        if kind[0] == "jet":
            best = max(best, kind[2].order)
    return best


class JetCoordinate(_Value):
    """A derivative coordinate: dependent index plus multiindex."""

    __slots__ = ("a", "index")

    def __init__(self, a, index):
        super().__init__(a, index)

    def name(self, spec: JetSpec) -> str:
        return spec.jet_name(self.a, self.index)


# ---------------------------------------------------------------------------
# total derivative


@lru_cache(maxsize=4096)
def _successor(spec: JetSpec, i: int, name: str):
    """The image of a variable under D_i: ``u^a_{J+i}`` for ``u^a_J``, 1
    for ``x^i``, None for any other name.  Resolved once per jet space,
    direction and name, so every call hands out the same value."""
    kind = _decode(spec, name)
    if kind[0] == "jet":
        return spec.jet_var(kind[1], kind[2].inc(i))
    if kind[0] == "independent" and kind[1] == i:
        return ONE
    return None


def total_derivative(e, i: int, spec: JetSpec) -> Expr:
    """The formal derivative along the i-th independent variable:
    the partial in x^i plus, for every jet variable present, the next
    derivative coordinate times the partial in that variable.  The result
    lives one jet order higher than its input."""
    return derivative(e, lambda name: _successor(spec, i, name))


def total_derivative_path(e, index: MultiIndex, spec: JetSpec) -> Expr:
    """D_J along the canonical path (slot 0 first, then slot 1, ...)."""
    out = as_expr(e)
    for i, c in enumerate(index.counts):
        for _ in range(c):
            out = total_derivative(out, i, spec)
    return out


# ---------------------------------------------------------------------------
# vector fields on jet space


class JetVectorField:
    """A vector field on the jet space with components ``xi`` along the
    independent directions and ``psi`` on the derivative coordinates up
    to ``order`` (missing entries are zero)."""

    __slots__ = ("spec", "order", "xi", "psi")

    def __init__(self, spec: JetSpec, xi, psi, order=None):
        self.spec = spec
        self.order = spec.order if order is None else order
        xi = tuple(as_expr(x) for x in xi)
        if len(xi) != spec.p:
            raise JetError("xi must have one component per independent variable")
        self.xi = xi
        store = {}
        for (a, J), e in psi.items():
            if not isinstance(J, MultiIndex):
                J = MultiIndex(tuple(J))
            e = as_expr(e)
            if e != ZERO:
                store[(a, J)] = e
        self.psi = store

    def psi_at(self, a: int, J: MultiIndex) -> Expr:
        return self.psi.get((a, J), ZERO)

    def component(self, key) -> Expr:
        if key[0] == "x":
            return self.xi[key[1]]
        return self.psi.get((key[1], MultiIndex(key[2])), ZERO)

    def apply(self, e) -> Expr:
        """Act as a derivation on a function of the jet coordinates."""

        def of_var(name):
            kind = self.spec.decode(name)
            if kind[0] == "independent":
                return self.xi[kind[1]]
            if kind[0] == "jet":
                return self.psi_at(kind[1], kind[2])
            return None

        return derivative(e, of_var)

    def scale(self, f) -> "JetVectorField":
        f = as_expr(f)
        return JetVectorField(
            self.spec,
            tuple(f * x for x in self.xi),
            {k: f * v for k, v in self.psi.items()},
            order=self.order,
        )

    def __eq__(self, other):
        if not isinstance(other, JetVectorField):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.xi == other.xi
            and self.psi == other.psi
        )

    def __repr__(self):
        return f"<JetVectorField order={self.order} xi={self.xi} psi={self.psi}>"


def truncated_total_derivative(spec: JetSpec, i: int, order=None) -> JetVectorField:
    """The total-derivative direction as a vector field, truncated so its
    components stop at ``order`` (default: the spec's order)."""
    order = spec.order if order is None else order
    xi = tuple(ONE if m == i else ZERO for m in range(spec.p))
    psi = {}
    for J in spec.multi_indices(order):
        for a in range(spec.q):
            psi[(a, J)] = spec.jet_var(a, J.inc(i))
    return JetVectorField(spec, xi, psi, order=order)


# ---------------------------------------------------------------------------
# differential forms


def _key_order(key):
    if key[0] == "x":
        return (0, key[1], ())
    return (1, _graded_key(key[2]), key[1])


def basis_key_dx(i: int):
    return ("x", i)


def basis_key_du(a: int, index: MultiIndex):
    return ("u", a, index.counts)


def _basis_name(key, spec):
    if key[0] == "x":
        return "d" + spec.independent[key[1]]
    return "d" + spec.jet_name(key[1], MultiIndex(key[2]))


class OneForm:
    """A differential one-form, stored as normalized coefficients on the
    coordinate basis; absent entries are zero."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: JetSpec, coeffs):
        self.spec = spec
        store = {}
        for k, e in coeffs.items():
            e = as_expr(e)
            if e != ZERO:
                store[k] = e
        self.coeffs = store

    def coefficient(self, key) -> Expr:
        return self.coeffs.get(key, ZERO)

    @property
    def is_structurally_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        acc = {k: [v] for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            acc.setdefault(k, []).append(v)
        return OneForm(self.spec, {k: expr_sum(v) for k, v in acc.items()})

    def __sub__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self + OneForm(self.spec, {k: -v for k, v in other.coeffs.items()})

    def scale(self, f) -> "OneForm":
        f = as_expr(f)
        return OneForm(self.spec, {k: f * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "<OneForm 0>"
        bits = ", ".join(
            f"{_basis_name(k, self.spec)}: {v}"
            for k, v in sorted(self.coeffs.items(), key=lambda kv: _key_order(kv[0]))
        )
        return f"<OneForm {bits}>"


class TwoForm:
    """A differential two-form; only ordered basis pairs are stored, the
    antisymmetric completion is implicit."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: JetSpec, coeffs):
        self.spec = spec
        store = {}
        for (k1, k2), e in coeffs.items():
            e = as_expr(e)
            if e != ZERO:
                store[(k1, k2)] = e
        self.coeffs = store

    def coefficient(self, k1, k2) -> Expr:
        if k1 == k2:
            return ZERO
        if _key_order(k1) < _key_order(k2):
            return self.coeffs.get((k1, k2), ZERO)
        return -self.coeffs.get((k2, k1), ZERO)

    @property
    def is_structurally_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        acc = {k: [v] for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            acc.setdefault(k, []).append(v)
        return TwoForm(self.spec, {k: expr_sum(v) for k, v in acc.items()})

    def __sub__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        return self + TwoForm(self.spec, {k: -v for k, v in other.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "<TwoForm 0>"
        bits = ", ".join(
            f"{_basis_name(k1, self.spec)}^{_basis_name(k2, self.spec)}: {v}"
            for (k1, k2), v in self.coeffs.items()
        )
        return f"<TwoForm {bits}>"


def dx(spec: JetSpec, i: int) -> OneForm:
    return OneForm(spec, {basis_key_dx(i): ONE})


def du(spec: JetSpec, a: int, index: MultiIndex) -> OneForm:
    return OneForm(spec, {basis_key_du(a, index): ONE})


def contact_form(a: int, index: MultiIndex, spec: JetSpec) -> OneForm:
    """The basic contact form on ``u^a_J``: du^a_J minus u^a_{J,i} dx^i,
    defined for |J| at most order-1."""
    if index.order > spec.order - 1:
        raise JetError(
            f"no contact form at order {index.order} on a jet space of order {spec.order}"
        )
    coeffs = {basis_key_du(a, index): ONE}
    for i in range(spec.p):
        coeffs[basis_key_dx(i)] = -spec.jet_var(a, index.inc(i))
    return OneForm(spec, coeffs)


def interior_product(Y: JetVectorField, omega: OneForm) -> Expr:
    """Pairing of a vector field with a one-form; components of the field
    missing at higher orders count as zero."""
    parts = []
    for key, c in omega.coeffs.items():
        comp = Y.component(key)
        if comp is not ZERO and comp != ZERO:
            parts.append(comp * c)
    return expr_sum(parts)


def contract_two_form(Y: JetVectorField, tau: TwoForm) -> OneForm:
    acc = {}
    for (k1, k2), c in tau.coeffs.items():
        c1 = Y.component(k1)
        if c1 != ZERO:
            acc.setdefault(k2, []).append(c1 * c)
        c2 = Y.component(k2)
        if c2 != ZERO:
            acc.setdefault(k1, []).append(-c2 * c)
    return OneForm(tau.spec, {k: expr_sum(v) for k, v in acc.items()})


def _coordinate_key(spec, name):
    kind = spec.decode(name)
    if kind[0] == "independent":
        return basis_key_dx(kind[1])
    if kind[0] == "jet":
        return basis_key_du(kind[1], kind[2])
    return None  # auxiliary names are parameters, no differential


def scalar_differential(f, spec: JetSpec) -> OneForm:
    """The full coordinate differential of a function on jet space: one
    partial derivative per coordinate that ``f`` holds."""
    grads = {}
    for name in free_variables(f):
        key = _coordinate_key(spec, name)
        if key is not None:
            grads[key] = pdiff(f, name)
    # independent directions first, then jet coordinates by name
    order = [basis_key_dx(i) for i in range(spec.p)]
    order += sorted((k for k in grads if k[0] == "u"), key=lambda k: _basis_name(k, spec))
    return OneForm(spec, {k: grads[k] for k in order if k in grads})


def exterior_derivative(omega: OneForm, spec: JetSpec) -> TwoForm:
    """d(sum c_b db) = sum dc_b wedge db, over all coordinate differentials."""
    acc = {}
    for key, c in omega.coeffs.items():
        dc = scalar_differential(c, spec)
        for vkey, d in dc.coeffs.items():
            if vkey == key:
                continue
            if _key_order(vkey) < _key_order(key):
                acc.setdefault((vkey, key), []).append(d)
            else:
                acc.setdefault((key, vkey), []).append(-d)
    return TwoForm(spec, {k: expr_sum(v) for k, v in acc.items()})


def lie_derivative(Y: JetVectorField, omega: OneForm, spec: JetSpec) -> OneForm:
    """Cartan's formula: contract with d(omega), plus d of the pairing."""
    part1 = contract_two_form(Y, exterior_derivative(omega, spec))
    part2 = scalar_differential(interior_product(Y, omega), spec)
    return part1 + part2


# ---------------------------------------------------------------------------
# contact-module membership


class ContactMembership:
    """Outcome of a contact-module membership test.  TRUE means the form
    lies in the span of the contact forms; residuals list whatever must
    vanish for membership (horizontal parts and top-order du parts)."""

    __slots__ = ("verdict", "horizontal_residuals", "top_residuals")

    def __init__(self, verdict, horizontal_residuals, top_residuals):
        self.verdict = verdict
        self.horizontal_residuals = horizontal_residuals
        self.top_residuals = top_residuals

    def __bool__(self):
        return self.verdict is Verdict.TRUE


def in_contact_module(omega: OneForm, spec: JetSpec, *, seed=None) -> ContactMembership:
    """Rewrite du^a_J (|J| < n) through the contact forms and test whether
    the leftover horizontal and top-order coefficients vanish."""
    n = spec.order
    horizontal = {i: [] for i in range(spec.p)}
    tops = {}
    for key, c in omega.coeffs.items():
        if key[0] == "x":
            horizontal[key[1]].append(c)
            continue
        a, counts = key[1], key[2]
        J = MultiIndex(counts)
        if J.order <= n - 1:
            for i in range(spec.p):
                horizontal[i].append(c * spec.jet_var(a, J.inc(i)))
        else:
            tops[(a, J)] = c
    h_res = {}
    verdicts = []
    for i in range(spec.p):
        r = expr_sum(horizontal[i])
        if r != ZERO:
            h_res[i] = r
        verdicts.append(zero_verdict(r, seed=seed))
    for (a, J), c in tops.items():
        verdicts.append(zero_verdict(c, seed=seed))
    return ContactMembership(Verdict.combine(verdicts), h_res, tops)


def in_vector_contact_module(forms, spec: JetSpec, *, seed=None) -> ContactMembership:
    """Membership of a q-tuple of one-forms in the vector contact module;
    matrix coefficients are unconstrained, so the test is componentwise."""
    forms = list(forms)
    if len(forms) != spec.q:
        raise JetError("need one component form per dependent variable")
    verdicts = []
    h_res = {}
    tops = {}
    for a, omega in enumerate(forms):
        m = in_contact_module(omega, spec, seed=seed)
        verdicts.append(m.verdict)
        for i, r in m.horizontal_residuals.items():
            h_res[(a, i)] = r
        for k, r in m.top_residuals.items():
            tops[(a,) + tuple(k)] = r
    return ContactMembership(Verdict.combine(verdicts), h_res, tops)


# ---------------------------------------------------------------------------
# the deforming horizontal form


class MuForm:
    """A horizontal form with matrix coefficients, one q-by-q matrix per
    independent direction.  The scalar variant is the q = 1 case."""

    __slots__ = ("spec", "matrices")

    def __init__(self, spec: JetSpec, matrices):
        self.spec = spec
        mats = []
        for M in matrices:
            rows = tuple(tuple(as_expr(e) for e in row) for row in M)
            if len(rows) != spec.q or any(len(r) != spec.q for r in rows):
                raise JetError("each coefficient matrix must be q by q")
            mats.append(rows)
        if len(mats) != spec.p:
            raise JetError("need one coefficient matrix per independent variable")
        self.matrices = tuple(mats)

    @classmethod
    def scalar(cls, spec: JetSpec, lambdas) -> "MuForm":
        if spec.q != 1:
            raise JetError("scalar form requires exactly one dependent variable")
        return cls(spec, [((as_expr(l),),) for l in lambdas])

    @classmethod
    def zero(cls, spec: JetSpec) -> "MuForm":
        z = ((ZERO,) * spec.q,) * spec.q
        return cls(spec, [z] * spec.p)

    @property
    def lambdas(self):
        if self.spec.q != 1:
            raise JetError("matrix-valued form has no scalar coefficients")
        return tuple(M[0][0] for M in self.matrices)

    def entry(self, i: int, a: int, b: int) -> Expr:
        return self.matrices[i][a][b]

    @property
    def is_structurally_zero(self) -> bool:
        return all(
            e == ZERO for M in self.matrices for row in M for e in row
        )

    def __eq__(self, other):
        if not isinstance(other, MuForm):
            return NotImplemented
        return self.spec == other.spec and self.matrices == other.matrices

    def __repr__(self):
        return f"<MuForm p={self.spec.p} q={self.spec.q}>"


# ---------------------------------------------------------------------------
# small matrix helpers shared by the prolongation and compatibility layers


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
