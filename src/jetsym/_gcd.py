"""Multivariate polynomial gcd and exact division over the kernel's dicts.

Polynomials are the kernel's dict-of-monomials with rational-pair coefficients
and opaque, totally ordered atoms; canonical monomials carry positive
exponents, so they live in the polynomial ring Q[atoms], a unique
factorization domain whose units are the nonzero rationals.  ``poly_gcd``
reduces the problem in four steps before any remainder sequence runs:

1. One-term input.  A divisor of a monomial is a monomial (the atoms are
   primes of the ring), so the gcd takes each atom of the one-term input
   to its least exponent over both inputs.
2. No shared atom.  A divisor of ``p`` has degree in an atom at most
   ``p``'s, so the gcd involves only atoms that both inputs hold; with none
   shared it is 1.
3. Split on the shared atoms ``S``.  Q[all atoms] is a free Q[S]-module on
   the monomials in the other atoms, and a divisor that involves only
   atoms in ``S`` divides ``p`` exactly when it divides each coefficient of
   ``p`` in that basis.  So the gcd is the gcd of all those coefficients of
   both inputs, taken smallest first, and it is 1 as soon as a partial gcd
   is a constant.
4. The general case, both inputs over the same atoms: the classical
   recursion views them as univariate in the largest atom with polynomial
   coefficients, splits off contents (gcds one atom down, which take the
   same steps), and runs a primitive pseudo-remainder sequence.  Each
   remainder is divided by its content and then made primitive over Z:
   divided by the gcd of its coefficients' numerators and multiplied by
   the lcm of their denominators.  The remainders then stay integral
   and primitive, so their arithmetic stays on the kernel's integer
   path.  With one shared atom the inputs are univariate, and the
   sequence runs on lists of integer coefficients instead of dicts.

The result is scaled to leading coefficient 1 (the coefficient of the
largest monomial).  A gcd is unique up to a unit, so scaled that way it is
unique; the steps above change how it is found, never what it is, and
every reduced pair built from it, with every printed report, stays the
same.

Everything here works in the free commutative ring over the atoms; callers
that maintain extra monomial invariants (for instance merged exponential
atoms) keep them because a divisor of a polynomial only ever uses atom
exponents bounded by the dividend's.
"""

from math import gcd, lcm

from .backend import RAT_ONE, poly_mul, poly_scale, poly_sub, rat_inv, rat_make


def poly_one():
    return {(): RAT_ONE}


def is_const(p):
    return not p or (len(p) == 1 and () in p)


def atoms_of(p):
    atoms = set()
    for m in p:
        for a, _e in m:
            atoms.add(a)
    return atoms


def _as_univariate(p, z):
    """Split ``p`` along the atom ``z``: degree -> coefficient polynomial.
    Distinct monomials of ``p`` land in distinct (degree, rest) cells, so
    plain assignment suffices."""
    u = {}
    for m, c in p.items():
        deg = 0
        rest = []
        for a, e in m:
            if a == z:
                deg = e
            else:
                rest.append((a, e))
        u.setdefault(deg, {})[tuple(rest)] = c
    return u


def _from_univariate(u, z):
    p = {}
    for deg, coeff in u.items():
        for m, c in coeff.items():
            if deg:
                mm = tuple(sorted(m + ((z, deg),)))
            else:
                mm = m
            p[mm] = c
    return p


def poly_divexact(p, q):
    """Exact division ``p / q``; raises ValueError when not exact."""
    if not q:
        raise ValueError("division by zero polynomial")
    if not p:
        return {}
    if is_const(q):
        return poly_scale(p, rat_inv(q[()]))
    z = max(atoms_of(q))
    pu = _as_univariate(p, z)
    qu = _as_univariate(q, z)
    dq = max(qu)
    lead_q = qu[dq]
    quot = {}
    while pu:
        dp = max(pu)
        if dp < dq:
            raise ValueError("inexact polynomial division")
        c = poly_divexact(pu[dp], lead_q)
        quot[dp - dq] = c
        for k, qc in qu.items():
            kk = k + dp - dq
            r = poly_sub(pu.get(kk, {}), poly_mul(c, qc))
            if r:
                pu[kk] = r
            else:
                pu.pop(kk, None)
    return _from_univariate(quot, z)


def _pseudo_rem(au, bu):
    """Pseudo-remainder of two univariate views with polynomial coefficients."""
    db = max(bu)
    lb = bu[db]
    r = dict(au)
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r[dr]
        # r := lb*r - lr * z^(dr-db) * b
        nr = {}
        for k, c in r.items():
            nr[k] = poly_mul(lb, c)
        for k, c in bu.items():
            kk = k + dr - db
            nr[kk] = poly_sub(nr.get(kk, {}), poly_mul(lr, c))
        r = {k: v for k, v in nr.items() if v}
    return r


def _content(u):
    """Gcd of the coefficient polynomials of a univariate view."""
    g = {}
    for coeff in u.values():
        g = poly_gcd(g, coeff)
        if is_const(g) and g:
            return poly_one()
    return g


def _monic(p):
    if not p:
        return p
    lc = p[max(p)]
    if lc == RAT_ONE:
        return p
    return poly_scale(p, rat_inv(lc))


def _primitive(u):
    """Content and primitive part of a univariate view.  The part is the
    view divided by its content, then scaled to integer coefficients
    without a common factor: divided by the gcd of the numerators and
    multiplied by the lcm of the denominators."""
    cont = _content(u)
    if not is_const(cont):
        u = {k: poly_divexact(c, cont) for k, c in u.items()}
    coeffs = [c for coeff in u.values() for c in coeff.values()]
    num, den = gcd(*(n for n, _d in coeffs)), lcm(*(d for _n, d in coeffs))
    if num != 1 or den != 1:
        # reduced: a prime of num divides every numerator, so no denominator
        scale = (den, num)
        u = {k: poly_scale(c, scale) for k, c in u.items()}
    return cont, u


def _monomial_gcd(p, q):
    """Gcd when ``p`` has one term: each atom of its monomial at its least
    exponent over both inputs."""
    (m,) = p
    least = dict(m)
    for mq in q:
        if not least:
            break
        exps = dict(mq)
        for a, e in list(least.items()):
            eq = exps.get(a)
            if eq is None:
                del least[a]
            elif eq < e:
                least[a] = eq
    # the dict keeps the sorted order of ``m``
    return {tuple(least.items()): RAT_ONE}


def _coefficients(p, shared):
    """The coefficients of ``p`` in Q[shared], one per monomial in the
    other atoms."""
    cells = {}
    for m, c in p.items():
        inner = []
        outer = []
        for a, e in m:
            if a in shared:
                inner.append((a, e))
            else:
                outer.append((a, e))
        cells.setdefault(tuple(outer), {})[tuple(inner)] = c
    return list(cells.values())


def _dense(p):
    """Univariate ``p`` as integer coefficients, lowest degree first."""
    den = lcm(*(d for _n, d in p.values()))
    out = [0] * (max(p)[0][1] + 1)
    for m, (n, d) in p.items():
        out[m[0][1] if m else 0] = n * den // d
    return _primitive_list(out)


def _primitive_list(a):
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)  # leading entry positive
    return [c // g for c in a]


def _dense_gcd(p, q, z):
    """Step 4 when ``z`` is the one atom of both inputs: a primitive
    remainder sequence on integer coefficient lists."""
    a, b = sorted((_dense(p), _dense(q)), key=len, reverse=True)
    while len(b) > 1:
        r = a
        while len(r) >= len(b):
            # r := lb*r - lr * z^shift * b, with lb and lr divided by their gcd
            g = gcd(b[-1], r[-1])
            lb, lr, shift = b[-1] // g, r[-1] // g, len(r) - len(b)
            r = [c * lb for c in r[:shift]] + [c * lb - lr * d for c, d in zip(r[shift:-1], b)]
            while r and not r[-1]:
                r.pop()
        if not r:
            return {((z, k),) if k else (): rat_make(c, b[-1]) for k, c in enumerate(b) if c}
        a, b = b, _primitive_list(r)
    return poly_one()


def poly_gcd(p, q):
    """Gcd over the rationals, scaled so its leading coefficient is 1."""
    if not p:
        return _monic(dict(q))
    if not q:
        return _monic(dict(p))
    if len(p) == 1:
        return _monomial_gcd(p, q)
    if len(q) == 1:
        return _monomial_gcd(q, p)
    if p == q:
        return _monic(dict(p))
    atoms_p = atoms_of(p)
    atoms_q = atoms_of(q)
    shared = atoms_p & atoms_q
    if not shared:
        return poly_one()
    if len(shared) < len(atoms_p) or len(shared) < len(atoms_q):
        parts = _coefficients(p, shared) + _coefficients(q, shared)
        parts.sort(key=len)
        g = parts[0]
        for c in parts[1:]:
            g = poly_gcd(g, c)
            if is_const(g):
                break
        return g
    z = max(shared)
    if len(shared) == 1:
        return _dense_gcd(p, q, z)
    pu = _as_univariate(p, z)
    qu = _as_univariate(q, z)
    cont_p, a = _primitive(pu)
    cont_q, b = _primitive(qu)
    g_cont = poly_gcd(cont_p, cont_q)
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b)
        if not r:
            break
        if max(r) == 0:
            return g_cont
        a, b = b, _primitive(r)[1]
    prim = _from_univariate(b, z)
    return _monic(poly_mul(g_cont, prim))


__all__ = ["poly_gcd", "poly_divexact", "poly_one", "is_const", "atoms_of"]
