"""Multivariate polynomial gcd and exact division over the kernel's dicts.

Polynomials are the kernel's dict-of-monomials with rational-pair coefficients
and opaque, totally ordered atoms.  The gcd uses the classical recursion:
view both polynomials as univariate in a chosen main atom with polynomial
coefficients, split off contents, and run a primitive pseudo-remainder
sequence.  Each remainder is divided by its content and scaled to
leading numeric coefficient 1: a constant content is not split off, so
without the scaling rational coefficients grow exponentially along the
sequence.  Sizes in this package are desk scale, so the primitive PRS is
plenty.

Everything here works in the free commutative ring over the atoms; callers
that maintain extra monomial invariants (for instance merged exponential
atoms) keep them because a divisor of a polynomial only ever uses atom
exponents bounded by the dividend's.
"""

from .backend import RAT_ONE, poly_mul, poly_scale, poly_sub, rat_inv

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


def poly_gcd(p, q):
    """Gcd over the rationals, scaled so its leading coefficient is 1."""
    if not p:
        return _monic(dict(q))
    if not q:
        return _monic(dict(p))
    if is_const(p) or is_const(q):
        return poly_one()
    if p == q:
        return _monic(dict(p))
    z = max(atoms_of(p) | atoms_of(q))
    pu = _as_univariate(p, z)
    qu = _as_univariate(q, z)
    cont_p = _content(pu)
    cont_q = _content(qu)
    g_cont = poly_gcd(cont_p, cont_q)
    a = {k: poly_divexact(c, cont_p) for k, c in pu.items()}
    b = {k: poly_divexact(c, cont_q) for k, c in qu.items()}
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b)
        if not r:
            break
        if max(r) == 0:
            return _monic(g_cont)
        cont_r = _content(r)
        r = {k: poly_divexact(c, cont_r) for k, c in r.items()}
        lead = r[max(r)]
        inv = rat_inv(lead[max(lead)])
        a, b = b, {k: poly_scale(c, inv) for k, c in r.items()}
    prim = _from_univariate(b, z)
    return _monic(poly_mul(g_cont, prim))


__all__ = ["poly_gcd", "poly_divexact", "poly_one", "is_const", "atoms_of"]
