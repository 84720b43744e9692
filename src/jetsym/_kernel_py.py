"""Polynomial kernel.

A polynomial is a dict mapping monomials to nonzero rational
coefficients; the empty dict is the zero polynomial.  A monomial is a
tuple of ``(atom, exponent)`` pairs with nonzero integer exponents,
sorted by the atoms' total order; the empty tuple is the constant
monomial.  Atoms are opaque: the kernel only needs them hashable and
totally ordered (the expression layer passes plain nested tuples).

Coefficients are exact rationals stored as ``(numerator, denominator)``
pairs of ints, gcd reduced with positive denominator; this avoids the
dispatch overhead of ``fractions.Fraction`` in the inner loops.

Polynomial dicts are treated as frozen values everywhere above this
layer: the kernel returns fresh dicts and never mutates its inputs.

The other library modules import the kernel through ``backend``.
"""

from math import gcd

RAT_ONE = (1, 1)


def rat_make(n, d):
    """Reduced rational with positive denominator."""
    if n == 0:
        return (0, 1)
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return (n, d)


def rat_add(a, b):
    an, ad = a
    bn, bd = b
    if ad == 1 and bd == 1:
        return (an + bn, 1)
    return rat_make(an * bd + bn * ad, ad * bd)


def rat_sub(a, b):
    an, ad = a
    bn, bd = b
    if ad == 1 and bd == 1:
        return (an - bn, 1)
    return rat_make(an * bd - bn * ad, ad * bd)


def rat_neg(a):
    return (-a[0], a[1])


def rat_mul(a, b):
    an, ad = a
    bn, bd = b
    if ad == 1 and bd == 1:
        return (an * bn, 1)
    return rat_make(an * bn, ad * bd)


def rat_inv(a):
    n, d = a
    if n < 0:
        return (-d, -n)
    return (d, n)


def monomial_mul(m1, m2):
    """Merge two sorted monomials, adding exponents of shared atoms."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = 0
    j = 0
    n1 = len(m1)
    n2 = len(m2)
    while i < n1 and j < n2:
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 == a2:
            e = e1 + e2
            if e:
                out.append((a1, e))
            i += 1
            j += 1
        elif a1 < a2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def poly_add(p, q):
    if not p:
        return dict(q)
    if not q:
        return dict(p)
    r = dict(p)
    for m, c in q.items():
        v = r.get(m)
        if v is None:
            r[m] = c
        else:
            v = rat_add(v, c)
            if v[0]:
                r[m] = v
            else:
                del r[m]
    return r


def poly_neg(p):
    return {m: (-c[0], c[1]) for m, c in p.items()}


def poly_sub(p, q):
    if not q:
        return dict(p)
    r = dict(p)
    for m, c in q.items():
        v = r.get(m)
        if v is None:
            r[m] = (-c[0], c[1])
        else:
            v = rat_sub(v, c)
            if v[0]:
                r[m] = v
            else:
                del r[m]
    return r


def poly_scale(p, c):
    if not c[0]:
        return {}
    if c == RAT_ONE:
        return dict(p)
    return {m: rat_mul(v, c) for m, v in p.items()}


def poly_mul(p, q):
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    r = {}
    qitems = list(q.items())
    for m1, c1 in p.items():
        for m2, c2 in qitems:
            m = monomial_mul(m1, m2)
            c = rat_mul(c1, c2)
            v = r.get(m)
            if v is None:
                r[m] = c
            else:
                v = rat_add(v, c)
                if v[0]:
                    r[m] = v
                else:
                    del r[m]
    return r
