"""Polynomial kernel.

A polynomial is a dict mapping monomials to nonzero rational
coefficients; the empty dict is the zero polynomial.  A monomial is a
tuple of ``(atom, exponent)`` pairs with nonzero integer exponents,
sorted by the atoms' total order; the empty tuple is the constant
monomial.  Atoms are opaque: the kernel only needs them hashable and
totally ordered (the expression layer passes plain nested tuples).

A coefficient is an exact rational in exactly one form, so equal
polynomials are equal dicts with equal hashes: an integral value is a
plain ``int``, any other the gcd-reduced pair ``(n, d)`` of ints with
denominator ``d > 1``.  The loops below do integer arithmetic inline
and call the pair arithmetic only for a non-integral operand; the pairs
avoid the dispatch overhead of ``fractions.Fraction``.  A coefficient is
false exactly when it is zero.  Only this module unpacks a pair: the
other modules build a coefficient with ``rat_make`` and read one with
``rat_parts``, and may add or multiply two ints inline.

Polynomial dicts are frozen values above this layer: the kernel returns
fresh dicts and mutates no input but the sum ``poly_add_mul`` adds to.
The kernel has no subtraction: a difference is a sum with a negated
operand, ``poly_add(p, poly_neg(q))``, and ``r - p*q`` is
``poly_add_mul(r, poly_neg(p), q)``.

The other library modules import the kernel through ``backend``.
"""

from math import gcd

RAT_ONE = 1


def rat_make(n, d):
    """The coefficient ``n/d`` of the ints ``n`` and ``d != 0``."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return n if d == 1 else (n, d)


def rat_parts(c):
    """The reduced ``(numerator, denominator)`` of the coefficient ``c``,
    with a positive denominator."""
    return (c, 1) if type(c) is int else c


def rat_add(a, b):
    if type(a) is int:
        if type(b) is int:
            return a + b
        # an int plus a reduced pair: gcd(a*d + n, d) = gcd(n, d) = 1
        return (a * b[1] + b[0], b[1])
    if type(b) is int:
        return (a[0] + b * a[1], a[1])
    an, ad = a
    bn, bd = b
    return rat_make(an * bd + bn * ad, ad * bd)


def rat_mul(a, b):
    if type(a) is int:
        if type(b) is int:
            return a * b
        return rat_make(a * b[0], b[1])
    if type(b) is int:
        return rat_make(a[0] * b, a[1])
    return rat_make(a[0] * b[0], a[1] * b[1])


def rat_inv(a):
    n, d = rat_parts(a)
    if n < 0:
        n, d = -n, -d
    return d if n == 1 else (d, n)


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
    get = r.get
    for m, c in q.items():
        v = get(m)
        if v is None:
            r[m] = c
        else:
            v = v + c if type(v) is int and type(c) is int else rat_add(v, c)
            if v:
                r[m] = v
            else:
                del r[m]
    return r


def poly_neg(p):
    return {m: -c if type(c) is int else (-c[0], c[1]) for m, c in p.items()}


def poly_scale(p, c):
    if not c:
        return {}
    if c == RAT_ONE:
        return dict(p)
    whole = type(c) is int
    return {m: v * c if whole and type(v) is int else rat_mul(v, c) for m, v in p.items()}


def poly_mul(p, q):
    """The product of two polynomials.  When the shorter operand is one
    term ``c1*m1``, each term of the other is scaled and shifted by it:
    multiplying by a fixed monomial is one-to-one, so no two products
    collide and none cancels."""
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:
        ((m1, c1),) = p.items()
        if not m1:
            return poly_scale(q, c1)
        whole = type(c1) is int
        return {monomial_mul(m1, m2): c1 * c2 if whole and type(c2) is int else rat_mul(c1, c2)
                for m2, c2 in q.items()}
    return poly_add_mul({}, p, q)


def poly_add_mul(r, p, q):
    """Add ``p*q`` to ``r``, a sum its caller owns, in place; return ``r``."""
    qitems = list(q.items())
    get = r.get
    for m1, c1 in p.items():
        whole = type(c1) is int
        for m2, c2 in qitems:
            m = monomial_mul(m1, m2)
            c = c1 * c2 if whole and type(c2) is int else rat_mul(c1, c2)
            v = get(m)
            if v is None:
                r[m] = c
            else:
                v = v + c if type(v) is int and type(c) is int else rat_add(v, c)
                if v:
                    r[m] = v
                else:
                    del r[m]
    return r
