"""Shared generators for seeded-random test instances, and a child
interpreter for checks that need a fresh process."""

import os
import subprocess
import sys
from math import gcd
from pathlib import Path

from jetsym.expr import _rf_of, expr_prod, expr_sum, rational, variable
from jetsym.jets import JetSpec, MuForm, total_derivative
from jetsym.prolong import PointVectorField


def rand_poly(rng, names, max_degree=2, max_terms=3, allow_zero=True):
    """Sparse random polynomial over the given variable names."""
    parts = []
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        c = rng.randint(-3, 3)
        if c == 0:
            c = 1
        factors = [rational(c)]
        for _ in range(rng.randint(0, max_degree)):
            factors.append(variable(rng.choice(names)))
        parts.append(expr_prod(factors))
    return expr_sum(parts)


def atom_key(e):
    """The kernel atom of a value that is one variable or one function
    atom: the only atom of its numerator's only monomial."""
    ((m, _c),) = _rf_of(e)[0].items()
    ((a, _e),) = m
    return a


def assert_canonical(e):
    """Fail unless the pair of ``e`` is canonical: every monomial of its
    numerator and denominator strictly sorted by atom, so no atom twice,
    with positive exponents and a nonzero reduced coefficient, and a
    denominator of leading coefficient 1; function-atom arguments too.
    A result read back from its printed text cannot show this:
    ``u_xx*u_xx`` prints as ``u_xx^2``."""
    num, den = _rf_of(e)
    assert den and den[max(den)] == (1, 1), f"denominator of {e} is not monic"
    for poly in (num, den):
        for m, (n, d) in poly.items():
            assert n and d > 0 and gcd(n, d) == 1, f"coefficient {n}/{d} in {e}"
            assert all(x < y for (x, _), (y, _) in zip(m, m[1:])), f"monomial {m} in {e}"
            for atom, k in m:
                assert k > 0, f"exponent {k} in {e}"
                if atom[0] == 5:
                    assert_canonical(atom[2])


def run_python(args, timeout):
    """A fresh interpreter run with ``args`` on this checkout's ``src``;
    fails when it runs past ``timeout`` seconds."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def run_child(script, timeout, returncode=0):
    """stdout lines of ``script`` run by a fresh interpreter on this
    checkout's ``src``; fails when it runs past ``timeout`` seconds or
    exits with another code than ``returncode``."""
    proc = run_python(["-c", script], timeout)
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout.splitlines()


def base_names(spec: JetSpec):
    return list(spec.independent) + list(spec.dependent)


def rand_point_field(rng, spec: JetSpec, max_degree=2, generalized=False, names=None):
    names = names or base_names(spec)
    xi = tuple(rand_poly(rng, names, max_degree) for _ in range(spec.p))
    phi = tuple(rand_poly(rng, names, max_degree) for _ in range(spec.q))
    return PointVectorField(spec, xi, phi, generalized=generalized)


def rand_closed_scalar_mu(rng, spec: JetSpec, max_degree=2):
    """A closed scalar form, built as the total differential of a random
    polynomial of the base variables (closed by construction)."""
    phi = rand_poly(rng, base_names(spec), max_degree)
    lambdas = [total_derivative(phi, i, spec) for i in range(spec.p)]
    return MuForm.scalar(spec, lambdas), phi


def rand_unipotent_gauge(rng, spec: JetSpec, max_degree=2):
    """Upper triangular with unit diagonal, polynomial entries."""
    q = spec.q
    names = base_names(spec)
    rows = []
    for a in range(q):
        row = []
        for b in range(q):
            if a == b:
                row.append(rational(1))
            elif a < b:
                row.append(rand_poly(rng, names, max_degree, max_terms=2))
            else:
                row.append(rational(0))
        rows.append(tuple(row))
    return tuple(rows)
