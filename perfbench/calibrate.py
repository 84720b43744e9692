"""Fixed reference work for measuring the machine's current speed.

The host's speed drifts by 20-30% over minutes, and every timing of a
run moves with it.  ``run.py`` runs this program once per round of its
window, next to the jetsym invocations it scales: a fresh interpreter
doing sparse-polynomial arithmetic on dicts of exponent tuples, the same
kind of work as jetsym's kernel, without importing jetsym.  It never
changes between commits, so dividing by its time removes the drift and
nothing else.

    python perfbench/calibrate.py
"""

ROUNDS = 5
DEGREE_CAP = 24


def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def main():
    p = {(i, j, k): (i * 7 + j * 3 + k) % 11 - 5
         for i in range(4) for j in range(4) for k in range(3)}
    acc = {(0, 0, 0): 1}
    for _ in range(ROUNDS):
        acc = {m: c % 1000003 for m, c in mul(acc, p).items() if sum(m) < DEGREE_CAP}
    return acc


if __name__ == "__main__":
    main()
