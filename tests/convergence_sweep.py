"""Seeded convergence sweep of `lerch_accelerated`, for comparing two trees.

    PYTHONPATH=src python tests/convergence_sweep.py run SEED N OUT.json
    python tests/convergence_sweep.py compare BEFORE.json AFTER.json

`run` draws N calls from SEED and writes, per call, its arguments, whether it
converged, its terms and method (or the exception it raised).  The calls
spread over the whole domain: w in the half-plane Re(w) < 1/2 at |w| from
1e-3 to 1e6, real and complex shifts with |alpha| up to 1e3 and |Im alpha| <=
60, s up to 400, max_terms 5, 100 or 10^4, tol 1e-12.  `compare` prints the
totals of both files and every call that converged in BEFORE but not in
AFTER.  It is not a test: run it on the tree before and after a change to the
bounds, each with its own `src` on PYTHONPATH.
"""

import cmath
import json
import math
import random
import sys


def calls(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        while True:
            w = cmath.rect(10 ** rng.uniform(-3, 6), rng.uniform(-math.pi, math.pi))
            if w.real < 0.5:
                break
        size = 10 ** rng.uniform(-2, 3)
        if rng.random() < 0.4:
            alpha = complex(rng.choice((-1, 1)) * size, 0.0)
        else:
            alpha = cmath.rect(size, rng.uniform(-math.pi, math.pi))
            alpha = complex(alpha.real, max(-60.0, min(60.0, alpha.imag)))
        s = max(1, round(10 ** rng.uniform(0, math.log10(400))))
        yield w, alpha, s, rng.choice((5, 100, 10**4))


def run(seed, n, path):
    from mhlerch import series
    from mhlerch.errors import InvalidShiftError

    rows = []
    for w, alpha, s, max_terms in calls(seed, n):
        row = {"w": repr(w), "alpha": repr(alpha), "s": s, "max_terms": max_terms}
        try:
            result = series.lerch_accelerated(w, series.ShiftParam(alpha), s, 1e-12, max_terms)
            row.update(converged=result.converged, terms=result.terms_used, method=result.method)
        except (ArithmeticError, InvalidShiftError) as error:
            row.update(converged=False, raised=type(error).__name__)
        rows.append(row)
    with open(path, "w") as out:
        json.dump(rows, out)


def compare(before_path, after_path):
    before, after = (json.load(open(path)) for path in (before_path, after_path))
    for label, rows in (("before", before), ("after", after)):
        print(f"{label}: {sum(row['converged'] for row in rows)} of {len(rows)} calls converged")
    lost = [(b, a) for b, a in zip(before, after) if b["converged"] and not a["converged"]]
    print(f"converged before, not after: {len(lost)}")
    for b, a in lost:
        print(f"    w = {b['w']}, alpha = {b['alpha']}, s = {b['s']}, max_terms = {b['max_terms']}:"
              f" {b['terms']} terms before, {a.get('terms', a.get('raised'))} after")


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
    else:
        compare(sys.argv[2], sys.argv[3])
