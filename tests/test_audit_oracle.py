"""The array audit of ``LinearProgram`` against its loop form in ``oracles``.

``check_point`` sums each row with ``np.bincount`` in dict order, which
must be the same left-to-right sum as the loop's ``sum``; so on any
program and point, hostile ones included, both must return the same
problem strings, byte for byte.  ``validate`` must name the same bad
rows and columns as the loop that visits every one of them.
"""

import math

import numpy as np

from hetcache.lp_core import LinearProgram
from oracles import check_point_loop, random_box_lp, validate_loop

ODD_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 5e-324, 1e300]


def random_program(rng):
    """A random program with some empty rows and some huge or odd
    coefficients; the rows are valid, the points below are not."""
    c, eq, ub, lo, hi = random_box_lp(rng)
    n = len(c)
    rows = []
    for coefs, b in eq + ub:
        if rng.random() < 0.15:
            coefs = {}
        elif rng.random() < 0.2:
            coefs = {j: v * float(rng.choice([1e-9, 1e12, 1.0 / 3.0])) for j, v in coefs.items()}
        elif rng.random() < 0.2:
            # a dict in other than column order
            coefs = dict(reversed(list(coefs.items())))
        if rng.random() < 0.1:
            b = float(rng.choice([0.0, -0.0, 1e300, 7.25]))
        rows.append((coefs, b))
    names = tuple(f"y{j}" for j in range(n)) if rng.random() < 0.5 else None
    return LinearProgram(c=c, eq_rows=rows[:len(eq)], ub_rows=rows[len(eq):],
                         lo=lo, hi=hi, names=names)


def random_point(rng, lp):
    """Inside the box, on its faces, just past them, or odd values."""
    lo, hi = lp.lo, lp.hi
    x = rng.uniform(lo, hi)
    for j in range(lp.n_vars):
        pick = rng.random()
        if pick < 0.15:
            x[j] = lo[j]
        elif pick < 0.3:
            x[j] = hi[j]
        elif pick < 0.4:
            x[j] = hi[j] + float(rng.choice([1e-9, 1e-7, 1.0]))
        elif pick < 0.5:
            x[j] = lo[j] - float(rng.choice([1e-9, 1e-7, 1.0]))
        elif pick < 0.6:
            x[j] = float(rng.choice(ODD_VALUES))
    return x


@np.errstate(over="ignore", invalid="ignore")  # inf - inf and 1e300 * 1e12 are meant
def test_check_point_matches_the_loop():
    rng = np.random.default_rng(2026)
    broken = 0
    for _ in range(200):
        lp = random_program(rng)
        for _ in range(3):
            x = random_point(rng, lp)
            tol = float(rng.choice([1e-8, 1e-7, 0.0, 0.5]))
            want = check_point_loop(lp, x.tolist(), tol)
            assert lp.check_point(x.tolist(), tol) == want
            assert lp.check_point(x, tol) == check_point_loop(lp, x, tol)
            broken += bool(want)
    # the points must break rows and boxes often, and not always
    assert 100 <= broken <= 550


def test_validate_matches_the_loop():
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(200):
        lp = random_program(rng)
        n = lp.n_vars
        for rows in (lp.eq_rows, lp.ub_rows):
            for i, (coefs, b) in enumerate(rows):
                if rng.random() < 0.1:
                    coefs = {**coefs, int(rng.choice([-1, n, n + 3])): 1.0}
                if rng.random() < 0.1:
                    b = float(rng.choice([math.nan, math.inf, -math.inf]))
                rows[i] = (coefs, b)
        if rng.random() < 0.1:
            lp.hi[0] = lp.lo[0] - 1.0
        want = validate_loop(lp)
        assert lp.validate() == want
        bad += bool(want)
    assert 50 <= bad <= 190
