"""Reference values the benchmark checks meantype's outputs against.

Nothing here imports meantype: each reference is computed from a closed
form or from the definition, so a wrong value in the package cannot make
its own check pass.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

AGM_DIGITS = 40


def agm_decimal(x: float, y: float, digits: int = AGM_DIGITS) -> float:
    """Arithmetic-geometric mean of two positive floats at ``digits`` digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        a, b = Decimal(x), Decimal(y)
        eps = Decimal(10) ** -digits
        while abs(a - b) > eps * a:
            a, b = (a + b) / 2, (a * b).sqrt()
        return float((a + b) / 2)


def arithmetic_harmonic(x: float, y: float) -> float:
    """The (arithmetic, harmonic) pair preserves x*y, so its limit is sqrt(x*y)."""
    return math.sqrt(x * y)


def shift_average_value(v) -> float:
    """Invariant mean of shift-average-p: sum_j 2j v_j / (p(p+1)), exactly.

    The weights are the stationary vector of the row-stochastic matrix of
    (projection 2, ..., projection p, arithmetic).
    """
    p = len(v)
    total = sum(2 * j * Fraction(x) for j, x in enumerate(v, start=1))
    return float(total / (p * (p + 1)))


def shift_average_step(v: tuple) -> tuple:
    """One application of shift-average-p, from its definition."""
    return tuple(v[1:]) + (math.fsum(v) / len(v),)


def shift_average_n0(v: tuple, cap: int) -> tuple[int | None, tuple]:
    """Smallest n <= cap with diam(M^n(v)) < diam(v), and M^n(v); n is None past cap."""
    d0 = max(v) - min(v)
    current = tuple(v)
    for n in range(1, cap + 1):
        current = shift_average_step(current)
        if max(current) - min(current) < d0:
            return n, current
    return None, current


def close(value: float, reference: float, scale: float, rel: float) -> bool:
    """|value - reference| <= rel * max(1, scale)."""
    return abs(value - reference) <= rel * max(1.0, abs(scale))
