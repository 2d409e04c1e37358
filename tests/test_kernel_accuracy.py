"""Accuracy of the geometric and power kernels against a 60-digit reference.

The reference evaluates each mean in ``decimal`` at 60 significant digits
from the exact values of the float coordinates and of the float exponent,
so its own error is far below one ulp.  The worst error in ulps over a
seeded sample of log-uniform vectors is pinned per cell in ``BUDGETS``: a
change may lower a budget, and must not raise one.  Print the table on
``N`` vectors per cell (README quotes N = 2000) with::

    python tests/test_kernel_accuracy.py N
"""

from __future__ import annotations

import functools
import math
import random
import sys
from decimal import Context, Decimal, localcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meantype.mapping
import meantype.means
from meantype import (Interval, MeanSpec, MeanTypeMapping, arithmetic_harmonic_mapping, eval_mean,
                      gauss_iterate, parse_mean, projection_mapping, shift_average_mapping)
from meantype.means import _DIRECT_POWER_CUTOFF

CONTEXT = Context(prec=60)
#: None stands for ``geometric``; a float t for ``power:t``.
KINDS = (None, 2.0, 0.5, 3.0, -1.5, 0.1, -0.1, 1e-3)
ARITIES = (2, 5)
#: Coordinates are log-uniform in [10**-e, 10**e] for each e here.
DECADES = (3, 300)
SAMPLES = 200

#: Worst error in ulps per kind: p = 2 in 1e±3 and in 1e±300, then p = 5
#: in 1e±3 and in 1e±300, over ``SAMPLES`` vectors per cell.
BUDGETS = {
    None: (1, 2, 5.5, 400),
    2.0: (1, 800, 1.5, 800),
    0.5: (3, 2, 3, 3),
    3.0: (4, 1900, 4.5, 1000),
    -1.5: (4.5, 1200, 4, 1100),
    0.1: (15, 330, 15, 350),
    -0.1: (14, 330, 16, 360),
    1e-3: (680, 1550, 1220, 1530),
}
CELLS = [(t, p, e) for t in KINDS for p in ARITIES for e in DECADES]


def _spec(t: float | None, p: int) -> MeanSpec:
    return MeanSpec.geometric(p) if t is None else MeanSpec.power(t, p)


def _name(t: float | None) -> str:
    return "geometric" if t is None else f"power:{t!r}"


def _budget(t: float | None, p: int, decades: int) -> float:
    return BUDGETS[t][2 * ARITIES.index(p) + DECADES.index(decades)]


def _from_logs(t: float | None, logs: list[Decimal]) -> Decimal:
    with localcontext(CONTEXT):
        if t is None:
            return (sum(logs) / len(logs)).exp()
        q = Decimal(t)
        return ((sum((q * l).exp() for l in logs) / len(logs)).ln() / q).exp()


def _logs(v: tuple[float, ...]) -> list[Decimal]:
    with localcontext(CONTEXT):
        return [Decimal(x).ln() for x in v]


def reference(t: float | None, v: tuple[float, ...]) -> Decimal:
    """The mean of ``v`` (``geometric`` if ``t`` is None, else ``power:t``) to 60 digits."""
    return _from_logs(t, _logs(v))


def ulps(r: float, ref: Decimal) -> float:
    """|r - ref| in units of the last place of ``ref`` rounded to a float."""
    with localcontext(CONTEXT):
        return float(abs(Decimal(r) - ref) / Decimal(math.ulp(float(ref))))


@functools.cache
def worst_ulps(p: int, decades: int, samples: int = SAMPLES) -> dict:
    """{kind: its worst error in ulps} over ``samples`` seeded vectors of length p."""
    rnd = random.Random(1000 * p + decades)
    specs = {t: _spec(t, p) for t in KINDS}
    worst = dict.fromkeys(KINDS, 0.0)
    for _ in range(samples):
        v = tuple(10.0 ** rnd.uniform(-decades, decades) for _ in range(p))
        logs = _logs(v)
        for t in KINDS:
            worst[t] = max(worst[t], ulps(eval_mean(specs[t], v), _from_logs(t, logs)))
    return worst


@pytest.mark.parametrize("t, p, decades", CELLS,
                         ids=[f"{_name(t)}-p{p}-1e{e}" for t, p, e in CELLS])
def test_worst_error_within_budget(t, p, decades):
    assert worst_ulps(p, decades)[t] <= _budget(t, p, decades)


def _logged(fn, *args):
    """``(fn(*args), the arguments of every math.log call it made)``."""
    logged, log = [], math.log
    with mock.patch.object(math, "log", lambda x: logged.append(x) or log(x)):
        return fn(*args), logged


@pytest.mark.parametrize("t, v", [
    (2.0, (1e200, 3.0)), (2.0, (1e200, 3.0, 7.0, 0.5, 11.0)),
    (-1.5, (1e-250, 2.0)), (3.0, (1e-5, 2.0, 1e150, 4.0, 5.0)),
])
def test_one_overflowing_power_falls_back_within_budget(t, v):
    # one x**t overflows, so the kernel runs in log space
    r, logged = _logged(eval_mean, MeanSpec.power(t, len(v)), v)
    assert logged
    assert ulps(r, reference(t, v)) <= _budget(t, len(v), 300)


FLOAT_MAX = math.nextafter(math.inf, 0.0)
BELOW_MAX = math.nextafter(FLOAT_MAX, 0.0)
POSITIVE = st.one_of(
    st.sampled_from((5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
                     BELOW_MAX, FLOAT_MAX)),
    st.floats(min_value=5e-324, max_value=FLOAT_MAX),
)
DIRECT_EXPONENTS = [t for t in KINDS if t is not None and abs(t) >= _DIRECT_POWER_CUTOFF]


@st.composite
def positive_pairs(draw):
    """Two distinct positive floats: mostly 1 to 3 ulps apart, else any two."""
    x = y = draw(POSITIVE)
    if draw(st.booleans()):
        toward = draw(st.sampled_from((0.0, math.inf)))
        for _ in range(draw(st.integers(1, 3))):
            y = math.nextafter(y, toward)
        if not 0.0 < y < math.inf:  # stepped off the positive floats: step the other way
            y = math.nextafter(x, math.inf if toward == 0.0 else 0.0)
    else:
        y = draw(POSITIVE)
    return (x, y) if x != y else (x, math.nextafter(x, 1.0))


@settings(max_examples=500, deadline=None)
@given(positive_pairs())
@example((FLOAT_MAX, BELOW_MAX))
@example((5e-324, 1e-323))
@example((5e-324, FLOAT_MAX))
def test_pair_geometric_is_internal(v):
    assert min(v) <= eval_mean(MeanSpec.geometric(2), v) <= max(v)


@settings(max_examples=500, deadline=None)
@given(positive_pairs(), st.sampled_from(DIRECT_EXPONENTS))
@example((1.0, math.nextafter(1.0, 2.0)), 3.0)
@example((2.5623659923254896e+20, 2.56236599232549e+20), 0.1)
@example((1e-320, 5e-324), 0.5)
@example((FLOAT_MAX, BELOW_MAX), -0.1)
def test_direct_power_is_internal(v, t):
    r, logged = _logged(eval_mean, MeanSpec.power(t, 2), v)
    if not logged:  # the direct path, not the log-space fallback
        assert min(v) <= r <= max(v)


def test_mixed5_takes_no_shared_log_pass():
    # gauss-long's mixed5: power:2 sums squares, so the geometric mean is the
    # one kernel that reads log(x); it takes each log once, and no step-wide
    # log pass runs
    mapping = MeanTypeMapping(
        [parse_mean(name, 5) for name in ("arithmetic", "geometric", "harmonic", "power:2",
                                          "median")], Interval(0.0, math.inf))
    v = (1.5, 2.5, 3.5, 4.5, 5.5)
    expected = tuple(eval_mean(spec, v) for spec in mapping.components)
    callers, log = [], math.log
    with mock.patch.object(
            math, "log", lambda x: callers.append((x, sys._getframe(1).f_code.co_name)) or log(x)):
        assert mapping.apply(v) == expected
    assert callers == [(x, "_geometric") for x in v]


@pytest.mark.parametrize("mapping, v, value, steps, final_diameter", [
    (shift_average_mapping(3), (0.0, 1.0, 0.0), "0x1.5555555553f2cp-2", 51,
     "0x1.0f24000000000p-40"),
    (shift_average_mapping(10), (1.0,) + (0.0,) * 9, "0x1.29e4129e4bdeap-6", 131,
     "0x1.86e8800000000p-41"),
    (arithmetic_harmonic_mapping(), (1.0, 2.0), "0x1.6a09e667f3bccp+0", 5,
     "0x1.0000000000000p-52"),
    (projection_mapping(2), (0.0, 1.0), "0x1.0000000000000p-1", 10000, "0x1.0000000000000p+0"),
], ids=["shift3", "shift10", "arithmetic-harmonic", "projections"])
def test_solves_with_no_geometric_or_power_kernel_keep_their_bits(mapping, v, value, steps,
                                                                   final_diameter):
    est = gauss_iterate(mapping, v)
    assert (est.value.hex(), est.steps, est.final_diameter.hex()) == (value, steps, final_diameter)


MIXED_5 = ("arithmetic", "geometric", "harmonic", "power:2", "median")
MIXED_10 = ("arithmetic", "geometric", "harmonic", "power:0.5", "power:3", "quasi:log",
            "quasi:exp", "quasi:power:2", "median", "weighted:" + ",".join(["0.1"] * 10))


@pytest.mark.parametrize("names, seed, value, steps, final_diameter", [
    (MIXED_5, 1, "0x1.fcffd8106dfd4p+1", 21, "0x1.0000000000000p-41"),
    (MIXED_5, 2, "0x1.15e82afc70518p+5", 24, "0x1.9400000000000p-41"),
    (MIXED_10, 1, "0x1.347490975e011p+6", 31, "0x1.4000000000000p-43"),
    (MIXED_10, 2, "0x1.d24ac964c775cp+8", 46, "0x1.c000000000000p-42"),
], ids=["mixed5-1", "mixed5-2", "mixed10-1", "mixed10-2"])
def test_mixed_solves_keep_their_bits(names, seed, value, steps, final_diameter):
    # the benchmark's mixed5 and mixed10, from log-uniform starts in 1e±3
    p, rnd = len(names), random.Random(seed)
    mapping = MeanTypeMapping([parse_mean(name, p) for name in names], Interval(0.0, math.inf))
    est = gauss_iterate(mapping, tuple(10.0 ** rnd.uniform(-3, 3) for _ in range(p)))
    assert (est.value.hex(), est.steps, est.final_diameter.hex()) == (value, steps, final_diameter)


def test_mixed10_solve_sorts_each_iterate_once(monkeypatch):
    # the loop sorts each iterate for its check, and the step's kernels (the
    # power clamps and the median) read that list; nothing else sorts
    p, rnd = len(MIXED_10), random.Random(1)
    mapping = MeanTypeMapping([parse_mean(name, p) for name in MIXED_10], Interval(0.0, math.inf))
    v = tuple(10.0 ** rnd.uniform(-3, 3) for _ in range(p))
    callers = []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return sorted(*args, **kwargs)

    for module in (meantype.means, meantype.mapping):
        monkeypatch.setattr(module, "sorted", counted, raising=False)
    est = gauss_iterate(mapping, v)
    assert est.steps == 31
    assert callers == ["_gauss_run"] * (est.steps + 1)


REALS, POSITIVE_LINE = Interval(), Interval(0.0, math.inf)


@pytest.mark.parametrize("names, domain, v, image, solve, relative", [
    # max returns the first of equal zeros, so these two differ in its sign
    (("max", "min", "projection:1"), REALS, (0.0, -0.0, -1.0),
     ["0x0.0p+0", "-0x1.0000000000000p+0", "0x0.0p+0"],
     ("-0x1.0000000000000p-1", 10000, "0x1.0000000000000p+0"), False),
    (("max", "min", "projection:1"), REALS, (-0.0, 0.0, -1.0),
     ["-0x0.0p+0", "-0x1.0000000000000p+0", "-0x0.0p+0"],
     ("-0x1.0000000000000p-1", 10000, "0x1.0000000000000p+0"), False),
    (("median", "arithmetic", "geometric"), POSITIVE_LINE, (0.5, 3.0, 2.0),
     ["0x1.0000000000000p+1", "0x1.d555555555555p+0", "0x1.7137449123ef7p+0"],
     ("0x1.c5de8607b40d4p+0", 25, "0x1.4be0000000000p-41"), False),
    (("median", "arithmetic", "geometric", "harmonic"), POSITIVE_LINE, (0.5, 3.0, 2.0, 7.0),
     ["0x1.4000000000000p+1", "0x1.9000000000000p+1", "0x1.12024c66ca82dp+1",
      "0x1.5810624dd2f1ap+0"],
     ("0x1.1b4c601fd68a2p+1", 20, "0x1.b9c0000000000p-41"), False),
    (("quasi:exp", "arithmetic", "median"), REALS, (-1.5, 2.0, 7.0),
     ["0x1.7a21abe83308ap+2", "0x1.4000000000000p+1", "0x1.0000000000000p+1"],
     ("0x1.d913b191136d4p+1", 27, "0x1.6040000000000p-41"), False),
    (("power:-1.5", "arithmetic", "median"), POSITIVE_LINE, (0.25, 3.0, 9.0),
     ["0x1.054714f772163p-1", "0x1.0555555555555p+2", "0x1.8000000000000p+1"],
     ("0x1.0cd8cf72a4c0cp+1", 26, "0x1.1f40000000000p-41"), False),
    (("weighted:0.5,0,0.5", "arithmetic", "median"), REALS, (-1.5, 2.0, 7.0),
     ["0x1.6000000000000p+1", "0x1.4000000000000p+1", "0x1.0000000000000p+1"],
     ("0x1.36db6db6db6afp+1", 17, "0x1.2b00000000000p-42"), False),
    # |t| < 0.1: log space from the start
    (("power:0.05", "arithmetic", "median"), POSITIVE_LINE, (0.25, 3.0, 9.0),
     ["0x1.ff6f7e1402128p+0", "0x1.0555555555555p+2", "0x1.8000000000000p+1"],
     ("0x1.7df4f336ca7d2p+1", 25, "0x1.6f80000000000p-41"), False),
    # |t| < POWER_ZERO_CUTOFF: the geometric mean
    (("power:1e-9", "arithmetic", "median"), POSITIVE_LINE, (0.25, 3.0, 9.0),
     ["0x1.e3cf476542bd1p+0", "0x1.0555555555555p+2", "0x1.8000000000000p+1"],
     ("0x1.7a99a6866e8eep+1", 26, "0x1.fd80000000000p-42"), False),
    # 3.0 ** 1e308 overflows, and so does 1e308 * log(1.7e308)
    (("power:1e308", "arithmetic", "median"), POSITIVE_LINE, (0.5, 3.0, 1.7e308),
     ["0x1.e42d130773b76p+1023", "0x1.42c8b75a4d24fp+1022", "0x1.8000000000000p+1"],
     ("0x1.e42d130772e3bp+1023", 106, "0x1.a760000000000p+983"), True),
    # every reciprocal overflows, so the harmonic mean rescales by min(v)
    (("harmonic", "arithmetic", "median"), POSITIVE_LINE, (5e-324, 1e-320, 2e-322),
     ["0x0.0000000000003p-1022", "0x0.00000000002b0p-1022", "0x0.0000000000028p-1022"],
     ("0x0.0000000000029p-1022", 6, "0x0.0p+0"), True),
], ids=["max-min-zeros", "max-min-zeros-swapped", "median-odd", "median-even", "quasi-exp",
        "power-negative", "weighted-zero-weight", "power-log-space", "power-geometric-cutoff",
        "power-overflow", "harmonic-subnormal"])
def test_every_kernel_keeps_its_bits_at_p3_and_up(names, domain, v, image, solve, relative):
    mapping = MeanTypeMapping([parse_mean(name, len(names)) for name in names], domain)
    assert [x.hex() for x in mapping.apply(v)] == image
    est = gauss_iterate(mapping, v, relative=relative)
    assert (est.value.hex(), est.steps, est.final_diameter.hex()) == solve


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else SAMPLES
    print(f"worst error in ulps over {n} vectors per cell")
    print("kind".ljust(12) + "".join(f"p={p} 1e±{e}".rjust(14) for p in ARITIES for e in DECADES))
    table = {(p, e): worst_ulps(p, e, n) for p in ARITIES for e in DECADES}
    for t in KINDS:
        print(_name(t).ljust(12) + "".join(f"{table[p, e][t]:14.2f}"
                                           for p in ARITIES for e in DECADES))
