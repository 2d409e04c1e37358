"""Catalog of means on an interval.

A mean is a function M: I^p -> I with the internality property

    min(v) <= M(v) <= max(v)        for every v in I^p,

which forces M(c, ..., c) = c.  This module supplies the concrete
building blocks used everywhere else: the interval domain, a declarative
description of a single mean (:class:`MeanSpec`), evaluation, a textual
form for config files and the CLI, and the seeded sampler behind every
probe.  What the package knows of each kind of mean is one row of
``_CATALOG``: the binder of its kernel, its closed form at p = 2 (which
a p = 2 mapping steps through), and whether it requires positive
coordinates.  Every kernel and closed form is internal in float as well:
where rounding could carry a value past min(v) or max(v), it returns that
end instead.

All evaluation is pure and stateless; everything here may be called
concurrently without synchronization.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator, Sequence
from math import inf, sqrt

from ._record import FrozenRecord, set_field
from .errors import (
    ArityMismatch,
    DomainViolation,
    InvalidInterval,
    InvalidMeanSpec,
    MeanTypeError,
    NonFiniteInput,
    ParseError,
)

Vector = tuple[float, ...]
#: A mean bound to its spec, as ``kernel(v, s)`` with ``s = sorted(v)``.
Kernel = Callable[[Vector, list[float]], float]

#: Exponents closer to zero than this evaluate through the geometric-mean
#: formula (the analytic limit of the power mean), avoiding cancellation.
POWER_ZERO_CUTOFF = 1e-8
#: From this |t| up, ``power:t`` sums ``x**t`` directly where that is safe
#: (:func:`_power_mean`); closer to zero, ``acc**(1/t)`` magnifies rounding.
_DIRECT_POWER_CUTOFF = 0.1

_WEIGHT_SUM_TOL = 1e-12

#: Where :meth:`Interval.sampling_box` cuts an infinite endpoint.
SAMPLING_EXTENT = 100.0


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------

def admissible(domain: Interval, positive: bool) -> tuple[float, float]:
    """``(a, b)`` with ``a <= x <= b`` exactly for the floats x in ``domain``,
    and > 0 if ``positive``: an open end moves to its neighbouring float.
    NaN fails both comparisons; with no such float, ``a > b``."""
    a = domain.lower if domain.lower_closed else math.nextafter(domain.lower, math.inf)
    b = domain.upper if domain.upper_closed else math.nextafter(domain.upper, -math.inf)
    return (max(a, 5e-324) if positive else a), b


class Interval(FrozenRecord):
    """A nondegenerate subinterval of the reals, endpoints possibly infinite.

    ``lower_closed`` / ``upper_closed`` control whether the finite
    endpoints belong to the interval.  Infinite endpoints are always open.
    The endpoints are stored as floats.
    """

    # _admissible: (admissible(self, False), admissible(self, True)), bound
    # once, so that no evaluation runs nextafter; not compared or shown.
    __slots__ = ("lower", "upper", "lower_closed", "upper_closed", "_admissible")
    _fields = ("lower", "upper", "lower_closed", "upper_closed")

    def __init__(self, lower: float = -math.inf, upper: float = math.inf,
                 lower_closed: bool = False, upper_closed: bool = False):
        lower, upper = _endpoint("lower", lower), _endpoint("upper", upper)
        if math.isnan(lower) or math.isnan(upper):
            raise InvalidInterval("interval endpoints must not be NaN")
        if not lower < upper:
            raise InvalidInterval(
                f"interval endpoints must satisfy lower < upper, got [{lower}, {upper}]"
            )
        if math.isinf(lower) and lower_closed:
            raise InvalidInterval("-inf endpoint cannot be closed")
        if math.isinf(upper) and upper_closed:
            raise InvalidInterval("+inf endpoint cannot be closed")
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)
        set_field(self, "lower_closed", lower_closed)
        set_field(self, "upper_closed", upper_closed)
        set_field(self, "_admissible", (admissible(self, False), admissible(self, True)))

    def contains(self, x: float) -> bool:
        """Membership: ``a <= x <= b`` for the bounds of :func:`admissible`;
        False for what does not compare with a float."""
        a, b = self._admissible[0]
        try:
            return a <= x <= b
        except TypeError:
            return False

    def sampling_box(self) -> tuple[float, float]:
        """A compact [a, b] strictly inside the interval, for random probes.

        Infinite endpoints are cut at ``SAMPLING_EXTENT``; open ends, the
        cut ones included, are inset by 1e-4 of the resulting width so that
        sampled points genuinely belong to the interval.  Where that width
        overflows (an interval wider than the float range, such as
        ``(-1e308, 1e308)``), the inset is ``1e-4 * hi - 1e-4 * lo``
        (:func:`_width_fraction`).  The box is then clamped to the
        interval's floats (:func:`admissible`), for an inset lost to
        rounding: an interval holding one float gives a point, one holding
        none a box with ``a > b``.
        """
        lo = -SAMPLING_EXTENT if math.isinf(self.lower) else self.lower
        hi = SAMPLING_EXTENT if math.isinf(self.upper) else self.upper
        if hi <= lo:  # finite endpoint e beyond the cut: ``width`` wide, |e| if e absorbs that
            top, width = math.nextafter(math.inf, 0.0), 2.0 * SAMPLING_EXTENT
            if math.isinf(self.upper):
                hi = lo + width if lo + width > lo else min(2.0 * lo, top)
            else:
                lo = hi - width if hi - width < hi else max(2.0 * hi, -top)
        inset = _width_fraction(1e-4, lo, hi)
        if not self.lower_closed:  # an infinite endpoint is never closed
            lo += inset
        if not self.upper_closed:
            hi -= inset
        a, b = self._admissible[0]
        return max(lo, a), min(hi, b)

    def __str__(self) -> str:
        left = "[" if self.lower_closed else "("
        right = "]" if self.upper_closed else ")"
        return f"{left}{self.lower!r}, {self.upper!r}{right}"


def _endpoint(name: str, x: object) -> float:
    """``x`` as a float.  A bool, a string, what ``float`` cannot convert and
    an int beyond the float range raise :class:`InvalidInterval`."""
    try:
        if not isinstance(x, (bool, str, bytes, bytearray)):
            return float(x)
    except OverflowError:  # repr of such an int may itself exceed the digit limit
        raise InvalidInterval(f"interval {name} endpoint is beyond the float range") from None
    except (TypeError, ValueError):
        pass
    raise InvalidInterval(f"interval {name} endpoint must be a real number, got {x!r}")


def parse_interval(text: str) -> Interval:
    """Parse ``(0, inf)`` / ``[1, 10]`` / ``[0.5, 100)`` bracket notation."""
    s = text.strip()
    if len(s) < 2 or s[0] not in "([" or s[-1] not in ")]":
        raise ParseError(f"interval {text!r} must be bracketed, e.g. (0, inf)", token=s)
    lower_closed = s[0] == "["
    upper_closed = s[-1] == "]"
    parts = s[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"interval {text!r} must have two endpoints", token=s)
    lo = _parse_endpoint(parts[0])
    hi = _parse_endpoint(parts[1])
    try:
        return Interval(lo, hi, lower_closed, upper_closed)
    except InvalidInterval as exc:
        raise ParseError(f"interval {text!r}: {exc}", token=s) from exc


def _parse_endpoint(token: str) -> float:
    try:  # float() reads inf, -inf, infinity, ... in any case
        return float(token)
    except ValueError:
        raise ParseError(f"bad interval endpoint {token.strip()!r}", token=token.strip()) from None


#: The whole real line; default domain when none is given.
REALS = Interval()


def sample_vectors(domain: Interval, p: int, count: int, seed: int = 42) -> Iterator[Vector]:
    """Yield ``count`` vectors in domain^p: stress vectors, then uniform.

    The three stress vectors are deterministic functions of the domain
    (contractivity failures tend to live at structured vectors):
    near-constant, one-outlier, and alternating extremes.  The remainder
    is coordinate-wise uniform on the domain's sampling box, deterministic
    for a fixed seed.  A domain whose sampling box is one point or empty
    (it holds one float or none, say) has no nonconstant vector to give:
    the first draw raises :class:`DomainViolation`.
    """
    lo, hi = domain.sampling_box()
    if not lo < hi:
        box = f"the single point {lo!r}" if lo == hi else "empty"
        raise DomainViolation(
            f"cannot draw {count} nonconstant samples from domain {domain}: "
            f"its sampling box is {box}")
    lead = _stress_vectors(lo, hi, p)[:max(count, 0)]
    yield from lead
    rnd, span = random.Random(seed).random, hi - lo
    rest = range(count - len(lead))
    if span == math.inf:  # hi - lo overflows, so lo < 0 < hi, and this convex combination cannot
        for _ in rest:
            yield tuple([lo * (1.0 - r) + hi * r for r in [rnd() for _ in range(p)]])
    elif p == 2:  # the generic draw below, unrolled: the same draws in the same order
        for _ in rest:
            yield lo + span * rnd(), lo + span * rnd()
    else:
        for _ in rest:
            yield tuple([lo + span * rnd() for _ in range(p)])  # rng.uniform(lo, hi), written out


def _stress_vectors(lo: float, hi: float, p: int) -> list[Vector]:
    mid, wiggle = midpoint((lo, hi)), _width_fraction(1e-6, lo, hi)
    near_constant = tuple(mid + (wiggle if i % 2 else 0.0) for i in range(p))
    one_outlier = tuple(hi if i == p - 1 else lo for i in range(p))
    alternating = tuple(hi if i % 2 else lo for i in range(p))
    return [near_constant, one_outlier, alternating]


def _width_fraction(c: float, lo: float, hi: float) -> float:
    """The fraction ``0 < c < 1`` of the width of the box ``lo < hi``:
    ``c * (hi - lo)``, or ``c * hi - c * lo`` where ``hi - lo`` overflows."""
    w = c * (hi - lo)
    return w if w < math.inf else c * hi - c * lo


# ---------------------------------------------------------------------------
# MeanSpec
# ---------------------------------------------------------------------------

class MeanSpec(FrozenRecord):
    """Declarative description of a single mean of arity ``arity``.

    ``exponent`` belongs to ``power`` and to the ``power`` generator,
    ``generator`` (one of :data:`GENERATORS`) to ``quasi_arithmetic``,
    ``index`` to ``projection`` and ``weights`` to ``weighted_arithmetic``;
    a field the kind does not take is rejected.  ``__init__`` is the one
    place a spec is checked: the classmethod constructors
    (``MeanSpec.arithmetic(3)``, ``MeanSpec.power(0.5, 2)``, ...) and
    :func:`parse_mean` forward to it.  It also binds the mean once, through
    its catalog row's binder, as ``kernel(v, s)``: ``v`` a checked vector
    and ``s = sorted(v)``, which the caller has made (:func:`check_vector`,
    or the Gauss loop, which sorts each iterate once).
    """

    # _row: the spec's row of _CATALOG, looked up once; _kernel: the mean as
    # kernel(v, s), bound once by the row's binder; neither compared or shown.
    __slots__ = ("kind", "arity", "exponent", "generator", "index", "weights", "_row", "_kernel")
    _fields = ("kind", "arity", "exponent", "generator", "index", "weights")

    def __init__(self, kind: str, arity: int, exponent: float | None = None,
                 generator: str | None = None, index: int | None = None,
                 weights: Sequence[float] | None = None):
        if kind not in KINDS:
            raise InvalidMeanSpec(f"unknown mean kind {kind!r}; available: {KINDS}")
        if type(arity) is not int or arity < 1:  # a bool would print True
            raise InvalidMeanSpec(f"arity must be a positive integer, got {arity!r}")
        takes = ()  # the fields beyond kind and arity that the kind takes
        if kind == "power":
            takes, exponent = ("exponent",), _finite(exponent)
            if exponent is None:
                raise InvalidMeanSpec("power mean requires a finite exponent")
        elif kind == "quasi_arithmetic":
            takes = ("exponent", "generator")
            if generator is None:
                raise InvalidMeanSpec("quasi-arithmetic mean requires a generator")
            if generator not in GENERATORS:
                raise InvalidMeanSpec(
                    f"unknown generator {generator!r}; available: {sorted(GENERATORS)}")
            if generator == "power":
                if exponent is None:
                    raise InvalidMeanSpec("power generator requires an exponent, e.g. power:2")
                if not (q := _finite(exponent)):  # None or zero
                    raise InvalidMeanSpec(
                        f"power generator exponent must be finite and nonzero, got {exponent}")
                exponent = q
            elif exponent is not None:
                raise InvalidMeanSpec(f"generator {generator!r} takes no parameter")
        elif kind == "projection":
            takes = ("index",)
            if type(index) is not int or not 1 <= index <= arity:  # a bool would print True
                raise InvalidMeanSpec(f"projection index must lie in 1..{arity}, got {index!r}")
        elif kind == "weighted_arithmetic":
            takes = ("weights",)
            try:
                w = tuple(map(float, weights))
            except (TypeError, ValueError, OverflowError):
                w = None
            if w is None or len(w) != arity:
                raise InvalidMeanSpec(
                    f"weighted_arithmetic requires {arity} weights, got {weights!r}")
            if any(wi < 0 or not math.isfinite(wi) for wi in w):
                raise InvalidMeanSpec(f"weights must be finite and nonnegative, got {w!r}")
            if abs(math.fsum(w) - 1.0) > _WEIGHT_SUM_TOL:
                raise InvalidMeanSpec(f"weights must sum to 1, got sum {math.fsum(w)!r}")
            weights = w
        for name, value in zip(self._fields[2:], (exponent, generator, index, weights)):
            if value is not None and name not in takes:
                raise InvalidMeanSpec(f"mean {kind!r} takes no {name}, got {value!r}")
        set_field(self, "kind", kind)
        set_field(self, "arity", arity)
        set_field(self, "exponent", exponent)
        set_field(self, "generator", generator)
        set_field(self, "index", index)
        set_field(self, "weights", weights)
        row = _CATALOG[kind if generator is None else "quasi:" + generator]
        set_field(self, "_row", row)
        set_field(self, "_kernel", row[0](self))

    # -- constructors -------------------------------------------------------

    @classmethod
    def arithmetic(cls, arity: int) -> MeanSpec:
        return cls("arithmetic", arity)

    @classmethod
    def geometric(cls, arity: int) -> MeanSpec:
        return cls("geometric", arity)

    @classmethod
    def harmonic(cls, arity: int) -> MeanSpec:
        return cls("harmonic", arity)

    @classmethod
    def power(cls, exponent: float, arity: int) -> MeanSpec:
        return cls("power", arity, exponent)

    @classmethod
    def quasi_arithmetic(cls, generator: str, arity: int,
                         exponent: float | None = None) -> MeanSpec:
        return cls("quasi_arithmetic", arity, exponent, generator)

    @classmethod
    def median(cls, arity: int) -> MeanSpec:
        return cls("median", arity)

    @classmethod
    def minimum(cls, arity: int) -> MeanSpec:
        return cls("min", arity)

    @classmethod
    def maximum(cls, arity: int) -> MeanSpec:
        return cls("max", arity)

    @classmethod
    def projection(cls, index: int, arity: int) -> MeanSpec:
        return cls("projection", arity, index=index)

    @classmethod
    def weighted_arithmetic(cls, weights: Sequence[float], arity: int | None = None) -> MeanSpec:
        return cls("weighted_arithmetic", len(weights) if arity is None else arity,
                   weights=weights)

    # -- properties ---------------------------------------------------------

    @property
    def requires_positive(self) -> bool:
        """True when the mean's natural domain is the strictly positive reals."""
        return self._row[2]

    def canonical(self) -> str:
        """Canonical textual form, parseable by :func:`parse_mean`."""
        if self.kind == "power":
            return f"power:{self.exponent!r}"
        if self.kind == "quasi_arithmetic":
            q = "" if self.exponent is None else f":{self.exponent!r}"
            return f"quasi:{self.generator}{q}"
        if self.kind == "projection":
            return f"projection:{self.index}"
        if self.kind == "weighted_arithmetic":
            return "weighted:" + ",".join(repr(w) for w in self.weights)
        return self.kind

    def __str__(self) -> str:
        return self.canonical()


def parse_mean(text: str, arity: int) -> MeanSpec:
    """Parse the canonical textual form of a mean.

    Accepted forms (case-insensitive): ``arithmetic``, ``geometric``,
    ``harmonic``, ``median``, ``min``, ``max``, ``power:<exponent>``,
    ``projection:<index>``, ``quasi:<generator>`` (generators ``identity``,
    ``log``, ``exp``, ``power:<q>``), ``weighted:<w1>,...,<wp>``.
    """
    token = text.strip().lower()
    if not token:
        raise ParseError("empty mean specification", token=text)
    head, _, rest = token.partition(":")
    try:
        if head in ("arithmetic", "geometric", "harmonic", "median", "min", "max"):
            if rest:
                raise ParseError(f"mean {head!r} takes no parameter: {text.strip()!r}", token=rest)
            return MeanSpec(head, arity)
        if head == "power":
            return MeanSpec.power(_parse_number(rest, text), arity)
        if head == "projection":
            try:
                index = int(rest)
            except ValueError:
                raise ParseError(f"bad projection index {rest!r}", token=rest) from None
            return MeanSpec.projection(index, arity)
        if head == "quasi":
            name, _, q = rest.partition(":")
            exponent = _parse_number(q, text) if q else None
            return MeanSpec.quasi_arithmetic(name.strip(), arity, exponent)
        if head == "weighted":
            if not rest:
                raise ParseError(f"weighted mean needs weights: {text.strip()!r}", token=token)
            weights = [_parse_number(w, text) for w in rest.split(",")]
            return MeanSpec.weighted_arithmetic(weights, arity)
    except InvalidMeanSpec as exc:
        raise ParseError(f"bad mean {text.strip()!r}: {exc}", token=token) from exc
    raise ParseError(f"unknown mean {head!r} in {text.strip()!r}", token=head)


def _parse_number(token: str, context: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"bad numeric token {token!r} in mean {context.strip()!r}", token=token
        ) from None


def _finite(x: object) -> float | None:
    """``float(x)`` where that is finite, else None."""
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_mean(spec: MeanSpec, v: Sequence[float], domain: Interval = REALS) -> float:
    """Evaluate the mean described by ``spec`` at the vector ``v``.

    Raises :class:`ArityMismatch`, :class:`NonFiniteInput`, or
    :class:`DomainViolation` when the vector is unusable; otherwise the
    result satisfies internality exactly: min(v) <= result <= max(v).
    """
    positive = spec._row[2]
    v, s = check_vector(v, (spec,), domain, 0 if positive else None, domain._admissible[positive])
    # Constant vectors are exact fixed points of every mean; returning the
    # coordinate directly keeps reflexivity free of rounding.
    if s[0] == s[-1]:
        return v[0]
    return spec._kernel(v, s)


def float_vector(v: Sequence[float]) -> Vector:
    """``v`` as a float tuple, read once (a tuple is its own ``tuple(v)``).  A
    coordinate that ``float`` overflows on (an int beyond the float range)
    raises :class:`NonFiniteInput` naming it."""
    v = tuple(v)
    try:
        return tuple(map(float, v))
    except OverflowError:
        for i, x in enumerate(v):
            try:
                float(x)
            except OverflowError:
                raise NonFiniteInput(f"coordinate {i + 1} is beyond the float range") from None
        raise


def check_vector(v: Sequence[float], specs: Sequence[MeanSpec], domain: Interval,
                 positive: int | None, bounds: tuple[float, float]) -> tuple[Vector, list[float]]:
    """``(v, s)``: ``v`` as a float tuple, checked once as an input of every
    mean in ``specs``, and ``s = sorted(v)``, which every kernel takes.

    The means share one arity.  ``positive`` is the 0-based position in
    ``specs`` of the first mean that requires strictly positive
    coordinates, or None, and ``bounds`` is ``admissible(domain, positive
    is not None)``.  The checks run in this order: conversion to float
    (:func:`float_vector`), the arity, then finiteness and membership of
    ``domain`` coordinate by coordinate, then strict positivity for
    ``specs[positive]``.  The first failure raises
    :class:`ArityMismatch`, :class:`NonFiniteInput` or
    :class:`DomainViolation`; its ``component`` attribute is the 1-based
    position in ``specs`` of the mean that rejects ``v``.

    A valid vector passes in a few C-level passes: a sum that is not NaN
    means no coordinate is NaN, and ``a <= s[0]`` and ``s[-1] <= b`` put
    every coordinate in ``bounds``, which holds no infinity.  A finite sum
    that overflows to +-inf therefore passes.  A pair of exact floats
    passes on ``a <= x <= b and a <= y <= b`` alone and is sorted by one
    comparison.  Any miss, and so every failing input, falls through to the
    coordinate-by-coordinate scan, which names the failure.
    """
    spec, (a, b), v = specs[0], bounds, tuple(v)  # read once, for the passes below
    if len(v) == 2 == spec.arity:
        x, y = v
        if type(x) is float and type(y) is float and a <= x <= b and a <= y <= b:
            return v, [x, y] if x <= y else [y, x]  # as sorted: equal zeros keep their order
    try:
        v = tuple(map(float, v))
        if len(v) == spec.arity and (t := sum(v)) == t and a <= (s := sorted(v))[0] and s[-1] <= b:
            return v, s
    except OverflowError:  # an int beyond the float range, named below
        pass
    k = 1
    try:
        v = float_vector(v)
        if len(v) != spec.arity:
            raise ArityMismatch(
                f"mean {spec} has arity {spec.arity}, got vector of length {len(v)}"
            )
        for i, x in enumerate(v):
            if not math.isfinite(x):
                raise NonFiniteInput(f"coordinate {i + 1} is {x!r}")
            if not domain.contains(x):
                raise DomainViolation(f"coordinate {i + 1} = {x!r} outside domain {domain}")
        if positive is not None:
            k, spec = positive + 1, specs[positive]
            for i, x in enumerate(v):
                if x <= 0.0:
                    raise DomainViolation(
                        f"mean {spec} requires strictly positive coordinates; "
                        f"coordinate {i + 1} = {x!r}"
                    )
    except MeanTypeError as exc:
        exc.component = k
        raise
    return v, sorted(v)


def _spec_free(kernel: Kernel) -> Callable[[MeanSpec], Kernel]:
    """The binder of a kernel that reads nothing of its spec: every spec gets
    ``kernel`` itself.  One binder per kernel, so the rows that name it share
    it, and with it a step's call (``mapping._bind_step``)."""
    return lambda spec: kernel


@_spec_free
def _arithmetic(v: Vector, s: list[float]) -> float:
    try:
        r = math.fsum(v) / len(v)  # rounds twice, which can leave [s[0], s[-1]]
    except OverflowError:  # the sum leaves the float range; the mean does not
        n = len(v)
        r = math.fsum(x / n for x in v)
    return s[0] if r < s[0] else s[-1] if r > s[-1] else r


def _pair_arithmetic(x: float, y: float) -> float:
    s = x + y  # fsum of two floats is their rounded sum; on overflow it sums the halves
    return s / 2 if -inf < s < inf else x / 2 + y / 2


@_spec_free
def _geometric(v: Vector, s: list[float]) -> float:
    if len(v) == 2:
        return _pair_geometric(*v)
    r = math.exp(math.fsum(map(math.log, v)) / len(v))
    return s[0] if r < s[0] else s[-1] if r > s[-1] else r


def _pair_geometric(x: float, y: float) -> float:
    p = x * y  # rounded once where normal; sqrt(x * x) is x, so this stays in [min, max]
    return sqrt(p) if 2.0 ** -1022 <= p < inf else sqrt(x) * sqrt(y)


@_spec_free
def _harmonic(v: Vector, s: list[float]) -> float:
    try:
        total = math.fsum([1.0 / x for x in v])
    except OverflowError:  # finite reciprocals whose sum leaves the float range
        total = inf
    h = len(v) / total
    if h == 0.0 or h == inf:
        # Some reciprocal or their sum overflowed (h = 0), or all of them are
        # subnormal (h = inf).  Scale by min(v) or max(v) respectively, so
        # every m / x stays finite and m * (n / sum) cannot overflow.
        m = s[0] if h == 0.0 else s[-1]
        h = m * (len(v) / math.fsum([m / x for x in v]))
    return s[0] if h < s[0] else s[-1] if h > s[-1] else h


def _pair_harmonic(x: float, y: float) -> float:
    h = 2 / (1 / x + 1 / y)
    if x <= h <= y or y <= h <= x:
        return h
    if h == 0.0 or h == inf:
        return _harmonic(None)((x, y), [x, y] if x <= y else [y, x])  # rescued there
    return min(x, y) if h < x else max(x, y)  # rounded past an end of the pair


def _power_mean(spec: MeanSpec) -> Kernel:
    t = spec.exponent  # power:t, or quasi:power:t, which is the same mean
    if abs(t) < POWER_ZERO_CUTOFF:
        return _geometric(spec)
    inv = 1 / t

    def log_space(v, s):
        logs = [*map(math.log, v)]
        # Work in log space, where large |t| cannot overflow: the mean of
        # x^t is exp(t*L_max) * mean(exp(t*(L_i - L_max))).
        scaled = [t * l for l in logs]
        top = max(scaled)
        if math.isinf(top):
            # t*log(x) overflowed: scale by the extreme coordinate m instead
            # (max for t > 0, min for t < 0), so that t*(log(x) - log(m)) <= 0.
            m = s[-1] if t > 0 else s[0]
            log_m = math.log(m)
            acc = math.fsum(math.exp(t * (l - log_m)) for l in logs) / len(v)
            r = m * math.exp(math.log(acc) / t)
        else:
            acc = math.fsum(math.exp(l - top) for l in scaled) / len(v)
            r = math.exp((top + math.log(acc)) / t)
        return s[0] if r < s[0] else s[-1] if r > s[-1] else r

    if abs(t) < _DIRECT_POWER_CUTOFF:
        return log_space

    def direct(v, s):
        try:  # no x**t, sum or root overflows, and no underflowed x**t moves acc
            acc = math.fsum([x ** t for x in v]) / len(v)
            if acc >= 2.0 ** -969:
                r = sqrt(acc) if t == 2.0 else acc ** inv
                return s[0] if r < s[0] else s[-1] if r > s[-1] else r  # rounding may leave them
        except OverflowError:
            pass
        return log_space(v, s)
    return direct


def midpoint(v: Vector) -> float:
    """(max(v) + min(v)) / 2, also where that sum overflows."""
    return _pair_arithmetic(max(v), min(v))


@_spec_free
def _median(v: Vector, s: list[float]) -> float:
    i = len(s) // 2
    if len(s) % 2:
        return s[i]
    x, y = s[i - 1], s[i]
    return x if x == y else _pair_arithmetic(x, y)  # x == y: midpoint gives x, -0.0 kept


@_spec_free
def _log_mean_exp(v: Vector, s: list[float]) -> float:
    # log of the average of exp(x_i), stabilized against overflow.
    top = s[-1]
    r = top + math.log(math.fsum([math.exp(x - top) for x in v]) / len(v))
    return s[0] if r < s[0] else s[-1] if r > s[-1] else r


@_spec_free
def _minimum(v: Vector, s: list[float]) -> float:
    return min(v)


@_spec_free
def _maximum(v: Vector, s: list[float]) -> float:
    return max(v)  # not s[-1]: of equal zeros, max returns the first and s[-1] the last


def _weighted(spec: MeanSpec) -> Kernel:
    w = spec.weights

    def weighted(v, s):
        try:  # the weights may sum to 1 + _WEIGHT_SUM_TOL, and the mean past s[-1]
            r = math.fsum([a * x for a, x in zip(w, v)])
        except OverflowError:  # the sum leaves the float range; half of it does not
            r = 2.0 * math.fsum([a * (x / 2) for a, x in zip(w, v)])
        return s[0] if r < s[0] else s[-1] if r > s[-1] else r
    return weighted


def _projection(spec: MeanSpec) -> Kernel:
    i = spec.index - 1
    return lambda v, s: v[i]


#: The catalog: one row per mean kind, and per generator under
#: ``quasi:<generator>``, where a quasi-arithmetic mean runs the kernel of the
#: mean it equals.  A row is ``(binder, f(x, y), positive)``.  The binder
#: resolves once what the spec fixes (its exponent, the power path, its
#: weights) and returns the mean as ``kernel(v, s)``, where ``v`` is a
#: checked vector and ``s = sorted(v)``: every kernel whose value is not a
#: coordinate clamps it to ``[s[0], s[-1]]``, and the median reads ``s``,
#: so no kernel sorts.  ``f`` is the kernel's closed form at p = 2,
#: with its bits, or None (a p = 2 median is the midpoint, which is the
#: arithmetic mean), and ``positive`` says whether the mean requires
#: strictly positive coordinates.  A spec binds its row and its kernel when
#: built (``MeanSpec._row``, ``MeanSpec._kernel``); ``check_vector`` gives
#: ``eval_mean`` and ``apply`` their ``s``, and the Gauss loop passes on the
#: ``s`` it sorts to measure an iterate.  A p >= 3 mapping's step calls each
#: distinct kernel once, shared by the rows that name it with the same
#: binder, exponent and weights, and gathers its projections itself, in one
#: of two shapes: one kernel, or any other number (``mapping._bind_step``).
#: Specs and mappings pickle by rebuilding through their ``__init__``, so
#: what is bound here never needs to pickle.
_CATALOG: dict[str, tuple] = {
    "arithmetic": (_arithmetic, _pair_arithmetic, False),
    "geometric": (_geometric, _pair_geometric, True),
    "harmonic": (_harmonic, _pair_harmonic, True),
    "power": (_power_mean, None, True),
    "quasi:identity": (_arithmetic, _pair_arithmetic, False),
    "quasi:log": (_geometric, _pair_geometric, True),
    "quasi:exp": (_log_mean_exp, None, False),
    "quasi:power": (_power_mean, None, True),
    "median": (_median, _pair_arithmetic, False),
    "min": (_minimum, min, False),
    "max": (_maximum, max, False),
    "projection": (_projection, None, False),
    "weighted_arithmetic": (_weighted, None, False),
}

#: The mean kinds and the generators g of the quasi-arithmetic means
#: g^{-1}(average of g(x_i)), in catalog order, read off ``_CATALOG``'s keys:
#: a ``quasi:<generator>`` row is a generator of the kind ``quasi_arithmetic``.
#: The ``power`` generator x^q takes its exponent q in :attr:`MeanSpec.exponent`.
GENERATORS = tuple([key.removeprefix("quasi:") for key in _CATALOG if key.startswith("quasi:")])
KINDS = tuple(dict.fromkeys(["quasi_arithmetic" if key.startswith("quasi:") else key
                             for key in _CATALOG]))


def mean_callable(spec: MeanSpec, domain: Interval = REALS) -> Callable[[Sequence[float]], float]:
    """Bind a spec and domain into a plain ``f(v) -> float``: :func:`eval_mean` at them."""
    def fn(v: Sequence[float]) -> float:
        return eval_mean(spec, v, domain)

    fn.__name__ = f"mean_{spec.canonical()}"
    return fn
