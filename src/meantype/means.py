"""Catalog of means on an interval.

A mean is a function M: I^p -> I with the internality property

    min(v) <= M(v) <= max(v)        for every v in I^p,

which forces M(c, ..., c) = c.  This module supplies the concrete
building blocks used everywhere else: the interval domain, a declarative
description of a single mean (:class:`MeanSpec`), evaluation, a textual
form for config files and the CLI, and the seeded sampler behind every
probe.  What the package knows of each kind of mean is one row of
``_CATALOG``: its kernel, its closed form at p = 2 (which a p = 2
mapping steps through), and whether it requires positive coordinates.

All evaluation is pure and stateless; everything here may be called
concurrently without synchronization.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator, Sequence

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
#: ``[log(x) for x in v]``, shared by the log-space kernels of one step.
Logs = list[float] | None

#: Exponents closer to zero than this evaluate through the geometric-mean
#: formula (the analytic limit of the power mean), avoiding cancellation.
POWER_ZERO_CUTOFF = 1e-8

_WEIGHT_SUM_TOL = 1e-12

#: Where :meth:`Interval.sampling_box` cuts an infinite endpoint.
SAMPLING_EXTENT = 100.0


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------

class Interval(FrozenRecord):
    """A nondegenerate subinterval of the reals, endpoints possibly infinite.

    ``lower_closed`` / ``upper_closed`` control whether the finite
    endpoints belong to the interval.  Infinite endpoints are always open.
    """

    __slots__ = _fields = ("lower", "upper", "lower_closed", "upper_closed")

    def __init__(self, lower: float = -math.inf, upper: float = math.inf,
                 lower_closed: bool = False, upper_closed: bool = False):
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

    def contains(self, x: float) -> bool:
        """Membership test consistent with the closedness flags."""
        if math.isnan(x) or math.isinf(x):
            return False
        if x < self.lower or (x == self.lower and not self.lower_closed):
            return False
        if x > self.upper or (x == self.upper and not self.upper_closed):
            return False
        return True

    def sampling_box(self) -> tuple[float, float]:
        """A compact [a, b] strictly inside the interval, for random probes.

        Infinite endpoints are cut at ``SAMPLING_EXTENT``; open finite
        endpoints are inset by a small fraction of the resulting span so
        that sampled points genuinely belong to the interval.  The box is
        then clamped to the interval's floats (:func:`admissible`), for an
        inset lost to rounding: an interval holding one float gives a point,
        one holding none a box with ``a > b``.
        """
        lo = -SAMPLING_EXTENT if math.isinf(self.lower) else self.lower
        hi = SAMPLING_EXTENT if math.isinf(self.upper) else self.upper
        if hi <= lo:  # finite endpoint e beyond the cut: ``width`` wide, |e| if e absorbs that
            top, width = math.nextafter(math.inf, 0.0), 2.0 * SAMPLING_EXTENT
            if math.isinf(self.upper):
                hi = lo + width if lo + width > lo else min(2.0 * lo, top)
            else:
                lo = hi - width if hi - width < hi else max(2.0 * hi, -top)
        span = hi - lo
        inset = 1e-4 * span
        if not self.lower_closed or math.isinf(self.lower):
            lo += inset
        if not self.upper_closed or math.isinf(self.upper):
            hi -= inset
        a, b = admissible(self, False)
        return max(lo, a), min(hi, b)

    def __str__(self) -> str:
        left = "[" if self.lower_closed else "("
        right = "]" if self.upper_closed else ")"
        return f"{left}{self.lower!r}, {self.upper!r}{right}"


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

#: The positive half-line, natural domain of geometric-type means.
POSITIVE_REALS = Interval(0.0, math.inf)


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
    for _ in range(count - len(lead)):
        if span < math.inf:
            yield tuple([lo + span * rnd() for _ in range(p)])  # rng.uniform(lo, hi), written out
        else:  # hi - lo overflows, so lo < 0 < hi, and this convex combination cannot
            yield tuple([lo * (1.0 - r) + hi * r for r in [rnd() for _ in range(p)]])


def _stress_vectors(lo: float, hi: float, p: int) -> list[Vector]:
    mid = midpoint((lo, hi))
    wiggle = 1e-6 * (hi - lo)
    if wiggle == math.inf:  # hi - lo overflows
        wiggle = 1e-6 * hi - 1e-6 * lo
    near_constant = tuple(mid + (wiggle if i % 2 else 0.0) for i in range(p))
    one_outlier = tuple(hi if i == p - 1 else lo for i in range(p))
    alternating = tuple(hi if i % 2 else lo for i in range(p))
    return [near_constant, one_outlier, alternating]


# ---------------------------------------------------------------------------
# MeanSpec
# ---------------------------------------------------------------------------

KINDS = (
    "arithmetic",
    "geometric",
    "harmonic",
    "power",
    "quasi_arithmetic",
    "median",
    "min",
    "max",
    "projection",
    "weighted_arithmetic",
)

#: Generators g of the quasi-arithmetic means g^{-1}(average of g(x_i)).  The
#: ``power`` generator x^q takes its exponent q in :attr:`MeanSpec.exponent`.
GENERATORS = ("identity", "log", "exp", "power")


class MeanSpec(FrozenRecord):
    """Declarative description of a single mean of arity ``arity``.

    ``exponent`` belongs to ``power`` and to the ``power`` generator,
    ``generator`` (one of :data:`GENERATORS`) to ``quasi_arithmetic``,
    ``index`` to ``projection`` and ``weights`` to ``weighted_arithmetic``;
    a field the kind does not take is rejected.  ``__init__`` is the one
    place a spec is checked: the classmethod constructors
    (``MeanSpec.arithmetic(3)``, ``MeanSpec.power(0.5, 2)``, ...) and
    :func:`parse_mean` forward to it.
    """

    __slots__ = _fields = ("kind", "arity", "exponent", "generator", "index", "weights")

    def __init__(self, kind: str, arity: int, exponent: float | None = None,
                 generator: str | None = None, index: int | None = None,
                 weights: Sequence[float] | None = None):
        if kind not in KINDS:
            raise InvalidMeanSpec(f"unknown mean kind {kind!r}; available: {KINDS}")
        if not isinstance(arity, int) or arity < 1:
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
        return _row(self)[2]

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
    result satisfies internality up to rounding.
    """
    kernel, _, positive = _row(spec)
    return _eval(spec, v, domain, kernel, positive, admissible(domain, positive))


def _eval(spec: MeanSpec, v: Sequence[float], domain: Interval, kernel: Callable[..., float],
          positive: bool, bounds: tuple[float, float]) -> float:
    v = check_vector(v, (spec,), domain, 0 if positive else None, bounds)
    # Constant vectors are exact fixed points of every mean; returning the
    # coordinate directly keeps reflexivity free of rounding.
    if v.count(v[0]) == len(v):
        return v[0]
    return kernel(spec, v)


def admissible(domain: Interval, positive: bool) -> tuple[float, float]:
    """``(a, b)`` with ``a <= x <= b`` exactly for the floats x in ``domain``,
    and > 0 if ``positive``: an open end moves to its neighbouring float.
    NaN fails both comparisons; with no such float, ``a > b``."""
    a = domain.lower if domain.lower_closed else math.nextafter(domain.lower, math.inf)
    b = domain.upper if domain.upper_closed else math.nextafter(domain.upper, -math.inf)
    return (max(a, 5e-324) if positive else a), b


def float_vector(v: Sequence[float]) -> Vector:
    """``v`` as a float tuple.  A coordinate that ``float`` overflows on (an
    int beyond the float range) raises :class:`NonFiniteInput` naming it."""
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
                 positive: int | None, bounds: tuple[float, float]) -> Vector:
    """``v`` as a float tuple, checked once as an input of every mean in ``specs``.

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
    means no coordinate is NaN, and ``a <= min(v)`` and ``max(v) <= b`` put
    every coordinate in ``bounds``, which holds no infinity.  A finite sum
    that overflows to +-inf therefore passes.  Any miss falls through to
    the coordinate-by-coordinate scan, which names the failure.
    """
    spec = specs[0]
    a, b = bounds
    try:
        v = tuple(map(float, v))
        if len(v) == spec.arity and (s := sum(v)) == s and a <= min(v) and max(v) <= b:
            return v
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
    return v


def _arithmetic(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    try:
        return math.fsum(v) / len(v)
    except OverflowError:  # the sum leaves the float range; the mean does not
        n = len(v)
        return math.fsum(x / n for x in v)


def _pair_arithmetic(x: float, y: float) -> float:
    s = x + y  # fsum of two floats is their rounded sum; on overflow it sums the halves
    return s / 2 if -math.inf < s < math.inf else x / 2 + y / 2


def _geometric(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    return math.exp(math.fsum(map(math.log, v) if logs is None else logs) / len(v))


def _pair_geometric(x: float, y: float) -> float:
    return math.exp((math.log(x) + math.log(y)) / 2)


def _harmonic(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    try:
        total = math.fsum(1.0 / x for x in v)
    except OverflowError:  # finite reciprocals whose sum leaves the float range
        total = math.inf
    h = len(v) / total
    if h == 0.0 or h == math.inf:
        # Some reciprocal or their sum overflowed (h = 0), or all of them are
        # subnormal (h = inf).  Scale by min(v) or max(v) respectively, so
        # every m / x stays finite and m * (n / sum) cannot overflow.
        m = min(v) if h == 0.0 else max(v)
        return m * (len(v) / math.fsum(m / x for x in v))
    return h


def _pair_harmonic(x: float, y: float) -> float:
    h = 2 / (1 / x + 1 / y)
    return _harmonic(None, (x, y)) if h == 0.0 or h == math.inf else h  # rescued there


def _power_mean(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    t = spec.exponent  # power:t, or quasi:power:t, which is the same mean
    if abs(t) < POWER_ZERO_CUTOFF:
        return _geometric(spec, v, logs)
    logs = [*map(math.log, v)] if logs is None else logs
    # Work in log space so large |t| cannot overflow: the mean of x^t is
    # exp(t*L_max) * mean(exp(t*(L_i - L_max))).
    scaled = [t * l for l in logs]
    top = max(scaled)
    if math.isinf(top):
        # t*log(x) overflowed: scale by the extreme coordinate r instead
        # (max for t > 0, min for t < 0), so that t*(log(x) - log(r)) <= 0.
        r = max(v) if t > 0 else min(v)
        log_r = math.log(r)
        acc = math.fsum(math.exp(t * (l - log_r)) for l in logs) / len(v)
        return r * math.exp(math.log(acc) / t)
    acc = math.fsum(math.exp(l - top) for l in scaled) / len(v)
    return math.exp((top + math.log(acc)) / t)


def midpoint(v: Vector) -> float:
    """0.5 * (max(v) + min(v)), also where that sum overflows."""
    mid = 0.5 * (max(v) + min(v))
    if math.isinf(mid):  # max + min overflowed; their halves cannot
        mid = 0.5 * max(v) + 0.5 * min(v)
    return mid


def _median(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    s = sorted(v)
    i = len(s) // 2
    return s[i] if len(s) % 2 else midpoint(s[i - 1:i + 1])


def _log_mean_exp(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    # log of the average of exp(x_i), stabilized against overflow.
    top = max(v)
    return top + math.log(math.fsum(math.exp(x - top) for x in v) / len(v))


def _minimum(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    return min(v)


def _maximum(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    return max(v)


def _weighted(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    return math.fsum(w * x for w, x in zip(spec.weights, v))


def _projection(spec: MeanSpec, v: Vector, logs: Logs = None) -> float:
    return v[spec.index - 1]


#: The catalog: one row per mean kind, and per generator under
#: ``quasi:<generator>``, where a quasi-arithmetic mean runs the kernel of the
#: mean it equals.  A row is ``(kernel(spec, v, logs), f(x, y), positive)``:
#: ``f`` is the kernel's closed form at p = 2, with its bits, or None (a p = 2
#: median is the midpoint, which is the arithmetic mean), and ``positive``
#: says whether the mean requires strictly positive coordinates.  A mapping's
#: step gathers its projections itself.  Only the log-space kernels read
#: ``logs``; the others take it so that a step can call all kernels alike.
#: A mapping pickles by rebuilding through its ``__init__``, so what is
#: bound here never needs to pickle.
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
    "weighted_arithmetic": (_weighted, None, False),
    "projection": (_projection, None, False),
}
_LOG_KERNELS = {_geometric, _power_mean}  # the kernels that work on log(x)


def _row(spec: MeanSpec) -> tuple:
    """``spec``'s row of :data:`_CATALOG`; callers look it up once, up front."""
    return _CATALOG[spec.kind if spec.generator is None else "quasi:" + spec.generator]


def _kernel(spec: MeanSpec) -> Callable[..., float]:
    """``kernel(spec, v, logs=None)`` for ``spec``."""
    return _row(spec)[0]


def mean_callable(spec: MeanSpec, domain: Interval = REALS) -> Callable[[Sequence[float]], float]:
    """Bind a spec and domain into a plain ``f(v) -> float``; the kernel is bound once."""
    kernel, _, positive = _row(spec)
    bounds = admissible(domain, positive)

    def fn(v: Sequence[float]) -> float:
        return _eval(spec, v, domain, kernel, positive, bounds)

    fn.__name__ = f"mean_{spec.canonical()}"
    return fn
