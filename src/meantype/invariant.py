"""Gauss iteration to the invariant mean of a mean-type mapping.

For a continuous weakly contractive mapping M the iterates M^n(v)
converge pointwise to a constant vector (K(v), ..., K(v)), and K is the
unique continuous mean satisfying K o M = K.  This engine computes K(v)
by plain iteration, stopping when the diameter of the iterate falls
below a tolerance.  The limit of the exact orbit, when it exists, is
bracketed by each exact iterate, so the midpoint of the final one would
be off by at most half its diameter.  But every kernel rounds, and the
float orbit drifts off the exact one: that bound, and a value within
[min(v), max(v)], hold only up to kernel rounding, many ulps at large
magnitudes.

Convergence is a hypothesis, not a guarantee the engine can check:
mappings that never mix coordinates (pure projections) simply report
``max_iter_reached``.  No rate is assumed; the step count is reported as
observed.

Every run is one ``_solve``: the plain loop ``mapping._gauss_run``, which
the n0 search runs too, and the only place the stop rule is written.  It
makes no generator and checks each iterate in one expression, raising at
one outside I^p, so every value is read off an iterate of I^p; every
p = 2 mapping iterates there on two floats, with no tuple per step.  It
converts nothing: :func:`gauss_iterate` makes the start a float tuple once
and wraps the run in an :class:`InvariantEstimate`; the sampling probes
pass the sampler's float tuples, and ``apply``'s images, straight to
``_solve`` per sample, with parameters and readout functions resolved
once per probe, and build no result object.  A residual sample of a
mapping's own invariant mean is one solve from v wherever that converges
after step 0, else two.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from ._record import FrozenRecord, set_field
from .errors import InvalidMapping, MeanTypeError
from .mapping import IterationTrace, MeanTypeMapping, _annotate, _check_count, sample_vectors
from .mapping import _gauss_run as _solve  # every Gauss run; the tests count solves here
from .mapping import diameter  # noqa: F401 -- bench/spans.py patches it here
from .means import Interval, Vector, float_vector, midpoint

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000

CONVERGED = "converged"
MAX_ITER_REACHED = "max_iter_reached"


#: Readout name -> the value it reads off the final iterate.  Each reads
#: ``v[0]``, bit for bit, off a vector whose coordinates all compare equal.
_READERS: dict[str, Callable[[Vector], float]] = {
    "mid": midpoint, "min": min, "max": max, "first": lambda v: v[0],
}
READOUTS = tuple(_READERS)


def _check_iteration(tol: float, max_iter: int, readout: str) -> None:
    """Reject iteration parameters no run could use; NaN ``tol`` included, and an
    infinite one, below which every start's diameter falls."""
    if not tol > 0.0:
        raise InvalidMapping(f"tol must be positive, got {tol!r}")
    if tol == math.inf:
        raise InvalidMapping(f"tol must be positive and finite, got {tol!r}")
    _check_count("max_iter", max_iter, 1)
    if readout not in READOUTS:
        raise InvalidMapping(f"unknown readout {readout!r}; available: {READOUTS}")


class InvariantEstimate(FrozenRecord):
    """Outcome of one Gauss iteration run.

    ``value`` lies within ``final_diameter`` of every coordinate of the
    final iterate.  Up to kernel rounding, it also lies in [min(v), max(v)]
    of the starting vector, and when ``status`` is ``converged`` the true
    common limit (if the mapping has one) differs from the midpoint readout
    by at most final_diameter / 2.  Neither holds exactly, since each float
    step rounds: three p = 3 geometric means from (1.7976931348623155e308,
    1.7976931348623157e308, 1.7976931348623157e308) read
    1.7976931348622732e308, below min(v), and some converged solves miss
    the limit by more than that bound.
    """

    __slots__ = _fields = ("value", "steps", "final_diameter", "status", "trace")

    def __init__(self, value: float, steps: int, final_diameter: float, status: str,
                 trace: IterationTrace | None = None):
        set_field(self, "value", value)
        set_field(self, "steps", steps)
        set_field(self, "final_diameter", final_diameter)
        set_field(self, "status", status)
        set_field(self, "trace", trace)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def gauss_iterate(
    mapping: MeanTypeMapping,
    v: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    readout: str = "mid",
    relative: bool = False,
    keep_trace: bool = False,
) -> InvariantEstimate:
    """Iterate M until the diameter falls below ``tol`` (or ``max_iter``).

    The stopping rule is absolute by default; with ``relative=True`` the
    diameter is compared against tol * |midpoint| instead, which suits
    domains far from zero.  Constant input is a fixed point and returns
    immediately with zero steps; a constant iterate stops the run at its
    step, whatever the stopping rule.  Hitting ``max_iter`` is a reported
    status, not an error: convergence holds for continuous weakly
    contractive mappings but cannot be assumed for arbitrary input.
    ``keep_trace`` walks the run again with ``mapping.iterate``.

    ``v`` is converted once, with :func:`means.float_vector`, after the
    parameters are checked: a coordinate beyond the float range raises
    :class:`NonFiniteInput` naming it.  The trace walks that float tuple.
    """
    _check_iteration(tol, max_iter, readout)
    v = float_vector(v)
    n, current, d, done = _solve(mapping, v, tol, max_iter, relative)
    trace = mapping.iterate(v, n) if keep_trace else None
    return InvariantEstimate(_READERS[readout](current), n, d,
                             CONVERGED if done else MAX_ITER_REACHED, trace)


class InvariantMean:
    """The invariant mean K of a mapping, as a callable mean of arity p.

    Each call runs :func:`gauss_iterate` from scratch; ``K(v)`` is the
    configured readout of the final iterate.  ``estimate(v)`` exposes the
    full run (steps, final diameter, status) for callers that need to see
    whether the iteration actually converged.
    """

    def __init__(
        self,
        mapping: MeanTypeMapping,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
        readout: str = "mid",
        relative: bool = False,
    ):
        _check_iteration(tol, max_iter, readout)
        self.mapping = mapping
        self.tol = tol
        self.max_iter = max_iter
        self.readout = readout
        self.relative = relative

    @property
    def arity(self) -> int:
        return self.mapping.p

    def estimate(self, v: Sequence[float], keep_trace: bool = False) -> InvariantEstimate:
        return gauss_iterate(self.mapping, v, self.tol, self.max_iter, self.readout,
                             self.relative, keep_trace)

    def __call__(self, v: Sequence[float]) -> float:
        return self.estimate(v).value

    def __repr__(self) -> str:
        return (
            f"InvariantMean({self.mapping}, tol={self.tol!r}, "
            f"max_iter={self.max_iter}, readout={self.readout!r}, relative={self.relative!r})"
        )


# ---------------------------------------------------------------------------
# Residual and uniqueness probes
# ---------------------------------------------------------------------------

MeanFn = Callable[[Sequence[float]], float]


def over_samples(
    fn: Callable[[Vector], object],
    domain: Interval,
    p: int,
    sample_count: int,
    seed: int,
) -> list:
    """``fn(v)`` for each of :func:`sample_vectors`' vectors, in order.

    An evaluation error aborts the probe, re-raised with the offending
    sample attached and its attributes (``component``, say) kept.
    """
    _check_count("sample_count", sample_count, 1)
    out = []
    for idx, v in enumerate(sample_vectors(domain, p, sample_count, seed)):
        try:
            out.append(fn(v))
        except MeanTypeError as exc:
            raise _annotate(exc, f"sample {idx} {list(v)}") from exc
    return out


def _check_arity(fn: object, p: int) -> None:
    """Raise :class:`InvalidMapping` when ``fn`` has an ``arity`` (an
    :class:`InvariantMean`, a ``decompose.InvariantFunction``) other than
    ``p``; a plain callable is not checked.  The probes run it before any
    sample is drawn."""
    arity = getattr(fn, "arity", p)
    if arity != p:
        raise InvalidMapping(f"function {fn} has arity {arity}, but the mapping has p = {p}")


def _residual_at(k: MeanFn, mapping: MeanTypeMapping) -> Callable[[Vector], float]:
    """The per-sample function v -> |K(M(v)) - K(v)| of :func:`invariance_residual`.

    For the invariant mean of ``mapping`` itself (an :class:`InvariantMean`
    on that very mapping object) one solve from v, the sampler's float
    tuple, usually settles both values.  The orbit of v is v followed by
    the orbit of w = M(v), and the stop rule reads only the current
    iterate.  So a solve from v that converges at step n >= 1 ends on the
    iterate where the solve from w converges, at step n - 1 < ``max_iter``:
    the residual is 0.0.  Otherwise (v meets the rule itself, or the run
    stalls) one solve from w is read against that run's final iterate, the
    one a second solve from v would end on.  An error in the run from v
    re-runs the generic order of work (M(v), then the solve from w), which
    raises where it does, so an error is the same error.
    """
    if type(k) is not InvariantMean or k.mapping is not mapping:
        return lambda v: abs(k(mapping.apply(v)) - k(v))
    tol, max_iter, relative, read = k.tol, k.max_iter, k.relative, _READERS[k.readout]

    def residual(v: Vector) -> float:
        try:
            n, final, _, done = _solve(mapping, v, tol, max_iter, relative)
        except MeanTypeError:
            _solve(mapping, mapping.apply(v), tol, max_iter, relative)  # raises the generic error
            raise
        if done and n:
            return 0.0  # the solve from w ends one step earlier, on the same iterate
        return abs(read(_solve(mapping, mapping.apply(v), tol, max_iter, relative)[1])
                   - read(final))

    return residual


def invariance_residual(
    k: MeanFn,
    mapping: MeanTypeMapping,
    sample_count: int = 1000,
    seed: int = 42,
) -> float:
    """max over samples of |K(M(v)) - K(v)|: zero iff K is invariant there.

    Samples come from the mapping module's sampler (stress vectors plus
    uniform).  An evaluation error aborts the probe, re-raised with the
    offending sample attached.  Any F: I^p -> R may stand in for K.  When
    K is ``InvariantMean(mapping, ...)`` on this very mapping object, a
    sample costs one Gauss solve from v, not two, wherever that converges
    at a step n >= 1; a sample that stalls, or meets the stop rule at step
    0, costs a second solve, from M(v).  The result is the same to the
    bit.  A K with an ``arity`` other than p raises :class:`InvalidMapping`.
    """
    _check_arity(k, mapping.p)
    return max(0.0, *over_samples(_residual_at(k, mapping),
                                  mapping.domain, mapping.p, sample_count, seed))


def _gap_at(k1: MeanFn, k2: MeanFn) -> Callable[[Vector], float]:
    """The per-sample function v -> |K1(v) - K2(v)| of :func:`uniqueness_probe`.

    Two :class:`InvariantMean` objects on one mapping object with equal
    ``tol``, ``max_iter`` and ``relative`` run the same iteration; they
    differ at most in the readout, so one solve serves both.
    """
    if not (type(k1) is type(k2) is InvariantMean and k1.mapping is k2.mapping
            and k1.tol == k2.tol and k1.max_iter == k2.max_iter
            and k1.relative == k2.relative):
        return lambda v: abs(k1(v) - k2(v))
    mapping, tol, max_iter, relative = k1.mapping, k1.tol, k1.max_iter, k1.relative
    read1, read2 = _READERS[k1.readout], _READERS[k2.readout]

    def gap(v: Vector) -> float:
        final = _solve(mapping, v, tol, max_iter, relative)[1]
        return abs(read1(final) - read2(final))

    return gap


def uniqueness_probe(
    k1: MeanFn,
    k2: MeanFn,
    domain: Interval,
    p: int,
    sample_count: int = 100,
    seed: int = 42,
) -> float:
    """max over samples of |K1(v) - K2(v)|.

    Two continuous means invariant under the same weakly contractive
    mapping coincide, so for such a pair this should be at the level of
    the iteration tolerance; larger values witness that the two are
    genuinely different means.  Two :class:`InvariantMean` objects that
    differ at most in their readout cost one Gauss solve per sample, not
    two; the result is the same to the bit.  A K1 or K2 with an ``arity``
    other than ``p`` raises :class:`InvalidMapping`.
    """
    _check_arity(k1, p)
    _check_arity(k2, p)
    return max(0.0, *over_samples(_gap_at(k1, k2), domain, p, sample_count, seed))
