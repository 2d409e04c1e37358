"""Mean-type mappings and their diameter dynamics.

A mean-type mapping M = (M_1, ..., M_p) applies p means of arity p
coordinate-wise, giving a self-map of I^p.  Internality makes the
diameter max(v) - min(v) nonincreasing along iterates, in float too: every
kernel clamps its value to [min(v), max(v)] (``means._CATALOG``), so a
float step can neither widen an iterate nor leave I^p.  This module
provides the iteration machinery and the probes built on it:

* ``is_contractive_at`` / ``probe_contractivity`` -- does one application
  strictly shrink the diameter?
* ``find_n0`` -- the smallest n with diam(M^n(v)) < diam(v), the
  per-vector index of weak contractivity.
* ``star_apply`` -- the derived map v -> M^{n0(v)}(v), which shrinks the
  diameter in a single (compound) step wherever n0 exists.

Contractivity at v is n0(v) = 1: these three and every Gauss solve run one
loop, ``_gauss_run``, which checks only its start; every trace walks
``orbit``, plain apply-then-diameter.
A mapping binds its step once, from its components' rows of the mean
catalog (``means._CATALOG``); at p = 2, one function of ``(x, y)`` each.
Everything is pure; probes are sequential loops, deterministic per seed.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterator, Sequence
from itertools import count, islice

from ._record import FrozenRecord, set_field
from .errors import (
    ConstantVector,
    EmptyVector,
    InvalidMapping,
    MeanTypeError,
    NonFiniteInput,
    NotFoundWithinCap,
    ParseError,
)
from .means import (
    Interval,
    MeanSpec,
    Vector,
    _pair_arithmetic,
    check_vector,
    eval_mean,  # noqa: F401 -- bench/spans.py patches it here
    float_vector,
    parse_interval,
    parse_mean,
    sample_vectors as _sample_vectors,
)

#: Sampled vectors with diameter at or below this, times the width of the
#: sampling box where that is below 1, are treated as constant noise and
#: skipped by the contractivity probe.
NEGLIGIBLE_DIAMETER = 1e-9

DEFAULT_CAP = 1000


def _check_count(name: str, count: int, least: int | None = None) -> int:
    """``count`` as an int, once it is found to be a whole number (an int,
    or an integral float such as 1e4) and, if ``least`` is given, at least
    ``least``; otherwise :class:`InvalidMapping` naming ``name``.  A run
    stops on a step number equal to its limit, which 2.5 or inf never is."""
    whole = count
    if type(count) is not int:  # the common case skips the conversion
        try:
            whole = int(count)
        except (TypeError, ValueError, OverflowError):
            whole = None
        if whole is None or whole != count:
            raise InvalidMapping(f"{name} must be a whole number, got {count!r}")
    if least is not None and count < least:
        raise InvalidMapping(f"{name} must be >= {least}, got {count}")
    return whole


def sample_vectors(domain: Interval, p: int, count: int, seed: int = 42) -> Iterator[Vector]:
    """:func:`means.sample_vectors`, with ``p`` and ``count`` checked first:
    a ``p`` below 1, or either not a whole number, raises :class:`InvalidMapping`."""
    return _sample_vectors(domain, _check_count("p", p, 1), _check_count("count", count), seed)


def diameter(v: Sequence[float]) -> float:
    """max(v) - min(v) as a float; zero exactly when the vector is constant."""
    if len(v) == 0:
        raise EmptyVector("diameter of an empty vector is undefined")
    try:
        s, lo, hi = sum(v), min(v), max(v)
        d = float(hi) - float(lo)
    except OverflowError:  # an int beyond the float range, or ints summing past it
        return diameter(float_vector(v))
    if not (s == s and -math.inf < lo and hi < math.inf):  # a NaN sum means a NaN coordinate
        for i, x in enumerate(v):
            if not math.isfinite(x):
                raise NonFiniteInput(f"coordinate {i + 1} is {x!r}")
    return d


class MeanTypeMapping(FrozenRecord):
    """An ordered tuple of p means of arity p over a shared interval."""

    # Bound once here, so that apply and the Gauss loop read no spec field or
    # kernel table: _step, (v, sorted(v)) -> M(v), and _pair, the functions
    # (f0, f1) with M(x, y) = (f0(x, y), f1(x, y)) of a p = 2 mapping, else
    # None (both :func:`_bind_step`); _p, the arity; _positive, the
    # first component that requires positive coordinates (or None); _bounds,
    # the least and greatest valid coordinates (``means.admissible``).  None
    # is compared or shown.
    __slots__ = ("components", "domain", "name", "_step", "_pair", "_p", "_positive", "_bounds")
    _fields = ("components", "domain", "name")

    def __init__(self, components: Sequence[MeanSpec], domain: Interval,
                 name: str | None = None):
        components = tuple(components)
        p = len(components)
        if p < 2:
            raise InvalidMapping(f"a mean-type mapping needs p >= 2 components, got {p}")
        for i, spec in enumerate(components):
            if spec.arity != p:
                raise InvalidMapping(
                    f"component {i + 1} ({spec}) has arity {spec.arity}, expected {p}"
                )
        set_field(self, "components", components)
        set_field(self, "domain", domain)
        set_field(self, "name", name)
        step, pair = _bind_step(components)
        set_field(self, "_step", step)
        set_field(self, "_pair", pair)
        set_field(self, "_p", p)
        positive = next((i for i, spec in enumerate(components) if spec.requires_positive), None)
        set_field(self, "_positive", positive)
        set_field(self, "_bounds", domain._admissible[positive is not None])

    @property
    def p(self) -> int:
        return len(self.components)

    def apply(self, v: Sequence[float]) -> Vector:
        """One application: (M_1(v), ..., M_p(v)).

        ``v`` is checked once for all components (:func:`check_vector`),
        which sorts it; an error is re-raised with the index of the
        component that rejects ``v`` prepended.  A constant vector is a
        fixed point of every mean; any other runs the step bound at
        construction on ``v`` and that sorted list.
        """
        try:
            v, s = check_vector(v, self.components, self.domain, self._positive, self._bounds)
        except MeanTypeError as exc:
            k = exc.component
            raise _annotate(exc, f"component {k} ({self.components[k - 1]})") from exc
        if s[0] == s[-1]:
            return (v[0],) * len(v)
        return self._step(v, s)

    def orbit(self, v: Sequence[float]) -> Iterator[tuple[int, Vector, float]]:
        """Yield ``(n, M^n(v), diameter(M^n(v)))`` for n = 0, 1, 2, ...

        Each iterate is computed only when the caller asks for the next
        one, so stopping early costs no extra application.  Every trace,
        ``keep_trace``'s and :class:`NotFoundWithinCap`'s too, is
        :meth:`iterate`'s walk of it; the runs themselves go through
        :func:`_gauss_run`, which makes no generator and keeps no step.

        Each step is :meth:`apply` then :func:`diameter`; an application
        error is re-raised with the failing step prepended.  An iterate is
        yielded before the step after it checks it.  Only step 1 can fail:
        the means are internal, so the image of a vector of I^p is in I^p.
        """
        v = float_vector(v)
        for n in count():
            yield n, v, diameter(v)
            v = _apply_at(self, v, n + 1)

    def iterate(self, v: Sequence[float], n: int) -> IterationTrace:
        """Trace of v, M(v), ..., M^n(v) with per-step diameters: n
        applications.  As in a Gauss run, only the start is checked, by step
        1, or for n = 0 by one application whose image is dropped: one
        outside I^p raises what step 1 raises.  Every later iterate lies in
        I^p, as the kernels are internal."""
        n = _check_count("iteration count", n, 0)
        steps = [TraceStep(*s) for s in islice(self.orbit(v), n + 1)]
        if n == 0:
            _apply_at(self, steps[0].vector, 1)
        return IterationTrace(self, steps)

    def describe(self) -> dict:
        """JSON-ready description: p, domain, component strings."""
        return {
            "p": self.p,
            "domain": str(self.domain),
            "components": [spec.canonical() for spec in self.components],
        }

    def __str__(self) -> str:
        comps = ", ".join(spec.canonical() for spec in self.components)
        return f"({comps}) on {self.domain}"


def _pair_form(spec: MeanSpec) -> Callable[[float, float], float]:
    """``f`` with M_i(x, y) = f(x, y) for a component of a p = 2 mapping.  A
    component whose catalog row (``means._CATALOG``) has a closed form uses
    it; ``projection:1`` and ``projection:2`` pick ``x`` and ``y``; any other
    kind calls its bound kernel on ``(x, y)`` and that pair sorted, with no
    ``sorted`` call.  Each gives the bits of the general kernel."""
    kernel, closed = spec._kernel, spec._row[1]
    if closed is not None:
        return closed
    if spec.kind == "projection":
        return (lambda x, y: x) if spec.index == 1 else (lambda x, y: y)
    return lambda x, y: kernel((x, y), [x, y] if x <= y else [y, x])


def _bind_step(specs: Sequence[MeanSpec]) -> tuple[Callable[[Vector, list[float]], Vector],
                                                     tuple[Callable, Callable] | None]:
    """``(step, pair)``: ``step`` is ``(v, s) -> (M_1(v), ..., M_p(v))`` for a
    checked, nonconstant ``v`` and ``s = sorted(v)``, which
    :func:`check_vector` or the Gauss loop has already made; p >= 2.

    At p = 2, ``pair`` is ``(f0, f1)``, one :func:`_pair_form` per
    component, and the step is ``(f0(x, y), f1(x, y))``, which reads no
    ``s``.  For p >= 3, ``pair`` is None and each distinct kernel is called
    once, as ``kernel(v, s)``, the one its spec bound (``MeanSpec._kernel``):
    components with the same catalog binder, exponent and weights share
    the call (``geometric`` and ``quasi:log``, ``power:t`` and
    ``quasi:power:t``, ``arithmetic`` and ``quasi:identity``).  One item
    getter gathers projections and kernel results in order from ``v +
    kernels(v, s)``.  Two shapes: one kernel, ``take(v + (k0(v, s),))``,
    and any other number of kernels, none included; with no projection and
    no shared call, the kernel results are the image, ungathered.
    """
    if len(specs) == 2:
        f0, f1 = pair = _pair_form(specs[0]), _pair_form(specs[1])

        def step(v: Vector, s: list[float]) -> Vector:
            x, y = v
            return f0(x, y), f1(x, y)
        return step, pair
    ks, at, gather = [], {}, []
    for spec in specs:  # gather M_i(v) from v + kernels(v)
        if spec.kind == "projection":
            gather.append(spec.index - 1)
            continue
        # what a kernel reads of its spec; repr, since the weight -0.0 is not 0.0
        key = spec._row[0], repr(spec.exponent), repr(spec.weights)
        if key not in at:
            at[key] = len(specs) + len(ks)
            ks.append(spec._kernel)
        gather.append(at[key])
    take = operator.itemgetter(*gather)
    if len(ks) == 1:
        (k0,) = ks
        return (lambda v, s: take(v + (k0(v, s),))), None
    kernels = lambda v, s: tuple([k(v, s) for k in ks])  # noqa: E731
    return (kernels if len(ks) == len(specs) else lambda v, s: take(v + kernels(v, s))), None


def _annotate(exc: MeanTypeError, context: str) -> MeanTypeError:
    new = type(exc)(f"{context}: {exc}")
    new.__dict__.update(exc.__dict__)
    return new


def _apply_at(mapping: MeanTypeMapping, v: Vector, n: int) -> Vector:
    """``mapping.apply(v)`` as step ``n`` of a run: an error gets ``step n: `` prepended."""
    try:
        return mapping.apply(v)
    except MeanTypeError as exc:
        raise _annotate(exc, f"step {n}") from exc


def _reject_start(mapping: MeanTypeMapping, v: Vector) -> None:
    """Raise what step 1 of a run raises for a start ``v`` that failed the
    run's check: the error of :func:`diameter`, else that of
    :meth:`MeanTypeMapping.apply` with ``step 1: `` prepended.  One of them
    raises wherever the check fails."""
    diameter(v)
    _apply_at(mapping, v, 1)


def _gauss_run(mapping: MeanTypeMapping, v: Vector, tol: float | None, limit: int,
               relative: bool) -> tuple[int, Vector, float, bool]:
    """``(n, M^n(v), its diameter, done)`` at the end of the run from ``v``.

    The one iteration loop with a stop rule: every Gauss solve
    (``invariant._solve``), the n0 search and the contractivity test run
    it.  The run is ``done`` at the first iterate that is constant or whose
    diameter is below ``tol`` (times |midpoint| when ``relative``), or ends
    undone at ``n == limit``; ``limit=0`` tests ``v`` alone.  ``tol=None``
    stands for the diameter of ``v``, so ``limit=1`` asks whether n0(v) = 1.
    It keeps no step: a trace is :meth:`MeanTypeMapping.iterate`'s walk,
    which has the loop's bits.  No parameter is checked or converted: ``v``
    is a tuple of floats, which each public entry point makes once with
    :func:`means.float_vector` and each probe takes from the sampler or
    :meth:`MeanTypeMapping.apply`.

    The start is checked once, before either loop; one outside I^p raises
    what step 1 would raise (:func:`_reject_start`).  Every kernel is
    internal in float (``means._CATALOG``), and I^p is convex, so each
    later iterate is in I^p too, and the loop body is measure, stop rule,
    step.  The arity picks the loop.  A p = 2 mapping runs the scalar
    loop: it keeps ``x, y`` as two floats, checks them as ``a <= x <= b
    and a <= y <= b``, measures ``abs(x - y)`` (which equals ``max - min``
    to the bit), steps as ``x, y = f0(x, y), f1(x, y)`` (``_pair``) and
    builds a tuple only for the result.  A p >= 3 mapping, and a start of
    the wrong length, runs the tuple loop through ``_step``.  It checks the
    start with ``len``, a ``sum`` that is not NaN and the ends of ``s =
    sorted(v)``, measures ``d`` from the ends of each iterate's ``s``, and
    steps as ``step(v, s)``: the kernels read that list, so an iterate is
    sorted once.  Of equal zeros, ``sorted`` keeps the order: ``(0.0,
    -0.0)`` gives ``-0.0 - 0.0``.  ``+ 0.0`` turns that into 0.0, the bits
    of ``max(v) - min(v)``, which returns the first of equal coordinates.
    """
    p, pair, (a, b) = mapping._p, mapping._pair, mapping._bounds
    # tol=None: step 0 stops nothing but a constant start, and sets the bound to its diameter
    bound, stop_at = (0.0, 0) if tol is None else (tol, limit)
    n = 0
    if pair and len(v) == 2:
        f0, f1 = pair
        x, y = v
        if not (a <= x <= b and a <= y <= b):
            _reject_start(mapping, v)
        while True:
            d = abs(x - y)
            if d == 0.0 or d < (bound * abs(_pair_arithmetic(x, y)) if relative else bound):
                return n, (x, y), d, True
            if n == stop_at:
                if tol is not None or n == limit:
                    return n, (x, y), d, False
                bound, stop_at = d, limit
            n += 1
            x, y = f0(x, y), f1(x, y)
    if not (len(v) == p and (t := sum(v)) == t and a <= (s := sorted(v))[0] and s[-1] <= b):
        _reject_start(mapping, v)
    step = mapping._step
    while True:
        d = s[-1] - s[0] + 0.0  # + 0.0: a zero reads 0.0, as max(v) - min(v) gives it
        if d == 0.0 or d < (bound * abs(_pair_arithmetic(s[-1], s[0])) if relative else bound):
            return n, v, d, True
        if n == stop_at:
            if tol is not None or n == limit:
                return n, v, d, False
            bound, stop_at = d, limit
        n += 1
        v = step(v, s)
        s = sorted(v)


class TraceStep(FrozenRecord):
    __slots__ = _fields = ("step", "vector", "diameter")

    def __init__(self, step: int, vector: Vector, diameter: float):
        set_field(self, "step", step)
        set_field(self, "vector", vector)
        set_field(self, "diameter", diameter)


class IterationTrace(FrozenRecord):
    """Iterates of a mapping together with their diameters."""

    __slots__ = _fields = ("mapping", "steps")

    def __init__(self, mapping: MeanTypeMapping, steps: list[TraceStep]):
        set_field(self, "mapping", mapping)
        set_field(self, "steps", steps)

    @property
    def last(self) -> TraceStep:
        return self.steps[-1]

    def __len__(self) -> int:
        return len(self.steps)

    def to_json_dict(self) -> dict:
        return {
            "mapping": self.mapping.describe(),
            "steps": [
                {"step": s.step, "vector": list(s.vector), "diameter": s.diameter}
                for s in self.steps
            ],
        }

    def to_csv(self) -> str:
        """CSV with fixed column order: step, x1..xp, diameter."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step"] + [f"x{i + 1}" for i in range(self.mapping.p)] + ["diameter"])
        for s in self.steps:
            writer.writerow([s.step] + [repr(x) for x in s.vector] + [repr(s.diameter)])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Contractivity
# ---------------------------------------------------------------------------

def is_contractive_at(mapping: MeanTypeMapping, v: Sequence[float]) -> bool:
    """True iff one application strictly decreases the diameter at v.

    Strictness is an exact floating comparison: a mapping that merely
    preserves the diameter (a permutation of coordinates, say) must not
    pass.  Defined only for nonconstant v.  The n0 search with cap 1, so an
    invalid start raises what step 1 raises, as in :func:`find_n0`.
    """
    n, _, _, done = _gauss_run(mapping, float_vector(v), None, 1, False)
    if n == 0:
        raise ConstantVector("contractivity at a constant vector is undefined")
    return done


class ContractivityVerdict(FrozenRecord):
    """Result of sampling for a contractivity counterexample.

    Sampling can refute the for-all-v definition, never prove it: a
    ``counterexample`` of None means only that no witness was found.
    """

    __slots__ = _fields = ("mapping", "counterexample", "samples_tested", "skipped")

    def __init__(self, mapping: MeanTypeMapping, counterexample: Vector | None,
                 samples_tested: int, skipped: int):
        set_field(self, "mapping", mapping)
        set_field(self, "counterexample", counterexample)
        set_field(self, "samples_tested", samples_tested)
        set_field(self, "skipped", skipped)

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    def __str__(self) -> str:
        if self.found:
            return f"counterexample {list(self.counterexample)}"
        return "no counterexample found"


def probe_contractivity(
    mapping: MeanTypeMapping,
    sample_count: int = 1000,
    seed: int = 42,
) -> ContractivityVerdict:
    """Search sampled vectors for one where the diameter fails to shrink.

    The sample stream starts with deterministic stress vectors
    (near-constant, one-outlier, alternating extremes) and continues
    uniformly on a compact sub-box of the domain.  Vectors of negligible
    diameter (``NEGLIGIBLE_DIAMETER``, scaled down on a box narrower than
    1) and samples that raise evaluation errors are skipped and counted; a
    probe that skips every sample has tested nothing and raises
    :class:`MeanTypeError`.
    """
    _check_count("sample_count", sample_count, 1)
    lo, hi = mapping.domain.sampling_box()
    negligible = NEGLIGIBLE_DIAMETER * min(1.0, hi - lo)
    skipped = 0
    tested = 0
    for v in sample_vectors(mapping.domain, mapping.p, sample_count, seed):
        if max(v) - min(v) <= negligible:  # diameter(v) unchecked: the sampler yields floats of I^p
            skipped += 1
            continue
        try:  # the n0 search with cap 1 on the sampler's float tuple; v is not constant
            contractive = _gauss_run(mapping, v, None, 1, False)[3]
        except MeanTypeError:
            skipped += 1
            continue
        tested += 1
        if not contractive:
            return ContractivityVerdict(mapping, v, tested, skipped)
    if not tested:
        raise MeanTypeError(
            f"contractivity probe tested none of its {sample_count} samples on domain "
            f"{mapping.domain}: each had diameter <= {negligible!r} or failed to evaluate")
    return ContractivityVerdict(mapping, None, tested, skipped)


def find_n0(mapping: MeanTypeMapping, v: Sequence[float], cap: int = DEFAULT_CAP) -> int:
    """Smallest n in [1, cap] with diam(M^n(v)) < diam(v), strictly.

    That is the first strict drop, which defines n0(v); no later iterate is
    looked at.  The drop persists, as diameters are nonincreasing along
    float iterates too (every kernel is internal to the bit).  Raises
    :class:`ConstantVector` for constant v and :class:`NotFoundWithinCap`
    (with the full trace attached) when no iterate within the cap drops --
    which diagnoses, but does not disprove, weak contractivity.
    """
    _check_count("cap", cap, 1)
    n0, _ = _search_n0(mapping, v, cap)
    if n0 == 0:
        raise ConstantVector("n0 is defined only for nonconstant vectors")
    return n0


def star_apply(mapping: MeanTypeMapping, v: Sequence[float], cap: int = DEFAULT_CAP) -> Vector:
    """The derived mapping M*: v -> M^{n0(v)}(v).

    Strictly decreases the diameter whenever n0 is found.  Constant
    vectors are fixed points of every mean-type mapping and are returned
    unchanged (n0 is undefined for them).
    """
    _check_count("cap", cap)
    _, image = _search_n0(mapping, v, cap)
    return image


def _search_n0(mapping: MeanTypeMapping, v: Sequence[float], cap: int) -> tuple[int, Vector]:
    """``(n0(v), M^n0(v))``, or ``(0, v)`` for a constant ``v``.

    One run of :func:`_gauss_run` below the start diameter, with ``cap``, a
    whole number, as its limit.  The start is checked first; a constant one
    returns before ``cap`` is checked, and with ``cap < 1`` any other ends
    the run at step 0.  ``v`` is converted once (:func:`means.float_vector`):
    if the run ends undone, :meth:`MeanTypeMapping.iterate` walks the same
    start for the error.
    """
    v = float_vector(v)
    n, image, d, found = _gauss_run(mapping, v, None, max(cap, 0), False)
    if found:
        return n, image
    _check_count("cap", cap, 1)
    trace = mapping.iterate(v, cap)
    raise NotFoundWithinCap(
        f"no diameter decrease within {cap} iterations "
        f"(start diameter {trace.steps[0].diameter!r}, final {d!r})",
        trace=trace,
        cap=cap,
    )


# ---------------------------------------------------------------------------
# Built-in mapping families
# ---------------------------------------------------------------------------

def agm_mapping(domain: Interval | None = None) -> MeanTypeMapping:
    """(arithmetic, geometric) on the positive half-line: the AGM pair."""
    dom = domain if domain is not None else Interval(0.0, math.inf)
    return MeanTypeMapping(
        (MeanSpec.arithmetic(2), MeanSpec.geometric(2)), dom, name="agm"
    )


def arithmetic_harmonic_mapping(domain: Interval | None = None) -> MeanTypeMapping:
    """(arithmetic, harmonic) pair; its invariant mean is sqrt(x*y)."""
    dom = domain if domain is not None else Interval(0.0, math.inf)
    return MeanTypeMapping(
        (MeanSpec.arithmetic(2), MeanSpec.harmonic(2)), dom, name="arithmetic-harmonic"
    )


def shift_average_mapping(p: int = 3, domain: Interval | None = None) -> MeanTypeMapping:
    """p-1 coordinate shifts plus an arithmetic mean: weakly contractive.

    Components: (projection 2, projection 3, ..., projection p,
    arithmetic).  One application can preserve the diameter (the shifted
    coordinates may still span the full range), but mixing through the
    arithmetic slot eventually shrinks it, so n0(v) is finite but often
    greater than 1.  This family is the package's stock example of a
    mapping that is weakly contractive without being contractive; no
    structural claim is made beyond what the probes verify per vector.
    """
    if p < 2:
        raise InvalidMapping(f"shift-average family needs p >= 2, got {p}")
    dom = domain if domain is not None else Interval()
    comps = tuple(MeanSpec.projection(i + 2, p) for i in range(p - 1))
    comps += (MeanSpec.arithmetic(p),)
    return MeanTypeMapping(comps, dom, name=f"shift-average-{p}")


def projection_mapping(p: int = 2, domain: Interval | None = None) -> MeanTypeMapping:
    """The identity-like mapping (projection 1, ..., projection p).

    Never decreases the diameter; useful as the stock non-convergent
    fixture.
    """
    dom = domain if domain is not None else Interval()
    comps = tuple(MeanSpec.projection(i + 1, p) for i in range(p))
    return MeanTypeMapping(comps, dom, name=f"projections-{p}")


# ---------------------------------------------------------------------------
# Config format
# ---------------------------------------------------------------------------

def parse_mapping_config(text: str, name: str | None = None) -> MeanTypeMapping:
    """Parse the plain-text mapping format shared by CLI and fixtures.

    ::

        # AGM pair on the positive half-line
        p = 2
        domain = (0, inf)
        components = arithmetic, geometric

    Keys are case-insensitive; ``#`` starts a comment.  The ``components``
    list splits on ``;`` when one is present, otherwise on ``,``; means
    whose canonical form embeds commas (``weighted:0.3,0.7``) therefore
    need either the ``;`` separator or one ``component =`` line each.
    """
    p: int | None = None
    domain: Interval | None = None
    component_tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"line {lineno}: expected key = value, got {raw.strip()!r}",
                             token=raw.strip())
        key = key.strip().lower()
        value = value.strip()
        if key == "p":
            try:
                p = int(value)
            except ValueError:
                raise ParseError(f"line {lineno}: bad p value {value!r}", token=value) from None
        elif key == "domain":
            domain = parse_interval(value)
        elif key == "components":
            sep = ";" if ";" in value else ","
            component_tokens.extend(tok.strip() for tok in value.split(sep) if tok.strip())
        elif key == "component":
            component_tokens.append(value)
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}", token=key)
    if p is None:
        raise ParseError("mapping config is missing the key 'p'", token="p")
    if domain is None:
        raise ParseError("mapping config is missing the key 'domain'", token="domain")
    if not component_tokens:
        raise ParseError("mapping config is missing the key 'components'", token="components")
    if len(component_tokens) != p:
        raise ParseError(
            f"mapping config declares p = {p} but lists {len(component_tokens)} components",
            token="components",
        )
    components = tuple(parse_mean(tok, p) for tok in component_tokens)
    try:
        return MeanTypeMapping(components, domain, name=name)
    except InvalidMapping as exc:
        raise ParseError(str(exc)) from exc


def format_mapping_config(mapping: MeanTypeMapping) -> str:
    """Inverse of :func:`parse_mapping_config`, up to comments."""
    canon = [spec.canonical() for spec in mapping.components]
    sep = "; " if any("," in c for c in canon) else ", "
    return f"p = {mapping.p}\ndomain = {mapping.domain}\ncomponents = {sep.join(canon)}\n"


def load_mapping(path: str) -> MeanTypeMapping:
    """Read a mapping config file; the file stem becomes the mapping name."""
    import os

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read mapping file {path!r}: {exc}", token=path) from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_mapping_config(text, name=name)
