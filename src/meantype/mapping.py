"""Mean-type mappings and their diameter dynamics.

A mean-type mapping M = (M_1, ..., M_p) applies p means of arity p
coordinate-wise, giving a self-map of I^p.  Internality of the components
makes the diameter max(v) - min(v) nonincreasing along iterates; this
module provides the iteration machinery and the probes built on it:

* ``is_contractive_at`` / ``probe_contractivity`` -- does one application
  strictly shrink the diameter?
* ``find_n0`` -- the smallest n with diam(M^n(v)) < diam(v), the
  per-vector index of weak contractivity.
* ``star_apply`` -- the derived map v -> M^{n0(v)}(v), which shrinks the
  diameter in a single (compound) step wherever n0 exists.

Contractivity at v is n0(v) = 1: these three and every Gauss solve run one
loop, ``_gauss_run``; ``MeanTypeMapping.orbit`` is plain apply-then-diameter.
A mapping binds its step once, from its components' rows of the mean
catalog (``means._CATALOG``): kernels, or their p = 2 closed forms.
Everything is pure; probes are sequential loops, deterministic per seed.
"""

from __future__ import annotations

import functools
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
    _LOG_KERNELS,
    _kernel,
    _row,
    admissible,
    check_vector,
    eval_mean,  # noqa: F401 -- bench/spans.py patches it here
    float_vector,
    midpoint,
    parse_interval,
    parse_mean,
    sample_vectors,
)

#: Sampled vectors with diameter at or below this are treated as constant
#: noise and skipped by the contractivity probe.
NEGLIGIBLE_DIAMETER = 1e-9

DEFAULT_CAP = 1000


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

    # Bound once here, so that apply reads no spec field or kernel table:
    # _step, v -> M(v) (:func:`_bind_step`); _positive, the first component
    # that requires positive coordinates (or None); _bounds, the least and
    # greatest valid coordinates (:func:`admissible`).  None is compared or shown.
    __slots__ = ("components", "domain", "name", "_step", "_positive", "_bounds")
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
        set_field(self, "_step", _bind_step(components))
        positive = next((i for i, spec in enumerate(components) if spec.requires_positive), None)
        set_field(self, "_positive", positive)
        set_field(self, "_bounds", admissible(domain, positive is not None))

    @property
    def p(self) -> int:
        return len(self.components)

    def apply(self, v: Sequence[float]) -> Vector:
        """One application: (M_1(v), ..., M_p(v)).

        ``v`` is checked once for all components (:func:`check_vector`);
        an error is re-raised with the index of the component that rejects
        ``v`` prepended.  A constant vector is a fixed point of every mean;
        any other runs the step bound at construction.
        """
        try:
            v = check_vector(v, self.components, self.domain, self._positive, self._bounds)
        except MeanTypeError as exc:
            k = exc.component
            raise _annotate(exc, f"component {k} ({self.components[k - 1]})") from exc
        if v.count(v[0]) == len(v):
            return (v[0],) * len(v)
        return self._step(v)

    def orbit(self, v: Sequence[float]) -> Iterator[tuple[int, Vector, float]]:
        """Yield ``(n, M^n(v), diameter(M^n(v)))`` for n = 0, 1, 2, ...

        Each iterate is computed only when the caller asks for the next
        one, so stopping early costs no extra application.  Plain tuples,
        not :class:`TraceStep`, keep the per-step cost low for callers
        that keep no trace.  :meth:`iterate` walks it; the Gauss solves,
        the n0 search and the contractivity test run :func:`_gauss_run`
        instead, which stops on its own rule and makes no generator.

        Each step is :meth:`apply` then :func:`diameter`; an application
        error is re-raised with the failing step prepended.
        """
        v = float_vector(v)
        for n in count():
            yield n, v, diameter(v)
            v = _apply_at(self, v, n + 1)

    def iterate(self, v: Sequence[float], n: int) -> IterationTrace:
        """Trace of v, M(v), ..., M^n(v) with per-step diameters."""
        if n < 0:
            raise InvalidMapping(f"iteration count must be >= 0, got {n}")
        return IterationTrace(self, [TraceStep(*s) for s in islice(self.orbit(v), n + 1)])

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


def _bind_step(specs: Sequence[MeanSpec]) -> Callable[[Vector], Vector]:
    """``v -> (M_1(v), ..., M_p(v))`` for a checked, nonconstant ``v``; p >= 2.

    A p = 2 mapping whose components all have a closed form in their
    catalog row (``means._CATALOG``: arithmetic, geometric, harmonic,
    median, min, max, quasi:identity, quasi:log) steps as
    ``(f0(x, y), f1(x, y))``, with the bits of the general kernels.
    Otherwise, with two or more log-space means, log(x) is taken once per
    coordinate and passed to every kernel (the same float operations, so
    the same bits), and one item getter gathers projections and kernel
    results in order.
    """
    if len(specs) == 2 and all(pair := [_row(spec)[1] for spec in specs]):
        f0, f1 = pair

        def step(v: Vector) -> Vector:
            x, y = v
            return f0(x, y), f1(x, y)
        return step
    ks, gather, logged = [], [], 0
    for spec in specs:  # gather M_i(v) from v + kernels(v)
        if spec.kind == "projection":
            gather.append(spec.index - 1)
        else:
            gather.append(len(specs) + len(ks))
            ks.append(functools.partial(_kernel(spec), spec))
            logged += ks[-1].func in _LOG_KERNELS
    take = operator.itemgetter(*gather)
    if not ks:
        return take
    if logged >= 2:
        def kernels(v: Vector) -> Vector:
            logs = [*map(math.log, v)]
            return tuple([k(v, logs) for k in ks])
    elif len(ks) == 1:
        (k0,) = ks
        kernels = lambda v: (k0(v),)  # noqa: E731
    else:
        kernels = lambda v: tuple([k(v) for k in ks])  # noqa: E731
    return kernels if len(ks) == len(specs) else lambda v: take(v + kernels(v))


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


def _gauss_run(mapping: MeanTypeMapping, v: Sequence[float], tol: float | None, limit: int,
               relative: bool, keep: list | None = None) -> tuple[int, Vector, float, bool]:
    """``(n, M^n(v), its diameter, done)`` at the end of the run from ``v``.

    The one iteration loop with a stop rule: every Gauss solve
    (``invariant._solve``), the n0 search and the contractivity test run
    it.  The run is ``done`` at the first iterate that is constant or whose
    diameter is below ``tol`` (times |midpoint| when ``relative``), or ends
    undone at ``n == limit``; ``limit=0`` tests ``v`` alone.  ``tol=None``
    stands for the diameter of ``v``, so ``limit=1`` asks whether n0(v) = 1.
    ``keep``, if given, receives an ``(n, M^n(v), diameter)`` tuple per
    iterate.  No parameter is checked.

    ``v`` is converted once.  Each iterate is checked and measured in one
    expression (for p = 2, ``a <= x <= b and a <= y <= b`` with
    ``abs(x - y)``, which NaN fails and which equals ``max - min`` to the
    bit; for p >= 3, the ``len``/``sum``/``min``/``max`` pass of
    :func:`check_vector`), and a valid one maps through the bound step.
    Any other goes through :func:`diameter` and
    :meth:`MeanTypeMapping.apply`, which name the error, with the step
    prepended; an invalid start raises what step 1 raises even where it
    meets the stop rule.
    """
    p, step, (a, b) = mapping.p, mapping._step, mapping._bounds
    v = float_vector(v)
    pair = p == len(v) == 2
    # tol=None: step 0 stops nothing but a constant start, and sets the bound to its diameter
    bound, stop_at = (0.0, 0) if tol is None else (tol, limit)
    n = 0
    while True:
        if pair:
            x, y = v
            valid = a <= x <= b and a <= y <= b
            d = abs(x - y)
        else:
            valid = (len(v) == p and (s := sum(v)) == s
                     and a <= (lo := min(v)) and (hi := max(v)) <= b)
            d = hi - lo if valid else None
        if not valid:
            d = diameter(v)
            if n == 0:
                _apply_at(mapping, v, 1)
        if keep is not None:
            keep.append((n, v, d))
        if d == 0.0 or d < (bound * abs(midpoint(v)) if relative else bound):
            return n, v, d, True
        if n == stop_at:
            if tol is not None or n == limit:
                return n, v, d, False
            bound, stop_at = d, limit
        n += 1
        v = step(v) if valid else _apply_at(mapping, v, n)


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
    n, _, _, done = _gauss_run(mapping, v, None, 1, False)
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
    diameter and samples that raise evaluation errors are skipped and
    counted; a probe that skips every sample has tested nothing and raises
    :class:`MeanTypeError`.
    """
    if sample_count < 1:
        raise InvalidMapping(f"sample_count must be >= 1, got {sample_count}")
    skipped = 0
    tested = 0
    for v in sample_vectors(mapping.domain, mapping.p, sample_count, seed):
        if diameter(v) <= NEGLIGIBLE_DIAMETER:
            skipped += 1
            continue
        try:
            contractive = is_contractive_at(mapping, v)
        except MeanTypeError:
            skipped += 1
            continue
        tested += 1
        if not contractive:
            return ContractivityVerdict(mapping, v, tested, skipped)
    if not tested:
        raise MeanTypeError(
            f"contractivity probe tested none of its {sample_count} samples on domain "
            f"{mapping.domain}: each had diameter <= {NEGLIGIBLE_DIAMETER!r} or failed to evaluate")
    return ContractivityVerdict(mapping, None, tested, skipped)


def find_n0(mapping: MeanTypeMapping, v: Sequence[float], cap: int = DEFAULT_CAP) -> int:
    """Smallest n in [1, cap] with diam(M^n(v)) < diam(v), strictly.

    Diameters are nonincreasing under mean-type mappings, so once the
    strict drop happens at n it persists for every later iterate; checking
    the first drop therefore settles the per-vector condition.  Raises
    :class:`ConstantVector` for constant v and :class:`NotFoundWithinCap`
    (with the full trace attached) when no iterate within the cap drops --
    which diagnoses, but does not disprove, weak contractivity.
    """
    _check_cap(cap)
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
    _, image = _search_n0(mapping, v, cap)
    return image


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise InvalidMapping(f"cap must be >= 1, got {cap}")


def _search_n0(mapping: MeanTypeMapping, v: Sequence[float], cap: int) -> tuple[int, Vector]:
    """``(n0(v), M^n0(v))``, or ``(0, v)`` for a constant ``v``.

    One run of :func:`_gauss_run` below the start diameter, with ``cap``
    as its limit.  The start is checked first; a constant one returns
    before ``cap`` is checked, and with ``cap < 1`` any other ends the run
    at step 0.
    """
    steps = []  # plain (n, v, d) tuples: TraceSteps only for the error
    n, image, d, found = _gauss_run(mapping, v, None, max(cap, 0), False, steps)
    if found:
        return n, image
    _check_cap(cap)
    raise NotFoundWithinCap(
        f"no diameter decrease within {cap} iterations "
        f"(start diameter {steps[0][2]!r}, final {d!r})",
        trace=IterationTrace(mapping, [TraceStep(*s) for s in steps]),
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
    except OSError as exc:
        raise ParseError(f"cannot read mapping file {path!r}: {exc}", token=path) from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_mapping_config(text, name=name)
