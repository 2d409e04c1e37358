import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from meantype import (
    ArityMismatch,
    DomainViolation,
    InvalidInterval,
    InvalidMeanSpec,
    Interval,
    MeanSpec,
    MeanTypeError,
    NonFiniteInput,
    ParseError,
    eval_mean,
    parse_interval,
    parse_mean,
)
import meantype.means
from meantype.mapping import MeanTypeMapping, _pair_form
from meantype.means import GENERATORS, KINDS, REALS, admissible, check_vector

POSITIVE = Interval(0.0, math.inf)
UNIT = Interval(0.0, 1.0, lower_closed=True, upper_closed=True)

coords = st.floats(min_value=1e-3, max_value=1e3)
positive_vectors = st.lists(coords, min_size=2, max_size=6).map(tuple)


def all_specs(p: int) -> list[MeanSpec]:
    w = [1.0 / p] * (p - 1)
    w.append(1.0 - math.fsum(w))
    return [
        MeanSpec.arithmetic(p),
        MeanSpec.geometric(p),
        MeanSpec.harmonic(p),
        MeanSpec.power(2.0, p),
        MeanSpec.power(-3.0, p),
        MeanSpec.power(0.0, p),
        MeanSpec.quasi_arithmetic("identity", p),
        MeanSpec.quasi_arithmetic("log", p),
        MeanSpec.quasi_arithmetic("exp", p),
        MeanSpec.quasi_arithmetic("power", p, exponent=3.0),
        MeanSpec.median(p),
        MeanSpec.minimum(p),
        MeanSpec.maximum(p),
        MeanSpec.projection(1, p),
        MeanSpec.projection(p, p),
        MeanSpec.weighted_arithmetic(w, p),
    ]


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------

class TestInterval:
    def test_contains_respects_flags(self):
        half_open = Interval(0.0, 1.0, lower_closed=True, upper_closed=False)
        assert half_open.contains(0.0)
        assert half_open.contains(0.5)
        assert not half_open.contains(1.0)
        assert not half_open.contains(-0.1)
        assert not half_open.contains(math.nan)
        assert not half_open.contains(math.inf)
        for x in ("a", None, 1j, b"1"):  # a non-number is outside, not a TypeError
            assert not half_open.contains(x) and not Interval().contains(x)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidInterval):
            Interval(1.0, 1.0)
        with pytest.raises(InvalidInterval):
            Interval(2.0, 1.0)

    def test_infinite_endpoint_cannot_be_closed(self):
        with pytest.raises(InvalidInterval):
            Interval(0.0, math.inf, upper_closed=True)

    @pytest.mark.parametrize("args,message", [
        ((math.nan, 1.0), "interval endpoints must not be NaN"),
        ((0.0, math.nan), "interval endpoints must not be NaN"),
        ((-math.inf, 0.0, True), "-inf endpoint cannot be closed"),
        ((True, 2), "interval lower endpoint must be a real number, got True"),
        ((0, False), "interval upper endpoint must be a real number, got False"),
        (("a", 2), "interval lower endpoint must be a real number, got 'a'"),
        ((0, "1"), "interval upper endpoint must be a real number, got '1'"),
        ((None, 1), "interval lower endpoint must be a real number, got None"),
        ((0, 10**400), "interval upper endpoint is beyond the float range"),
        ((-10**400, 0), "interval lower endpoint is beyond the float range"),
    ], ids=["nan-lower", "nan-upper", "closed-inf", "bool-lower", "bool-upper", "str-lower",
            "str-upper", "none", "big-upper", "big-lower"])
    def test_invalid_endpoint_rejected(self, args, message):
        with pytest.raises(InvalidInterval) as info:
            Interval(*args)
        assert str(info.value) == message

    def test_endpoints_are_stored_as_floats(self):
        iv = Interval(0, 2)
        assert (type(iv.lower), type(iv.upper)) == (float, float)
        assert str(iv) == "(0.0, 2.0)" and iv == Interval(0.0, 2.0)

    @pytest.mark.parametrize("x", [10**400, -10**400, 2**1024],
                             ids=["10**400", "-10**400", "2**1024"])
    def test_an_int_beyond_the_float_range_is_outside(self, x):
        assert not Interval().contains(x)

    def test_sampling_box_stays_inside(self):
        for iv in [POSITIVE, UNIT, Interval(), Interval(-5.0, 5.0),
                   Interval(1000.0, math.inf)]:
            lo, hi = iv.sampling_box()
            assert lo < hi
            assert iv.contains(lo) and iv.contains(hi)

    def test_parse_round_trip(self):
        for text in ["(0, inf)", "[1, 10]", "[0.5, 100)", "(-inf, inf)"]:
            iv = parse_interval(text)
            assert parse_interval(str(iv)) == iv

    def test_parse_errors_name_token(self):
        with pytest.raises(ParseError):
            parse_interval("0, inf")
        with pytest.raises(ParseError) as exc:
            parse_interval("(zero, inf)")
        assert exc.value.token == "zero"

    @pytest.mark.parametrize("text,message", [
        ("(0, 1, 2)", "interval '(0, 1, 2)' must have two endpoints"),
        ("[1, 0]", "interval '[1, 0]': interval endpoints must satisfy lower < upper, "
                   "got [1.0, 0.0]"),
        ("[-inf, 0)", "interval '[-inf, 0)': -inf endpoint cannot be closed"),
    ])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_interval(text)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Evaluation: pinned examples
# ---------------------------------------------------------------------------

class TestEvalExamples:
    def test_arithmetic(self):
        assert eval_mean(MeanSpec.arithmetic(3), (1.0, 2.0, 3.0)) == 2.0

    def test_harmonic(self):
        # 2 / (1/2 + 1/8) = 16/5
        assert eval_mean(MeanSpec.harmonic(2), (2.0, 8.0), POSITIVE) == pytest.approx(3.2, abs=1e-12)

    def test_power_zero_is_geometric(self):
        assert eval_mean(MeanSpec.power(0.0, 2), (4.0, 9.0), POSITIVE) == pytest.approx(6.0, abs=1e-12)

    def test_projection(self):
        assert eval_mean(MeanSpec.projection(1, 3), (5.0, 7.0, 9.0)) == 5.0

    def test_median_even_arity(self):
        assert eval_mean(MeanSpec.median(4), (1.0, 9.0, 3.0, 5.0)) == 4.0
        # sorted: (-1.0, -0.0, 0.0, 1.0); the midpoint of -0.0 and 0.0 reads -0.0
        value = eval_mean(MeanSpec.median(4), (-0.0, 0.0, 1.0, -1.0))
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    def test_weighted(self):
        assert eval_mean(MeanSpec.weighted_arithmetic((0.25, 0.75)), (0.0, 8.0)) == 6.0

    def test_constant_vector_exact(self):
        for spec in all_specs(3):
            assert eval_mean(spec, (5.0, 5.0, 5.0), POSITIVE) == 5.0


class TestEvalErrors:
    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            eval_mean(MeanSpec.arithmetic(3), (1.0, 2.0))

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            eval_mean(MeanSpec.arithmetic(2), (1.0, math.nan))
        with pytest.raises(NonFiniteInput):
            eval_mean(MeanSpec.arithmetic(2), (1.0, math.inf))

    def test_outside_interval(self):
        with pytest.raises(DomainViolation):
            eval_mean(MeanSpec.arithmetic(2), (0.5, 2.0), UNIT)

    def test_geometric_rejects_nonpositive(self):
        # zero/negative coordinates are rejected, not extended by convention
        for bad in [(0.0, 1.0), (-1.0, 2.0)]:
            with pytest.raises(DomainViolation):
                eval_mean(MeanSpec.geometric(2), bad)
        with pytest.raises(DomainViolation):
            eval_mean(MeanSpec.harmonic(2), (-1.0, 2.0))
        with pytest.raises(DomainViolation):
            eval_mean(MeanSpec.quasi_arithmetic("log", 2), (0.0, 1.0))


def _reference_check(v, specs, domain):
    """The coordinate-by-coordinate scan, written out: arity, finiteness and
    domain per coordinate, then positivity for the first spec needing it.
    Returns the checked vector and its sorted list, as ``check_vector`` does."""
    v = tuple(float(x) for x in v)
    k, spec = 1, specs[0]
    try:
        if len(v) != spec.arity:
            raise ArityMismatch(
                f"mean {spec} has arity {spec.arity}, got vector of length {len(v)}")
        for i, x in enumerate(v):
            if not math.isfinite(x):
                raise NonFiniteInput(f"coordinate {i + 1} is {x!r}")
            if not domain.contains(x):
                raise DomainViolation(f"coordinate {i + 1} = {x!r} outside domain {domain}")
        for k, spec in enumerate(specs, 1):
            if spec.requires_positive:
                for i, x in enumerate(v):
                    if x <= 0.0:
                        raise DomainViolation(
                            f"mean {spec} requires strictly positive coordinates; "
                            f"coordinate {i + 1} = {x!r}")
                break
    except MeanTypeError as exc:
        exc.component = k
        raise
    return v, sorted(v)


def _check_outcome(fn, *args):
    """The bits of the checked vector, or the class, message and component raised."""
    try:
        return [repr(x) for x in fn(*args)]
    except MeanTypeError as exc:
        return type(exc), str(exc), exc.component


_HALF_OPEN = Interval(-1.0, 2.0, lower_closed=True)
_NONPOSITIVE = Interval(-math.inf, 0.0, upper_closed=True)
_FLOAT_POSITIVE = Interval(5e-324, 1.7e308)
_CHECK_DOMAINS = (REALS, POSITIVE, UNIT, _HALF_OPEN, _NONPOSITIVE, _FLOAT_POSITIVE)
_CHECK_COORDS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 2.0, -2.5,
                 1.7e308, -1.7e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf)
_ANY_SIGN_SPECS = (MeanSpec.arithmetic, MeanSpec.median,
                   lambda p: MeanSpec.quasi_arithmetic("exp", p),
                   lambda p: MeanSpec.projection(1, p))
_POSITIVE_SPECS = (MeanSpec.geometric, MeanSpec.harmonic,
                   lambda p: MeanSpec.power(2.0, p),
                   lambda p: MeanSpec.quasi_arithmetic("log", p))


class _Float(float):
    """A float subclass: not an exact float, so it takes the generic check."""

    def __repr__(self):  # so that one left unconverted shows in a checked vector
        return f"_Float({float(self)!r})"


#: Coordinates within the float range that are not exact floats.
_NOT_FLOAT_COORDS = (0, 1, -2, True, False, _Float(0.5), _Float(-0.0),
                     Fraction(1, 3), Fraction(-1, 2), "0.25", "-1e-310")


class _Iterator(tuple):
    """Coordinates passed as an iterator: a fresh one per call (:func:`_fresh`)."""

    def __repr__(self):
        return f"iter({tuple(self)!r})"


def _fresh(v):
    return iter(v) if isinstance(v, _Iterator) else v


@st.composite
def check_cases(draw):
    """(v, specs, domain): domain endpoints among the coordinates, vectors
    one short or one long, positivity-needing specs at any positions; p = 2
    often, coordinates drawn inside the domain too, some not exact floats,
    and ``v`` a tuple, a list or an iterator."""
    domain = draw(st.sampled_from(_CHECK_DOMAINS))
    p = draw(st.sampled_from((1, 2, 2, 2, 3, 4)))
    makers = draw(st.lists(st.sampled_from(_ANY_SIGN_SPECS + _POSITIVE_SPECS),
                           min_size=p, max_size=p))
    specs = tuple(make(p) for make in makers)
    a, b = admissible(domain, any(spec.requires_positive for spec in specs))
    ends = tuple(x for x in (domain.lower, domain.upper) if math.isfinite(x))
    coord = st.one_of(st.sampled_from(_CHECK_COORDS + ends), st.floats(),
                      st.floats(a, b) if a <= b else st.nothing(),
                      st.sampled_from(_NOT_FLOAT_COORDS))
    n = draw(st.sampled_from((p - 1, p, p, p + 1)))
    form = draw(st.sampled_from((tuple, list, _Iterator)))
    return form(draw(st.lists(coord, min_size=n, max_size=n))), specs, domain


_MAX = 1.7976931348623157e308
_ENDS = (-math.inf, -_MAX, -2.0, -5e-324, -0.0, 0.0, 5e-324, 1.5, _MAX, math.inf)


def _interval_shapes():
    """Every interval on two of ``_ENDS``, each finite end open or closed."""
    for i, lower in enumerate(_ENDS):
        for upper in _ENDS[i + 1:]:
            if not lower < upper:  # -0.0 and 0.0
                continue
            for lower_closed in (False, True) if math.isfinite(lower) else (False,):
                for upper_closed in (False, True) if math.isfinite(upper) else (False,):
                    yield Interval(lower, upper, lower_closed, upper_closed)


@pytest.mark.parametrize("positive", [False, True])
def test_admissible_bounds_are_membership(positive):
    # a <= x <= b is the whole validity rule of check_vector's fast path and orbit
    for domain in _interval_shapes():
        a, b = admissible(domain, positive)
        ends = [x for e in (domain.lower, domain.upper) if math.isfinite(e)
                for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
        for x in (0.0, -0.0, 5e-324, -5e-324, _MAX, -_MAX, math.inf, -math.inf, math.nan,
                  *ends):
            assert (a <= x <= b) == (domain.contains(x) and (not positive or x > 0)), \
                (domain, positive, x)


#: The stock domains and the float edges of the sampler: an endpoint that
#: absorbs the sampling cut, one float inside, none, and insets lost to rounding.
EDGE_DOMAINS = [
    REALS, POSITIVE, UNIT, Interval(0.0, 1.0, upper_closed=True),
    Interval(1.6983e308, math.inf, lower_closed=True),
    Interval(-math.inf, -1e308, upper_closed=True),
    Interval(_MAX, math.inf, lower_closed=True), Interval(-math.inf, -_MAX, upper_closed=True),
    Interval(1.0, 1.000000000001), Interval(0.0, 1e-320),
    Interval(1.0, 1.0000000000000004), Interval(1.0, 1.0000000000000002),
    Interval(1e308, 1.7e308, True, True), Interval(-1.7e308, 1.7e308, True, True),
]


@pytest.mark.parametrize("positive", [False, True])
def test_interval_binds_admissible_once(positive):
    # the bounds an Interval binds at construction are what admissible gives now
    for domain in [*EDGE_DOMAINS, *_interval_shapes()]:
        assert repr(domain._admissible[positive]) == repr(admissible(domain, positive)), domain


def test_eval_mean_runs_no_nextafter_or_catalog_lookup(monkeypatch):
    specs = all_specs(3)
    reads = []
    nextafter = math.nextafter
    monkeypatch.setattr(math, "nextafter", lambda *args: reads.append(args) or nextafter(*args))

    class CountingTable(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(meantype.means, "_CATALOG", CountingTable(meantype.means._CATALOG))
    for spec in specs:
        eval_mean(spec, (1.0, 2.0, 4.0), POSITIVE)
        eval_mean(spec, (0.5, 0.5, 0.5), UNIT)
    assert reads == []


_A2, _G2 = MeanSpec.arithmetic(2), MeanSpec.geometric(2)
_A3, _G3 = MeanSpec.arithmetic(3), MeanSpec.geometric(3)


class TestCheckVector:
    @settings(max_examples=500, deadline=None)
    @given(check_cases())
    # finite vectors whose sum overflows, valid and invalid
    @example(((1.7e308, 1.7e308), (_A2, _A2), REALS))
    @example(((1.7e308, -1.7e308, 1.7e308), (_A3, _A3, _A3), REALS))
    @example(((1.7e308, 1.7e308, 1.7e308), (_A3, _G3, _A3), POSITIVE))
    @example(((1.7e308, 1.7e308, -1.0), (_A3, _A3, _G3), REALS))
    @example(((1.7e308, 1.7e308, math.nan), (_A3, _A3, _A3), REALS))
    # exactly on open and closed endpoints, signed zeros
    @example(((0.0, 1.0), (_A2, _A2), UNIT))
    @example(((-0.0, 0.5), (_A2, _A2), POSITIVE))
    @example(((-1.0, 2.0), (_A2, _A2), _HALF_OPEN))
    @example(((5e-324, 1.0), (_A2, _G2), REALS))
    @example(((), (_A2, _A2), REALS))
    # a pair on each end of each checked domain, one float past it, one float inside
    @example(((-math.inf, 1.0), (_A2, _A2), REALS))
    @example(((1.0, math.inf), (_A2, _A2), REALS))
    @example(((-_MAX, _MAX), (_A2, _A2), REALS))
    @example(((0.0, 1.0), (_A2, _A2), POSITIVE))
    @example(((5e-324, math.inf), (_G2, _A2), POSITIVE))
    @example(((_MAX, 5e-324), (_G2, _G2), POSITIVE))
    @example(((1.0, 0.0), (_A2, _G2), UNIT))
    @example(((-5e-324, 1.0), (_A2, _A2), UNIT))
    @example(((0.0, 1.0000000000000002), (_A2, _A2), UNIT))
    @example(((1.9999999999999998, -1.0), (_A2, _A2), _HALF_OPEN))
    @example(((-1.0000000000000002, 0.0), (_A2, _A2), _HALF_OPEN))
    @example(((0.0, -_MAX), (_A2, _A2), _NONPOSITIVE))
    @example(((-0.0, -math.inf), (_A2, _A2), _NONPOSITIVE))
    @example(((5e-324, -1.0), (_A2, _A2), _NONPOSITIVE))
    @example(((5e-324, 1.0), (_A2, _A2), _FLOAT_POSITIVE))
    @example(((1e-323, 1.7e308), (_A2, _A2), _FLOAT_POSITIVE))
    @example(((1e-323, 1.6999999999999997e308), (_G2, _G2), _FLOAT_POSITIVE))
    # equal zeros keep their order; other containers; coordinates that are not exact floats
    @example(((0.0, -0.0), (_A2, _A2), REALS))
    @example(((-0.0, 0.0), (_A2, _A2), REALS))
    @example(([0.0, -0.0], (_A2, _A2), UNIT))
    @example((_Iterator((-0.0, 0.0)), (_A2, _A2), _NONPOSITIVE))
    @example(((1, 0.5), (_A2, _A2), UNIT))
    @example(((True, 0.5), (_G2, _A2), UNIT))
    @example(((_Float(0.5), 1.0), (_G2, _A2), UNIT))
    @example(((Fraction(1, 3), "0.25"), (_G2, _G2), POSITIVE))
    def test_matches_per_coordinate_scan(self, case):
        v, specs, domain = case
        positive = next((i for i, spec in enumerate(specs) if spec.requires_positive), None)
        bounds = admissible(domain, positive is not None)
        assert (_check_outcome(check_vector, _fresh(v), specs, domain, positive, bounds)
                == _check_outcome(_reference_check, _fresh(v), specs, domain))

    @pytest.mark.parametrize("v, name", [
        ([1, 10**400], "coordinate 2"), ([-10**400, 1.0, math.nan], "coordinate 1"),
        ([10**400], "coordinate 1"),  # converted before the arity is checked
    ])
    def test_int_beyond_the_float_range_named(self, v, name):
        with pytest.raises(NonFiniteInput, match=f"^{name} is beyond the float range$") as info:
            check_vector(v, (_A2, _A2), REALS, None, admissible(REALS, False))
        assert info.value.component == 1

    @pytest.mark.parametrize("v, sorts", [((1.0, 2.0), 0), ((2.0, 1.0), 0), ((1, 2.0), 1)])
    def test_float_pair_is_not_sorted(self, v, sorts):
        # a pair of exact floats in range is ordered by one comparison; any other pair is sorted
        harmonic = MeanSpec.harmonic(2)
        mapping = MeanTypeMapping((_A2, harmonic), POSITIVE)
        with mock.patch.object(meantype.means, "sorted", create=True, wraps=sorted) as counted:
            eval_mean(harmonic, v, POSITIVE)
            assert counted.call_count == sorts
            mapping.apply(v)
            assert counted.call_count == 2 * sorts


# ---------------------------------------------------------------------------
# Evaluation: properties
# ---------------------------------------------------------------------------

class TestMeanProperties:
    @given(positive_vectors)
    def test_internality_all_kinds(self, v):
        for spec in all_specs(len(v)):
            value = eval_mean(spec, v, POSITIVE)
            assert min(v) <= value <= max(v), spec

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=2, max_value=5))
    def test_reflexivity(self, c, p):
        for spec in all_specs(p):
            assert eval_mean(spec, (c,) * p, POSITIVE) == pytest.approx(c, abs=1e-12)

    @given(positive_vectors)
    def test_power_one_is_arithmetic(self, v):
        p = len(v)
        assert eval_mean(MeanSpec.power(1.0, p), v, POSITIVE) == pytest.approx(
            eval_mean(MeanSpec.arithmetic(p), v, POSITIVE), abs=1e-12, rel=1e-12)

    @given(positive_vectors)
    def test_power_minus_one_is_harmonic(self, v):
        p = len(v)
        assert eval_mean(MeanSpec.power(-1.0, p), v, POSITIVE) == pytest.approx(
            eval_mean(MeanSpec.harmonic(p), v, POSITIVE), abs=1e-12, rel=1e-12)

    @given(positive_vectors)
    def test_quasi_identity_is_arithmetic(self, v):
        p = len(v)
        assert eval_mean(MeanSpec.quasi_arithmetic("identity", p), v, POSITIVE) == pytest.approx(
            eval_mean(MeanSpec.arithmetic(p), v, POSITIVE), abs=1e-10)

    @given(positive_vectors)
    def test_quasi_log_is_geometric(self, v):
        p = len(v)
        assert eval_mean(MeanSpec.quasi_arithmetic("log", p), v, POSITIVE) == pytest.approx(
            eval_mean(MeanSpec.geometric(p), v, POSITIVE), abs=1e-10)

    def test_power_near_zero_continuous(self):
        # just inside the cutoff the geometric formula takes over; values agree
        v = (4.0, 9.0)
        inside = eval_mean(MeanSpec.power(1e-9, 2), v, POSITIVE)
        outside = eval_mean(MeanSpec.power(1e-7, 2), v, POSITIVE)
        assert inside == pytest.approx(6.0, abs=1e-12)
        assert outside == pytest.approx(6.0, abs=1e-6)

    def test_power_large_exponent_no_overflow(self):
        v = (1.0, 1000.0)
        value = eval_mean(MeanSpec.power(200.0, 2), v, POSITIVE)
        assert 1.0 <= value <= 1000.0


#: The kinds of the near-constant table, each evaluated at p = 2, 3, 5 and 10;
#: ``weighted`` takes seeded weights, normalized by their sum.
NEAR_CONSTANT_KINDS = ("harmonic", "geometric", "arithmetic", "quasi:exp", "power:2",
                       "power:3", "power:-1.5", "power:0.5", "median", "weighted")


def _near_constant_cell(kind, p, rnd):
    if kind != "weighted":
        return parse_mean(kind, p)
    r = [rnd.random() for _ in range(p)]
    total = math.fsum(r)
    return MeanSpec.weighted_arithmetic([x / total for x in r])


class TestNearConstantInternality:
    """Gauss iteration spends its last steps on near-constant vectors, where a
    kernel's rounding is largest against the diameter: each coordinate here
    is within 3 ulps of a base ``exp(U(-7, 7))``.  No value may leave
    [min(v), max(v)], through ``eval_mean`` or, at p = 2, the pair form a
    mapping steps through."""

    @pytest.mark.parametrize("p", [2, 3, 5, 10])
    def test_no_value_leaves_the_range(self, p):
        rnd = random.Random(p)
        specs = {kind: _near_constant_cell(kind, p, rnd) for kind in NEAR_CONSTANT_KINDS}
        pairs = {kind: _pair_form(spec) for kind, spec in specs.items()} if p == 2 else {}
        leaks = dict.fromkeys(specs, 0)
        for _ in range(15000):
            base = math.exp(rnd.uniform(-7.0, 7.0))
            ulp = math.ulp(base)
            v = tuple([base + (int(rnd.random() * 7.0) - 3) * ulp for _ in range(p)])
            lo, hi = min(v), max(v)
            for kind, spec in specs.items():
                if not lo <= eval_mean(spec, v, POSITIVE) <= hi:
                    leaks[kind] += 1
                elif kind in pairs and not lo <= pairs[kind](*v) <= hi:
                    leaks[kind] += 1
        assert leaks == dict.fromkeys(specs, 0)


FLOAT_MAX = 1.7976931348623157e308
_EXTREMES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
             1.6983e308, 1.7e308, math.nextafter(FLOAT_MAX, 0.0), FLOAT_MAX)
extreme_vectors = st.lists(
    st.one_of(st.sampled_from(_EXTREMES + tuple(-x for x in _EXTREMES)),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=2, max_size=5,
).map(tuple)


class TestFloatEdges:
    @settings(max_examples=500, deadline=None)
    @given(extreme_vectors)
    @example((1.0, 10.0))
    @example((1.7e308, 1.6983e308))
    @example((math.nextafter(FLOAT_MAX, 0.0), FLOAT_MAX, FLOAT_MAX))  # geometric read below
    def test_catalog_internal_or_mean_type_error(self, v):
        lo, hi = min(v), max(v)
        specs = all_specs(len(v)) + [MeanSpec.power(t, len(v)) for t in (400.0, 1e308, -1e308)]
        specs.append(MeanSpec.quasi_arithmetic("power", len(v), exponent=1e308))
        for spec in specs:
            try:
                value = eval_mean(spec, v)
            except MeanTypeError:
                continue
            # internal to the bit: exp(log(x)) is ~100 ulps off near FLOAT_MAX, clamped
            assert lo <= value <= hi, spec

    @pytest.mark.parametrize("text,v", [
        ("power:1e308", (1.0, 10.0)),
        ("power:-1e308", (1e300, 9.99e299)),
        ("quasi:power:1e308", (1.0, 10.0)),
        ("power:-1e308", (0.5, 10.0)),
    ])
    def test_power_huge_exponent_is_finite(self, text, v):
        value = eval_mean(parse_mean(text, len(v)), v, POSITIVE)
        assert math.isfinite(value)
        assert min(v) <= value <= max(v)

    @pytest.mark.parametrize("v", [
        (1.7e308, 1.6983e308), (-1.7e308, -1.6983e308), (FLOAT_MAX, 1e308, 1.7e308, 1.5e308),
    ])
    def test_median_near_float_max(self, v):
        value = eval_mean(MeanSpec.median(len(v)), v)
        assert math.isfinite(value)
        assert min(v) <= value <= max(v)

    @pytest.mark.parametrize("v", [
        (math.nextafter(FLOAT_MAX, 0.0), FLOAT_MAX, FLOAT_MAX),  # n / sum(1/x) overflows
        (1e-308, 1.1e-308),  # finite reciprocals, their sum overflows
    ])
    def test_harmonic_reciprocal_overflow(self, v):
        value = eval_mean(MeanSpec.harmonic(len(v)), v, POSITIVE)
        assert min(v) <= value <= max(v)

    @pytest.mark.parametrize("text", ["arithmetic", "quasi:identity"])
    @pytest.mark.parametrize("v", [
        (1e308, 1.7e308), (1.7e308, 1.7e308, 1e308), (1.7976931348623157e308, 1e308, 1.5e308),
    ])
    def test_sum_overflow_stays_internal(self, text, v):
        value = eval_mean(parse_mean(text, len(v)), v)
        assert min(v) <= value <= max(v)

    def test_sum_overflow_value(self):
        assert eval_mean(MeanSpec.arithmetic(2), (1e308, 1.7e308)) == 1.35e308

    @pytest.mark.parametrize("v, value", [
        ((FLOAT_MAX, 1.79769313486231e308), FLOAT_MAX),  # the weighted sum overflows
        ((1.0, 1.0000000000000002), 1.0000000000000002),  # it was 1.0000000000005
        ((-FLOAT_MAX, -1.79769313486231e308), -FLOAT_MAX),
    ])
    def test_weights_summing_past_one(self, v, value):
        # 0.5000000000005 + 0.5 is within the weights' tolerance of 1
        spec = MeanSpec.weighted_arithmetic((0.5000000000005, 0.5))
        assert eval_mean(spec, v) == value

    @pytest.mark.parametrize("v", [(5e-324, 1.0), (1.0, 5e-324, 2.0), (1e-310, 3e-320)])
    def test_harmonic_at_subnormals(self, v):
        value = eval_mean(MeanSpec.harmonic(len(v)), v, POSITIVE)
        assert POSITIVE.contains(value)
        assert min(v) <= value <= max(v)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# g and g^{-1} written out here, independent of the kernels the package runs.
_GENERATOR_DEFINITIONS = {
    "identity": (lambda x, q: x, lambda y, q: y),
    "log": (lambda x, q: math.log(x), lambda y, q: math.exp(y)),
    "exp": (lambda x, q: math.exp(x), lambda y, q: math.log(y)),
    "power": (lambda x, q: x ** q, lambda y, q: y ** (1.0 / q)),
}


class TestGenerators:
    @pytest.mark.parametrize("name,param,probes", [
        ("identity", None, (-3.0, 0.0, 7.5)),
        ("log", None, (0.1, 1.0, 42.0)),
        ("exp", None, (-5.0, 0.0, 5.0)),
        ("power", 2.0, (0.5, 1.0, 9.0)),
        ("power", -0.5, (0.25, 4.0, 100.0)),
    ])
    def test_kernel_matches_definition(self, name, param, probes):
        g, g_inv = _GENERATOR_DEFINITIONS[name]
        expected = g_inv(math.fsum(g(x, param) for x in probes) / len(probes), param)
        spec = MeanSpec.quasi_arithmetic(name, len(probes), param)
        value = eval_mean(spec, probes, POSITIVE if spec.requires_positive else REALS)
        assert value == pytest.approx(expected, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("name,param,positive", [
        ("identity", None, False), ("exp", None, False),
        ("log", None, True), ("power", 3.0, True),
    ])
    def test_positivity_follows_generator_domain(self, name, param, positive):
        spec = MeanSpec.quasi_arithmetic(name, 2, exponent=param)
        assert spec.requires_positive is positive

    def test_power_zero_rejected(self):
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.quasi_arithmetic("power", 2, 0.0)
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.quasi_arithmetic("power", 2, math.inf)
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.quasi_arithmetic("power", 2)

    def test_unknown_generator(self):
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.quasi_arithmetic("sinh", 2)


# ---------------------------------------------------------------------------
# MeanSpec validation and parsing
# ---------------------------------------------------------------------------

class TestMeanSpecValidation:
    def test_projection_index_bounds(self):
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.projection(0, 3)
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.projection(4, 3)

    @pytest.mark.parametrize("arity", [True, False, 2.0, 0, -1, "2", None])
    def test_arity_must_be_a_positive_int(self, arity):
        with pytest.raises(InvalidMeanSpec, match=re.escape(f"got {arity!r}")):
            MeanSpec("arithmetic", arity)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidMeanSpec) as info:
            MeanSpec("quadratic", 2)
        assert str(info.value) == f"unknown mean kind 'quadratic'; available: {KINDS}"

    def test_weight_sum_tolerance(self):
        MeanSpec.weighted_arithmetic((0.5, 0.5 + 1e-13))  # inside tolerance
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.weighted_arithmetic((0.5, 0.6))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.weighted_arithmetic((-0.5, 1.5))

    def test_weight_length_must_match_arity(self):
        with pytest.raises(InvalidMeanSpec):
            MeanSpec.weighted_arithmetic((0.5, 0.5), arity=3)

    @pytest.mark.parametrize("kwargs,message", [
        ({"generator": "sinh"}, "unknown generator 'sinh'"),
        ({"generator": "power"}, "power generator requires an exponent"),
        ({"generator": "power", "exponent": 0}, "must be finite and nonzero, got 0"),
        ({"generator": "power", "exponent": math.inf}, "must be finite and nonzero, got inf"),
        ({"generator": "power", "exponent": math.nan}, "must be finite and nonzero, got nan"),
        ({"generator": "log", "exponent": 2.0}, "generator 'log' takes no parameter"),
        ({"generator": "identity", "exponent": 3.0}, "generator 'identity' takes no parameter"),
        ({"generator": "log", "index": 1}, "mean 'quasi_arithmetic' takes no index"),
        ({}, "quasi-arithmetic mean requires a generator"),
    ])
    def test_bad_generator_rejected(self, kwargs, message):
        with pytest.raises(InvalidMeanSpec, match=re.escape(message)):
            MeanSpec("quasi_arithmetic", 2, **kwargs)

    @pytest.mark.parametrize("kind,kwargs,field", [
        ("arithmetic", {"exponent": 3.0}, "exponent"),
        ("median", {"generator": "log"}, "generator"),
        ("power", {"exponent": 2.0, "index": 1}, "index"),
        ("projection", {"index": 1, "weights": (0.5, 0.5)}, "weights"),
        ("weighted_arithmetic", {"weights": (0.5, 0.5), "exponent": 1.0}, "exponent"),
    ])
    def test_field_the_kind_does_not_take_rejected(self, kind, kwargs, field):
        with pytest.raises(InvalidMeanSpec, match=f"^mean {kind!r} takes no {field}, got "):
            MeanSpec(kind, 2, **kwargs)

    @pytest.mark.parametrize("kind,kwargs", [
        ("power", {"exponent": "two"}),
        ("projection", {"index": 1.0}),
        ("projection", {"index": True}),
        ("weighted_arithmetic", {"weights": ("a", 1.0)}),
        ("weighted_arithmetic", {"weights": 0.5}),
    ])
    def test_field_of_the_wrong_type_rejected(self, kind, kwargs):
        with pytest.raises(InvalidMeanSpec):
            MeanSpec(kind, 2, **kwargs)


def _specs_three_ways(p: int) -> list[tuple[str, MeanSpec, MeanSpec, MeanSpec]]:
    """Every kind and generator at arity ``p``, as ``(text, by the constructor,
    by a classmethod, by the parser)``; the constructor gets ints and lists."""
    w = [0.5] + [0.5 / (p - 1)] * (p - 1)
    weights = "weighted:" + ",".join(map(repr, w))
    return [
        ("arithmetic", MeanSpec("arithmetic", p), MeanSpec.arithmetic(p)),
        ("geometric", MeanSpec("geometric", p), MeanSpec.geometric(p)),
        ("harmonic", MeanSpec("harmonic", p), MeanSpec.harmonic(p)),
        ("power:2.0", MeanSpec("power", p, 2), MeanSpec.power(2, p)),
        ("quasi:identity", MeanSpec("quasi_arithmetic", p, generator="identity"),
         MeanSpec.quasi_arithmetic("identity", p)),
        ("quasi:log", MeanSpec("quasi_arithmetic", p, generator="log"),
         MeanSpec.quasi_arithmetic("log", p)),
        ("quasi:exp", MeanSpec("quasi_arithmetic", p, generator="exp"),
         MeanSpec.quasi_arithmetic("exp", p)),
        ("quasi:power:-3.0", MeanSpec("quasi_arithmetic", p, -3, "power"),
         MeanSpec.quasi_arithmetic("power", p, -3)),
        ("median", MeanSpec("median", p), MeanSpec.median(p)),
        ("min", MeanSpec("min", p), MeanSpec.minimum(p)),
        ("max", MeanSpec("max", p), MeanSpec.maximum(p)),
        (f"projection:{p}", MeanSpec("projection", p, index=p), MeanSpec.projection(p, p)),
        (weights, MeanSpec("weighted_arithmetic", p, weights=w),
         MeanSpec.weighted_arithmetic(w)),
    ]


class TestCanonicalForm:
    def test_covers_every_kind_and_generator(self):
        texts = [text for text, *_ in _specs_three_ways(2)]
        kinds = {parse_mean(text, 2).kind for text in texts}
        generators = {parse_mean(text, 2).generator for text in texts} - {None}
        assert sorted(kinds) == sorted(KINDS) and sorted(generators) == sorted(GENERATORS)

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_route_round_trips(self, p):
        for text, built, classmethod_built in _specs_three_ways(p):
            parsed = parse_mean(text, p)
            for spec in (built, classmethod_built, parsed):
                assert spec.canonical() == text
                again = parse_mean(spec.canonical(), p)
                assert again == spec and hash(again) == hash(spec), text
                assert repr(again) == repr(spec), text


class TestParsing:
    @pytest.mark.parametrize("text", [
        "arithmetic", "geometric", "harmonic", "median", "min", "max",
        "power:0.5", "power:-2.0", "projection:2", "quasi:log", "quasi:exp",
        "quasi:identity", "quasi:power:2.0", "weighted:0.3,0.7",
    ])
    def test_canonical_round_trip(self, text):
        spec = parse_mean(text, 2)
        assert parse_mean(spec.canonical(), 2) == spec

    def test_case_insensitive(self):
        assert parse_mean("ARITHMETIC", 2) == MeanSpec.arithmetic(2)
        assert parse_mean("Power:0.5", 2) == MeanSpec.power(0.5, 2)

    def test_scientific_notation(self):
        assert parse_mean("power:1e-3", 2).exponent == 1e-3

    @pytest.mark.parametrize("bad,token", [
        ("quadratic", "quadratic"),
        ("power:abc", "abc"),
        ("projection:x", "x"),
        ("weighted:0.3,oops", "oops"),
        ("", None),
    ])
    def test_errors_name_offending_token(self, bad, token):
        with pytest.raises(ParseError) as exc:
            parse_mean(bad, 2)
        if token is not None:
            assert exc.value.token == token

    def test_weighted_without_weights_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_mean("weighted:", 2)
        assert str(info.value) == "weighted mean needs weights: 'weighted:'"
        assert info.value.token == "weighted:"

    def test_parameter_on_plain_mean_rejected(self):
        with pytest.raises(ParseError):
            parse_mean("arithmetic:2", 2)

    def test_projection_index_checked_against_arity(self):
        with pytest.raises(ParseError):
            parse_mean("projection:5", 3)
