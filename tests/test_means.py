import math
import re

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

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidInterval):
            Interval(1.0, 1.0)
        with pytest.raises(InvalidInterval):
            Interval(2.0, 1.0)

    def test_infinite_endpoint_cannot_be_closed(self):
        with pytest.raises(InvalidInterval):
            Interval(0.0, math.inf, upper_closed=True)

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
    domain per coordinate, then positivity for the first spec needing it."""
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
    return v


def _check_outcome(fn, *args):
    """The bits of the checked vector, or the class, message and component raised."""
    try:
        return [repr(x) for x in fn(*args)]
    except MeanTypeError as exc:
        return type(exc), str(exc), exc.component


_CHECK_DOMAINS = (
    REALS, POSITIVE, UNIT,
    Interval(-1.0, 2.0, lower_closed=True),
    Interval(-math.inf, 0.0, upper_closed=True),
    Interval(5e-324, 1.7e308),
)
_CHECK_COORDS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 2.0, -2.5,
                 1.7e308, -1.7e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf)
_ANY_SIGN_SPECS = (MeanSpec.arithmetic, MeanSpec.median,
                   lambda p: MeanSpec.quasi_arithmetic("exp", p),
                   lambda p: MeanSpec.projection(1, p))
_POSITIVE_SPECS = (MeanSpec.geometric, MeanSpec.harmonic,
                   lambda p: MeanSpec.power(2.0, p),
                   lambda p: MeanSpec.quasi_arithmetic("log", p))


@st.composite
def check_cases(draw):
    """(v, specs, domain): domain endpoints among the coordinates, vectors
    one short or one long, positivity-needing specs at any positions."""
    domain = draw(st.sampled_from(_CHECK_DOMAINS))
    p = draw(st.integers(1, 4))
    makers = draw(st.lists(st.sampled_from(_ANY_SIGN_SPECS + _POSITIVE_SPECS),
                           min_size=p, max_size=p))
    ends = tuple(x for x in (domain.lower, domain.upper) if math.isfinite(x))
    coord = st.one_of(st.sampled_from(_CHECK_COORDS + ends), st.floats())
    v = draw(st.lists(coord, min_size=p - 1, max_size=p + 1))
    return v, tuple(make(p) for make in makers), domain


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
    @example(((-1.0, 2.0), (_A2, _A2), Interval(-1.0, 2.0, lower_closed=True)))
    @example(((5e-324, 1.0), (_A2, _G2), REALS))
    @example(((), (_A2, _A2), REALS))
    def test_matches_per_coordinate_scan(self, case):
        v, specs, domain = case
        positive = next((i for i, spec in enumerate(specs) if spec.requires_positive), None)
        bounds = admissible(domain, positive is not None)
        assert (_check_outcome(check_vector, v, specs, domain, positive, bounds)
                == _check_outcome(_reference_check, v, specs, domain))

    @pytest.mark.parametrize("v, name", [
        ([1, 10**400], "coordinate 2"), ([-10**400, 1.0, math.nan], "coordinate 1"),
        ([10**400], "coordinate 1"),  # converted before the arity is checked
    ])
    def test_int_beyond_the_float_range_named(self, v, name):
        with pytest.raises(NonFiniteInput, match=f"^{name} is beyond the float range$") as info:
            check_vector(v, (_A2, _A2), REALS, None, admissible(REALS, False))
        assert info.value.component == 1


# ---------------------------------------------------------------------------
# Evaluation: properties
# ---------------------------------------------------------------------------

class TestMeanProperties:
    @given(positive_vectors)
    def test_internality_all_kinds(self, v):
        for spec in all_specs(len(v)):
            value = eval_mean(spec, v, POSITIVE)
            assert min(v) - 1e-12 <= value <= max(v) + 1e-12, spec

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
    def test_catalog_internal_or_mean_type_error(self, v):
        lo, hi = min(v), max(v)
        specs = all_specs(len(v)) + [MeanSpec.power(t, len(v)) for t in (400.0, 1e308, -1e308)]
        specs.append(MeanSpec.quasi_arithmetic("power", len(v), exponent=1e308))
        for spec in specs:
            try:
                value = eval_mean(spec, v)
            except MeanTypeError:
                continue
            # internal up to rounding: exp(log(x)) is ~100 ulps off near FLOAT_MAX
            assert math.isfinite(value), spec
            assert max(lo - value, value - hi) <= 1e-12 * max(abs(lo), abs(hi)), spec

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
        assert math.isfinite(value)
        assert min(v) * (1 - 1e-15) <= value <= max(v)

    @pytest.mark.parametrize("text", ["arithmetic", "quasi:identity"])
    @pytest.mark.parametrize("v", [
        (1e308, 1.7e308), (1.7e308, 1.7e308, 1e308), (1.7976931348623157e308, 1e308, 1.5e308),
    ])
    def test_sum_overflow_stays_internal(self, text, v):
        value = eval_mean(parse_mean(text, len(v)), v)
        assert min(v) <= value <= max(v)

    def test_sum_overflow_value(self):
        assert eval_mean(MeanSpec.arithmetic(2), (1e308, 1.7e308)) == 1.35e308

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

    def test_parameter_on_plain_mean_rejected(self):
        with pytest.raises(ParseError):
            parse_mean("arithmetic:2", 2)

    def test_projection_index_checked_against_arity(self):
        with pytest.raises(ParseError):
            parse_mean("projection:5", 3)
