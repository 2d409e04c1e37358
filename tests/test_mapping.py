import json
import math
import pickle
import random
import re
from itertools import count, islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import meantype.mapping
import meantype.means
from meantype import (
    ArityMismatch,
    ConstantVector,
    EmptyVector,
    DomainViolation,
    InvalidMapping,
    Interval,
    InvariantMean,
    IterationTrace,
    MeanSpec,
    MeanTypeError,
    MeanTypeMapping,
    NonFiniteInput,
    NotFoundWithinCap,
    ParseError,
    TraceStep,
    agm_mapping,
    diameter,
    eval_mean,
    find_n0,
    format_mapping_config,
    gauss_iterate,
    invariance_residual,
    is_contractive_at,
    parse_mapping_config,
    parse_mean,
    probe_contractivity,
    product_function,
    projection_mapping,
    sample_vectors,
    shift_average_mapping,
    star_apply,
    uniqueness_probe,
    verify_decomposition,
)
from meantype._record import set_field
from meantype.invariant import _solve
from meantype.mapping import DEFAULT_CAP, _bind_step, _check_count, _pair_step, _search_n0
from meantype.means import _CATALOG, float_vector, midpoint
from conftest import POSITIVE, catalog_mappings


def shift3_oracle(v, n):
    """Hand iteration of (projection 2, projection 3, arithmetic), written
    from the component formulas directly, independent of the package."""
    x = tuple(v)
    for _ in range(n):
        x = (x[1], x[2], (x[0] + x[1] + x[2]) / 3.0)
    return x


# Frozen from the oracle: two applications from (0, 1, 0).
SHIFT3_STEP1 = (1.0, 0.0, 1.0 / 3.0)
SHIFT3_STEP2 = (0.0, 1.0 / 3.0, 4.0 / 9.0)


def test_shift3_oracle_freeze():
    assert shift3_oracle((0.0, 1.0, 0.0), 1) == SHIFT3_STEP1
    assert shift3_oracle((0.0, 1.0, 0.0), 2) == SHIFT3_STEP2


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

class TestDiameter:
    def test_examples(self):
        assert diameter((1.0, 2.0, 4.0)) == 3.0
        assert diameter((7.0, 7.0, 7.0)) == 0.0
        assert diameter((-1.0, 1.0)) == 2.0

    def test_zero_iff_constant(self):
        assert diameter((3.0,)) == 0.0
        assert diameter((3.0, 3.0000001)) > 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            diameter(())

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            diameter((1.0, math.inf))

    @pytest.mark.parametrize("v, name", [
        ((1.0, math.inf), "coordinate 2 is inf"),
        ((1.7e308, 1.7e308, math.nan), "coordinate 3 is nan"),
        ((-math.inf, math.inf, 1.0), "coordinate 1 is -inf"),
    ])
    def test_non_finite_coordinate_named(self, v, name):
        with pytest.raises(NonFiniteInput, match=f"^{name}$"):
            diameter(v)

    @pytest.mark.parametrize("v", [
        (1.7e308, 1.7e308), (1.7e308, -1.7e308), (1.7e308, -1.7e308, 1.7e308),
        (1.7976931348623157e308, 1e308, 1.5e308), (-1.7e308, -1.7e308, -1e308),
    ])
    def test_finite_vector_whose_sum_overflows(self, v):
        assert diameter(v) == max(v) - min(v)

    def test_overflowing_diameter_is_inf(self):
        assert diameter((1.7e308, -1.7e308)) == math.inf

    @pytest.mark.parametrize("v, name", [
        ([10**400, 1], "coordinate 1"), ([1.0, -10**400], "coordinate 2"),
        ([10**400, 10**400 - 5], "coordinate 1"), ([2, 10**400, math.nan], "coordinate 2"),
    ])
    def test_int_beyond_the_float_range_named(self, v, name):
        with pytest.raises(NonFiniteInput, match=f"^{name} is beyond the float range$"):
            diameter(v)

    def test_ints_measure_as_floats(self):
        assert repr(diameter([1, 2, 4])) == "3.0"
        assert diameter([2**53 + 1, 0]) == float(2**53)
        # each int converts, though their sum does not
        assert diameter([10**308, 10**308, 0.5]) == 1e308 - 0.5

    def test_overflowing_sum_skips_the_coordinate_scan(self, monkeypatch):
        calls = []
        isfinite = math.isfinite
        monkeypatch.setattr(math, "isfinite", lambda x: calls.append(x) or isfinite(x))
        assert diameter((1.7e308, 1.7e308, 1e308)) == 1.7e308 - 1e308
        assert calls == []


# ---------------------------------------------------------------------------
# apply / iterate
# ---------------------------------------------------------------------------

def _reference_apply(mapping, v):
    """One eval_mean call per component, errors prefixed with the component."""
    out = []
    for i, spec in enumerate(mapping.components):
        try:
            out.append(eval_mean(spec, v, mapping.domain))
        except MeanTypeError as exc:
            raise type(exc)(f"component {i + 1} ({spec}): {exc}") from exc
    return tuple(out)


def _outcome(fn, *args):
    """The bits of fn's result, or the class and message of what it raised."""
    try:
        return [repr(x) for x in fn(*args)]
    except Exception as exc:
        return type(exc), str(exc)


def _parsed(names, domain=POSITIVE):
    return MeanTypeMapping([parse_mean(name, len(names)) for name in names], domain,
                           name="; ".join(names))


# One mapping per shape of the bound step: projections after a kernel, so
# that the step reorders; one projection only; projections only (a 3-cycle,
# gathered from v + () like any other step, and the swap, which steps as a
# pair); power means beside a geometric one, among them the geometric
# cutoff, a negative exponent and the overflow path, with and without a
# projection; two geometric means, here with the log-space fallback of a
# power mean; and components that share one kernel call (geometric and
# quasi:log, power:2 and quasi:power:2, arithmetic and quasi:identity),
# beside a projection, beside another kernel and alone, and two weighted
# means whose weights differ only in the sign of a zero, which share none.
STEP_SHAPES = [
    _parsed(("arithmetic", "projection:1", "projection:3"), Interval()),
    _parsed(("median", "projection:3", "harmonic")),
    _parsed(("projection:2", "projection:1"), Interval()),
    _parsed(("projection:3", "projection:1", "projection:2"), Interval()),
    _parsed(("power:1e-9", "harmonic", "power:-2")),
    _parsed(("quasi:log", "median", "quasi:power:0.5")),
    _parsed(("power:1e308", "weighted:0.2,0.3,0.5", "geometric")),
    _parsed(("geometric", "projection:1", "power:0.5")),
    _parsed(("quasi:log", "power:1e308", "geometric")),
    _parsed(("geometric", "quasi:log", "projection:1")),
    _parsed(("power:2", "quasi:power:2", "arithmetic")),
    _parsed(("quasi:identity", "arithmetic", "quasi:identity"), Interval()),
    _parsed(("weighted:-0.0,1,-0.0", "weighted:0,1,0", "median"), Interval()),
    # p = 2 pair steps: sums that overflow to +-inf, a reciprocal that
    # overflows, h == inf near float max, a signed zero; and a pair with a
    # kind that has no closed form, whose pair function calls its kernel
    _parsed(("arithmetic", "geometric")),
    _parsed(("median", "min"), Interval()),
    _parsed(("arithmetic", "harmonic")),
    _parsed(("quasi:identity", "harmonic")),
    _parsed(("max", "quasi:log")),
    _parsed(("min", "arithmetic"), Interval()),
    _parsed(("arithmetic", "power:2")),
]
# The catalog plus a sign-requiring mean after two that accept any sign,
# two sign-requiring means after one that accepts any sign, and the step
# shapes.
APPLY_MAPPINGS = catalog_mappings() + [MeanTypeMapping(
    (MeanSpec.arithmetic(3), MeanSpec.median(3), MeanSpec.power(2.0, 3)), Interval(),
    name="mixed-sign"), MeanTypeMapping(
    (MeanSpec.median(3), MeanSpec.harmonic(3), MeanSpec.geometric(3)), Interval(),
    name="two-signed")] + STEP_SHAPES
FLOAT_MAX = math.nextafter(math.inf, 0.0)
BELOW_MAX = math.nextafter(FLOAT_MAX, 0.0)
# A valid, nonconstant vector for each step shape; 1.7e308 sends
# power:1e308 down its overflow path.
STEP_VECTORS = [(-1.5, 2.0, 7.0), (0.5, 3.0, 2.0), (1.0, -4.0), (1.0, 2.0, 3.0),
                (0.25, 3.0, 1e-300), (0.5, 2.0, 8.0), (0.5, 3.0, 1.7e308), (4.0, 0.5, 9.0),
                (0.5, 1.7e308, 3.0), (4.0, 0.5, 9.0), (0.5, 3.0, 2.0), (-1.5, 2.0, 7.0),
                (1.0, -0.0, 1.0),
                (1.7e308, 1.6e308), (-1.7e308, -1.6e308), (5e-324, 1.0), (FLOAT_MAX, BELOW_MAX),
                (1e-310, 5e-324), (-0.0, 5e-324), (1.0, 3.0)]


def with_step_examples(case):
    """``@example(*case(shape, v))`` for each step shape and its vector."""
    def decorate(test):
        for shape, v in zip(STEP_SHAPES, STEP_VECTORS):
            test = example(*case(shape, v))(test)
        return test
    return decorate


EDGE_COORDS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -1e-310, 1.0, -2.5, 1.7e308, -1.7e308,
                     math.nan, math.inf, -math.inf)),
    st.floats(),
)
PAIR_COORDS = st.one_of(
    st.sampled_from((0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0, 3.0, 1e308,
                     1.6e308, 1.7e308, BELOW_MAX, FLOAT_MAX)),
    st.floats(min_value=0.0, max_value=FLOAT_MAX),
)


#: Every catalog kind as a p = 2 mean form: the keys with a closed form,
#: both projections, and the kinds whose pair function calls their kernel,
#: power at its geometric cutoff, a negative exponent and its overflow path.
PAIR_KINDS = sorted(key for key, (_, pair, _) in _CATALOG.items() if pair) + [
    "projection:1", "projection:2", "power:2", "power:-1.5", "power:1e-9", "power:1e308",
    "quasi:exp", "quasi:power:0.5", "weighted:0.3,0.7"]


def _count_kernel_calls(monkeypatch):
    """Replace each distinct binder of ``means._CATALOG`` with one whose bound
    kernels append the first key it serves to the returned list when called,
    so that rows sharing a binder (``geometric`` and ``quasi:log``, say) share
    one wrapper and one count; specs and mappings built afterwards bind them."""
    calls, wrapped = [], {}

    def counted(key, binder):
        def bind(spec):
            kernel = binder(spec)
            return lambda *args: calls.append(key) or kernel(*args)
        return bind

    for key, (binder, *_) in _CATALOG.items():
        wrapped.setdefault(binder, counted(key, binder))
    table = {key: (wrapped[binder], *rest) for key, (binder, *rest) in _CATALOG.items()}
    monkeypatch.setattr(meantype.means, "_CATALOG", table)
    return calls


class TestApply:
    def test_agm_pair(self, agm):
        result = agm.apply((1.0, 2.0))
        assert result[0] == 1.5
        assert result[1] == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_agm_quasi_log_variant(self):
        mapping = MeanTypeMapping(
            (MeanSpec.arithmetic(2), MeanSpec.quasi_arithmetic("log", 2)),
            Interval(0.0, math.inf))
        result = mapping.apply((1.0, 2.0))
        assert result == (1.5, pytest.approx(math.sqrt(2.0), abs=1e-12))

    def test_constant_vector_is_fixed_point(self):
        for mapping in catalog_mappings():
            v = (3.0,) * mapping.p
            assert mapping.apply(v) == v

    def test_shift3(self, shift3):
        assert shift3.apply((0.0, 1.0, 0.0)) == SHIFT3_STEP1

    def test_image_stays_in_domain(self):
        for mapping in catalog_mappings():
            for v in sample_vectors(mapping.domain, mapping.p, 50, seed=9):
                image = mapping.apply(v)
                assert all(mapping.domain.contains(x) for x in image), mapping

    @pytest.mark.parametrize("call, step", [
        (lambda m, v: m.apply(v), False),
        (lambda m, v: m.iterate(v, 3), True),
        (lambda m, v: gauss_iterate(m, v), True),
        (lambda m, v: find_n0(m, v), True),
    ], ids=["apply", "iterate", "gauss_iterate", "find_n0"])
    def test_component_errors_annotated(self, call, step):
        # arithmetic accepts (-1, 2) on the whole line; geometric then fails
        mapping = MeanTypeMapping(
            (MeanSpec.arithmetic(2), MeanSpec.geometric(2)), Interval())
        with pytest.raises(DomainViolation, match="component 2") as info:
            call(mapping, (-1.0, 2.0))
        assert str(info.value).startswith("step 1: ") == step

    def test_checks_each_coordinate_once(self, monkeypatch):
        # a valid vector passes on its min and max against the mapping's _bounds
        calls = []
        contains = Interval.contains
        monkeypatch.setattr(Interval, "contains", lambda dom, x: calls.append(x) or contains(dom, x))
        shift_average_mapping(10).apply(tuple(float(i) for i in range(10)))
        assert calls == []

    def test_calls_each_distinct_kernel_once_in_order(self, monkeypatch):
        # gauss-long's mixed10: geometric and quasi:log share one _geometric call
        names = ("arithmetic", "geometric", "harmonic", "power:0.5", "power:3", "quasi:log",
                 "quasi:exp", "quasi:power:2", "median", "weighted:" + ",".join(["0.1"] * 10))
        v = tuple(1.5 + i for i in range(10))
        expected = _reference_apply(_parsed(names), v)
        calls = _count_kernel_calls(monkeypatch)
        assert _parsed(names).apply(v) == expected
        assert calls == ["arithmetic", "geometric", "harmonic", "power", "power", "quasi:exp",
                         "power", "median", "weighted_arithmetic"]
        assert calls.count("geometric") == 1

    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(PAIR_KINDS), st.sampled_from(PAIR_KINDS),
           PAIR_COORDS, PAIR_COORDS, st.booleans(), st.booleans())
    @example("arithmetic", "max", 1.7e308, 1.6e308, False, False)  # x + y overflows
    @example("median", "quasi:identity", 1.7e308, 1.6e308, True, True)  # to -inf
    @example("min", "arithmetic", 1.7e308, 1.7e308, True, False)  # x + y == 0.0
    @example("arithmetic", "median", 5e-324, 0.0, True, False)  # halves a subnormal
    @example("arithmetic", "harmonic", 5e-324, 1.0, False, False)  # 1 / x overflows
    @example("harmonic", "geometric", 1e-310, 5e-324, False, False)  # subnormals
    @example("harmonic", "quasi:log", FLOAT_MAX, BELOW_MAX, False, False)  # h == inf
    @example("projection:2", "power:1e308", 1.7e308, 1e308, False, False)  # power overflows
    @example("quasi:exp", "weighted:0.3,0.7", 1e308, 3.0, True, False)
    def test_pair_step_matches_the_kernels(self, k0, k1, x, y, negate_x, negate_y):
        specs = [parse_mean(k0, 2), parse_mean(k1, 2)]
        if any(spec.requires_positive for spec in specs):
            assume(x > 0.0 and y > 0.0)
        else:
            x, y = (-x if negate_x else x), (-y if negate_y else y)
        assume(x != y)  # the step runs on checked, nonconstant vectors
        s = sorted((x, y))
        expected = tuple(spec._kernel((x, y), s) for spec in specs)
        step = _bind_step(specs, _pair_step(specs))
        assert [r.hex() for r in step((x, y), s)] == [r.hex() for r in expected]

    @pytest.mark.parametrize("kinds", [
        ("arithmetic", "geometric"), ("arithmetic", "harmonic"), ("median", "quasi:log"),
        ("quasi:identity", "min"), ("max", "harmonic"),
    ])
    def test_pair_step_calls_no_kernel(self, monkeypatch, kinds):
        expected = _reference_apply(_parsed(kinds), (1.3, 712.0))
        calls = _count_kernel_calls(monkeypatch)
        assert _parsed(kinds).apply((1.3, 712.0)) == expected
        assert calls == []

    def test_pair_calls_only_its_general_kinds_kernel(self, monkeypatch):
        kinds = ("arithmetic", "power:2")
        expected = _reference_apply(_parsed(kinds), (1.3, 712.0))
        calls = _count_kernel_calls(monkeypatch)
        assert _parsed(kinds).apply((1.3, 712.0)) == expected
        assert calls == ["power"]

    def test_reads_no_spec_flag_or_kernel_table_per_call(self, monkeypatch):
        reads = []
        requires_positive = MeanSpec.requires_positive.fget
        monkeypatch.setattr(MeanSpec, "requires_positive",
                            property(lambda spec: reads.append(spec) or requires_positive(spec)))

        class CountingTable(dict):
            def __getitem__(self, kind):
                reads.append(kind)
                return super().__getitem__(kind)

        table = CountingTable(_CATALOG)
        monkeypatch.setattr(meantype.means, "_CATALOG", table)
        mappings = catalog_mappings()
        mixed_sign = MeanTypeMapping(
            (MeanSpec.arithmetic(3), MeanSpec.median(3), MeanSpec.power(2.0, 3)), Interval())
        assert reads  # construction binds through both
        reads.clear()
        for mapping in mappings:
            for v in sample_vectors(mapping.domain, mapping.p, 5, seed=3):
                mapping.apply(v)
        mixed_sign.apply((1.0, 2.0, 3.0))
        mixed_sign.apply((2.0, 2.0, 2.0))
        with pytest.raises(DomainViolation, match="component 3"):
            mixed_sign.apply((-1.0, 2.0, 3.0))
        assert reads == []

    def test_pickles_with_bound_kernels(self):
        for mapping in APPLY_MAPPINGS:
            copy = pickle.loads(pickle.dumps(mapping))
            assert copy == mapping
            v = (2.0, 3.0, 5.0)[:mapping.p]
            assert copy.apply(v) == mapping.apply(v)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(APPLY_MAPPINGS), st.lists(EDGE_COORDS, min_size=1, max_size=4))
    @with_step_examples(lambda shape, v: (shape, v))
    def test_matches_per_component_eval_mean(self, mapping, v):
        assert _outcome(mapping.apply, v) == _outcome(_reference_apply, mapping, v)

    def test_shift_average_family_needs_two_coordinates(self):
        with pytest.raises(InvalidMapping) as info:
            shift_average_mapping(1)
        assert str(info.value) == "shift-average family needs p >= 2, got 1"

    def test_arity_enforced_at_construction(self):
        with pytest.raises(InvalidMapping):
            MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.arithmetic(3)), Interval())
        with pytest.raises(InvalidMapping):
            MeanTypeMapping((MeanSpec.arithmetic(2),), Interval())

    def test_components_are_internal(self):
        for mapping in catalog_mappings():
            # the three stress vectors, then 200 uniform ones from seed 17
            for v in sample_vectors(mapping.domain, mapping.p, 3 + 200, seed=17):
                for spec in mapping.components:
                    value = eval_mean(spec, v, mapping.domain)
                    assert min(v) - 1e-12 <= value <= max(v) + 1e-12, (mapping, spec, v)


class TestIterate:
    def test_zero_steps(self, agm):
        trace = agm.iterate((1.0, 2.0), 0)
        assert len(trace) == 1
        assert trace.last.vector == (1.0, 2.0)
        assert trace.last.diameter == 1.0

    def test_one_step_agm(self, agm):
        trace = agm.iterate((1.0, 2.0), 1)
        assert trace.last.vector == (1.5, pytest.approx(math.sqrt(2.0), abs=1e-15))

    def test_shift3_two_steps_matches_oracle(self, shift3):
        trace = shift3.iterate((0.0, 1.0, 0.0), 2)
        assert trace.last.vector == pytest.approx(SHIFT3_STEP2, abs=1e-15)
        assert trace.last.diameter == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_steps_chain_by_application(self, shift3):
        trace = shift3.iterate((0.25, -0.75, 2.0), 6)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            expected = shift3.apply(prev.vector)
            assert cur.vector == pytest.approx(expected, abs=1e-12)

    def test_diameters_nonincreasing(self, shift3):
        trace = shift3.iterate((0.0, 1.0, 0.0), 20)
        diams = [s.diameter for s in trace.steps]
        assert all(b <= a + 1e-12 for a, b in zip(diams, diams[1:]))

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
           st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    def test_semigroup_property(self, v, m, n):
        mapping = catalog_mappings()[-1]  # shift-average, domain all reals
        whole = mapping.iterate(v, m + n).last.vector
        split = mapping.iterate(mapping.iterate(v, m).last.vector, n).last.vector
        assert split == pytest.approx(whole, abs=1e-10)

    def test_negative_count_rejected(self, agm):
        with pytest.raises(InvalidMapping):
            agm.iterate((1.0, 2.0), -1)

    def test_int_beyond_the_float_range_named(self, agm):
        with pytest.raises(NonFiniteInput, match="^coordinate 1 is beyond the float range$"):
            agm.iterate([10**400, 1], 2)

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_last_iterate_checked_as_the_next_step_would(self, agm, steps):
        with pytest.raises(DomainViolation) as info:
            agm.iterate((-1.0, 2.0), steps)
        assert _error(info.value) == (DomainViolation, "step 1: component 1 (arithmetic): "
                                      "coordinate 1 = -1.0 outside domain (0.0, inf)", 1)

    def test_last_iterate_that_leaves_the_domain(self):
        assert len(LEAVES_PAIR.iterate(LEAVES_PAIR_START, 0)) == 1
        with pytest.raises(DomainViolation) as info:
            LEAVES_PAIR.iterate(LEAVES_PAIR_START, 1)
        assert _error(info.value) == LEAVES_PAIR_ERROR


def _at_step(n, exc):
    """``exc`` with ``step n: `` prepended and its attributes kept."""
    new = type(exc)(f"step {n}: {exc}")
    new.__dict__.update(exc.__dict__)
    return new


def _reference_orbit(mapping, v):
    """``apply`` then ``diameter`` per step, errors prefixed with the step."""
    v = float_vector(v)
    yield 0, v, diameter(v)
    for n in count(1):
        try:
            v = mapping.apply(v)
        except MeanTypeError as exc:
            raise _at_step(n, exc) from exc
        yield n, v, diameter(v)


def _checked_orbit(mapping, v):
    """``orbit``, each iterate yielded once step n + 1 accepts it: the Gauss
    loop's rule.  An iterate that ``apply`` rejects raises what that step
    raises, the start included."""
    for n, current, d in mapping.orbit(v):
        try:
            mapping.apply(current)
        except MeanTypeError as exc:
            raise _at_step(n + 1, exc) from exc
        yield n, current, d


def _orbit_outcome(orbit, steps):
    """The bits of the first ``steps`` yields, then what was raised (class,
    message, ``component``) if anything was."""
    seen = []
    try:
        for n, v, d in islice(orbit, steps):
            seen.append((n, [x.hex() for x in v], d.hex()))
    except Exception as exc:
        seen.append((type(exc), str(exc), getattr(exc, "component", None)))
    return seen


def _mixed(p):
    kinds = (MeanSpec.arithmetic, MeanSpec.geometric, MeanSpec.harmonic,
             lambda n: MeanSpec.power(2.0, n), MeanSpec.median,
             MeanSpec.minimum, MeanSpec.maximum, lambda n: MeanSpec.power(-1.0, n),
             lambda n: MeanSpec.quasi_arithmetic("log", n), lambda n: MeanSpec.projection(1, n))
    return MeanTypeMapping([kinds[i](p) for i in range(p)], Interval(0.0, math.inf),
                           name=f"mixed{p}")


UNIT = Interval(0.0, 1.0, lower_closed=True, upper_closed=True)
UNIT_OPEN_LOW = Interval(0.0, 1.0, upper_closed=True)
UNIT_OPEN_HIGH = Interval(0.0, 1.0, lower_closed=True)
# The apply mappings (catalog, mixed-sign, two-signed, step shapes), wider
# and longer ones, the projections stall, and finite closed and open domain
# endpoints.
ORBIT_MAPPINGS = APPLY_MAPPINGS + [
    shift_average_mapping(10), _mixed(5), _mixed(10),
    projection_mapping(2),
    shift_average_mapping(3, UNIT), shift_average_mapping(3, UNIT_OPEN_LOW),
    shift_average_mapping(3, UNIT_OPEN_HIGH),
    MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.geometric(2)), UNIT_OPEN_LOW),
    MeanTypeMapping((MeanSpec.median(3), MeanSpec.harmonic(3), MeanSpec.geometric(3)), UNIT,
                    name="two-signed-unit"),
    MeanTypeMapping((MeanSpec.minimum(2), MeanSpec.maximum(2)), UNIT_OPEN_HIGH),
    MeanTypeMapping((MeanSpec.arithmetic(3), MeanSpec.median(3), MeanSpec.power(2.0, 3)),
                    UNIT_OPEN_LOW, name="mixed-sign-unit"),
]
ORBIT_COORDS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, 1.0, -2.5, 1.7e308, -1.7e308,
                     math.nan, math.inf, -math.inf)),
    st.floats(), st.floats(min_value=0.0, max_value=1.0), st.integers(-3, 3), st.integers(),
)


@st.composite
def orbit_cases(draw):
    """A mapping and a start vector: mostly of its arity, sometimes constant,
    sometimes empty, one short or one long."""
    mapping = draw(st.sampled_from(ORBIT_MAPPINGS))
    p = mapping.p
    size = draw(st.sampled_from((p, p, p, 0, 1, p - 1, p + 1)))
    if size and draw(st.booleans()):
        return mapping, [draw(ORBIT_COORDS)] * size
    return mapping, draw(st.lists(ORBIT_COORDS, min_size=size, max_size=size))


class TestOrbit:
    """``orbit`` yields what ``apply`` then ``diameter`` per step give, and
    raises what they raise."""

    @settings(max_examples=600, deadline=None)
    @given(orbit_cases())
    @example((shift_average_mapping(3), [1.7e308, 1.7e308, -1.7e308]))  # the sum overflows
    @example((shift_average_mapping(3), [1, 2, 3]))
    @example((shift_average_mapping(3), []))
    @example((shift_average_mapping(3), [0.0, -0.0, 0.0]))
    @example((shift_average_mapping(3, UNIT), [0.0, 1.0, 0.5]))
    @example((shift_average_mapping(3, UNIT_OPEN_LOW), [0.0, 1.0, 0.5]))
    @example((shift_average_mapping(3, UNIT_OPEN_HIGH), [0.0, 1.0, 0.5]))
    @example((MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.geometric(2)), UNIT_OPEN_LOW),
              [0.0, 1.0]))
    @example((ORBIT_MAPPINGS[-4], [0.0, 0.5, 1.0]))  # p = 2: the arity, not the domain, fails
    @example((ORBIT_MAPPINGS[-3], [0.0, 0.5, 1.0]))  # in [0, 1], not positive
    @example((agm_mapping(), [1.7e308, 8e307]))  # a stall whose sums overflow
    @example((agm_mapping(), [1.7e308, math.inf]))  # an infinite sum, not an overflow
    @with_step_examples(lambda shape, v: ((shape, v),))
    def test_matches_apply_then_diameter(self, case):
        mapping, v = case
        assert (_orbit_outcome(mapping.orbit(v), 12)
                == _orbit_outcome(_reference_orbit(mapping, v), 12))

    def test_wrong_arity_raises_at_step_one(self, shift3):
        orbit = shift3.orbit((1, 2))
        assert next(orbit) == (0, (1.0, 2.0), 1.0)
        with pytest.raises(ArityMismatch, match=r"^step 1: component 1 \(") as info:
            next(orbit)
        assert info.value.component == 1

    def test_overflowing_sums_measured(self, agm):
        # every sum overflows, yet each iterate is finite and in the domain
        assert [d for _, _, d in islice(agm.orbit((1.7e308, 1e308)), 3)] == [
            6.999999999999999e307, 4.615951895947036e306, 2.0073384045609764e304]


# ---------------------------------------------------------------------------
# Contractivity
# ---------------------------------------------------------------------------

class TestContractivity:
    def test_agm_contractive_at_example(self, agm):
        assert is_contractive_at(agm, (1.0, 2.0))

    def test_shift3_not_contractive_at_alternating(self, shift3):
        # image (1, 0, 1/3) spans the same range as (0, 1, 0)
        assert not is_contractive_at(shift3, (0.0, 1.0, 0.0))

    def test_projections_never_contractive(self, projections):
        assert not is_contractive_at(projections, (0.0, 1.0))

    def test_constant_vector_rejected(self, agm):
        with pytest.raises(ConstantVector):
            is_contractive_at(agm, (2.0, 2.0))

    def test_int_beyond_the_float_range_rejected(self, agm):
        with pytest.raises(NonFiniteInput, match="^coordinate 1 is beyond the float range$"):
            is_contractive_at(agm, [10**400, 1])

    def test_probe_agm_finds_nothing(self, agm):
        verdict = probe_contractivity(agm, sample_count=10_000, seed=42)
        assert not verdict.found
        assert verdict.counterexample is None
        assert verdict.samples_tested > 9000

    def test_probe_projections_finds_witness(self, projections):
        verdict = probe_contractivity(projections, sample_count=100, seed=42)
        assert verdict.found
        assert diameter(verdict.counterexample) > 1e-9
        assert not is_contractive_at(projections, verdict.counterexample)

    def test_probe_shift3_finds_witness(self, shift3):
        verdict = probe_contractivity(shift3, sample_count=1000, seed=42)
        assert verdict.found
        assert not is_contractive_at(shift3, verdict.counterexample)

    def test_probe_computes_each_diameter_once(self, monkeypatch, agm):
        calls = []
        monkeypatch.setattr(meantype.mapping, "diameter",
                            lambda v: calls.append(v) or diameter(v))
        probe_contractivity(agm, 50, seed=3)
        # the skip check, once per sample; the run loop measures the image itself
        assert len(calls) == 50

    def test_probe_deterministic(self, shift3):
        a = probe_contractivity(shift3, 500, seed=1)
        b = probe_contractivity(shift3, 500, seed=1)
        assert a.counterexample == b.counterexample
        assert a.samples_tested == b.samples_tested

    def test_probe_that_tests_nothing_raises(self):
        # every sample of the negative half-line fails the geometric mean
        negative = MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.geometric(2)),
                                   Interval(-math.inf, 0.0))
        with pytest.raises(MeanTypeError, match=r"tested none of its 20 samples on domain "
                                                r"\(-inf, 0.0\): each had diameter <= 1e-09 "):
            probe_contractivity(negative, 20)

    @pytest.mark.parametrize("domain", [
        Interval(1.0, 1.0000000001, True, True), Interval(1.0, 1.000000000001),
        Interval(0.0, 1e-320)], ids=["1e-10", "1e-12", "subnormal"])
    def test_probe_tests_a_narrow_domain(self, domain):
        # the skip threshold scales with the sampling box, so its samples are not noise
        verdict = probe_contractivity(
            MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.maximum(2)), domain), 20)
        assert not verdict.found and verdict.samples_tested + verdict.skipped == 20
        assert verdict.samples_tested >= 18  # the near-constant sample may round to constant


class TestDiameterMonotonicity:
    def test_bulk_samples(self):
        violations = 0
        for mapping in catalog_mappings():
            for v in sample_vectors(mapping.domain, mapping.p, 500, seed=23):
                if diameter(mapping.apply(v)) > diameter(v) + 1e-12:
                    violations += 1
        assert violations == 0

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=2, max_size=2))
    def test_agm_random_vectors(self, v):
        mapping = catalog_mappings()[0]
        assert diameter(mapping.apply(v)) <= diameter(v) + 1e-12


# ---------------------------------------------------------------------------
# n0 and the derived mapping
# ---------------------------------------------------------------------------

class TestFindN0:
    def test_contractive_mapping_has_n0_one(self, agm):
        assert find_n0(agm, (1.0, 2.0)) == 1

    def test_shift3_pinned_vector(self, shift3):
        assert find_n0(shift3, (0.0, 1.0, 0.0), cap=10) == 2

    def test_projections_not_found(self, projections):
        with pytest.raises(NotFoundWithinCap) as exc:
            find_n0(projections, (0.0, 1.0), cap=50)
        err = exc.value
        assert err.cap == 50
        assert err.trace is not None
        assert len(err.trace) == 51
        assert err.trace.last.diameter == 1.0

    @pytest.mark.parametrize("search", [find_n0, star_apply])
    def test_cap_trace_equals_iterate(self, search, projections):
        with pytest.raises(NotFoundWithinCap) as exc:
            search(projections, (0.0, 1.0), cap=7)
        assert exc.value.trace == projections.iterate((0.0, 1.0), 7)

    def test_constant_vector_rejected(self, shift3):
        with pytest.raises(ConstantVector):
            find_n0(shift3, (1.0, 1.0, 1.0))

    def test_cap_validation(self, shift3):
        with pytest.raises(InvalidMapping):
            find_n0(shift3, (0.0, 1.0, 0.0), cap=0)

    def test_agrees_with_is_contractive_at(self, shift3):
        # contractive at v exactly when the first iterate already drops
        for v in sample_vectors(shift3.domain, 3, 200, seed=31):
            if diameter(v) == 0.0:
                continue
            contractive = is_contractive_at(shift3, v)
            try:
                n0 = find_n0(shift3, v, cap=1)
                assert contractive and n0 == 1
            except NotFoundWithinCap:
                assert not contractive


class TestStarApply:
    def test_agm(self, agm):
        assert star_apply(agm, (1.0, 2.0)) == agm.apply((1.0, 2.0))

    def test_shift3_pinned_vector(self, shift3):
        assert star_apply(shift3, (0.0, 1.0, 0.0)) == pytest.approx(SHIFT3_STEP2, abs=1e-15)

    def test_constant_fixed_point(self, shift3):
        assert star_apply(shift3, (2.0, 2.0, 2.0)) == (2.0, 2.0, 2.0)

    def test_strict_decrease(self, shift3):
        for v in sample_vectors(shift3.domain, 3, 300, seed=77):
            if diameter(v) == 0.0:
                continue
            assert diameter(star_apply(shift3, v)) < diameter(v)

    def test_start_diameter_computed_once(self, monkeypatch, shift3):
        calls = []
        monkeypatch.setattr(meantype.mapping, "diameter",
                            lambda v: calls.append(v) or diameter(v))
        find_n0(shift3, (0.0, 1.0, 0.0))
        assert len(calls) == 0  # the Gauss loop measures M^0, M^1, M^2 as it checks them
        calls.clear()
        star_apply(shift3, (0.0, 1.0, 0.0))
        assert len(calls) == 0

    def test_constant_checked_before_cap(self, shift3):
        assert star_apply(shift3, (2.0, 2.0, 2.0), cap=0) == (2.0, 2.0, 2.0)
        with pytest.raises(InvalidMapping):
            find_n0(shift3, (2.0, 2.0, 2.0), cap=0)

    def test_not_found_propagates(self, projections):
        with pytest.raises(NotFoundWithinCap):
            star_apply(projections, (0.0, 1.0), cap=10)


# ---------------------------------------------------------------------------
# The one Gauss run loop: the n0 search against the orbit walk it replaced
# ---------------------------------------------------------------------------

#: (power:-1e300, maximum) on [1.6983e308, inf): power rounds 1.5e-13 below
#: the least coordinate, so the first iterate of LEAVES_CLOSED_START leaves
#: the closed domain and step 2 rejects it.
LEAVES_CLOSED = MeanTypeMapping((parse_mean("power:-1e300", 2), MeanSpec.maximum(2)),
                                Interval(1.6983e308, math.inf, lower_closed=True),
                                name="leaves-closed")
LEAVES_CLOSED_START = [1.7e308, 1.6983e308]


#: Starts the AGM pair rejects, with the error every run raises for them,
#: though all but the fourth already meet any stop rule.
INVALID_AGM_STARTS = [
    ((-1.0, -1.0), DomainViolation, "step 1: component 1 (arithmetic): "
                                    "coordinate 1 = -1.0 outside domain (0.0, inf)"),
    ((5.0,), ArityMismatch, "step 1: component 1 (arithmetic): "
                            "mean arithmetic has arity 2, got vector of length 1"),
    ((2.0, 2.0, 2.0), ArityMismatch, "step 1: component 1 (arithmetic): "
                                     "mean arithmetic has arity 2, got vector of length 3"),
    ((-1.0, 2.0), DomainViolation, "step 1: component 1 (arithmetic): "
                                   "coordinate 1 = -1.0 outside domain (0.0, inf)"),
    ([10**400, 10**400], NonFiniteInput, "coordinate 1 is beyond the float range"),
]
INVALID_AGM_START_IDS = ["outside-domain", "short", "long", "nonconstant", "int-beyond-float"]


def _error(exc):
    return type(exc), str(exc), getattr(exc, "component", None)


def _orbit_search_n0(mapping, v, cap):
    """``_search_n0`` as a walk over the checked orbit."""
    orbit = _checked_orbit(mapping, v)
    steps = [next(orbit)]
    _, start, d0 = steps[0]
    if d0 == 0.0:
        return 0, start
    _check_count("cap", cap, 1)
    for step in islice(orbit, cap):
        n, current, dn = step
        if dn < d0:
            return n, current
        steps.append(step)
    raise NotFoundWithinCap(
        f"no diameter decrease within {cap} iterations "
        f"(start diameter {d0!r}, final {dn!r})",
        trace=IterationTrace(mapping, [TraceStep(*s) for s in steps]),
        cap=cap,
    )


def _n0_outcome(search, mapping, v, cap):
    """The bits of ``(n0, image)``, or the class, message and ``component``
    of the error, with the bits of the trace of a ``NotFoundWithinCap``."""
    try:
        n0, image = search(mapping, v, cap)
    except NotFoundWithinCap as exc:
        return _error(exc) + (exc.cap, [(s.step, [x.hex() for x in s.vector], s.diameter.hex())
                                        for s in exc.trace.steps])
    except MeanTypeError as exc:
        return _error(exc)
    return n0, [x.hex() for x in image]


class TestGaussRun:
    @settings(max_examples=400, deadline=None)
    @given(orbit_cases(), st.one_of(st.integers(-1, 12), st.just(DEFAULT_CAP)))
    @example((shift_average_mapping(3), [0.0, 1.0, 0.0]), 1)  # no drop within the cap
    @example((shift_average_mapping(3), [2.0, 2.0, 2.0]), 0)  # constant before the cap check
    @example((agm_mapping(), [-1.0, -1.0]), 0)  # an invalid constant start
    @example((agm_mapping(), [1.7e308, 1e308]), DEFAULT_CAP)
    @example((projection_mapping(2), [0, 1]), DEFAULT_CAP)
    @example((LEAVES_CLOSED, LEAVES_CLOSED_START), 1)
    @example((LEAVES_CLOSED, LEAVES_CLOSED_START), 2)
    def test_search_n0_matches_the_orbit_walk(self, case, cap):
        mapping, v = case
        assert (_n0_outcome(_search_n0, mapping, v, cap)
                == _n0_outcome(_orbit_search_n0, mapping, v, cap))

    # the closed-endpoint cases put iterates on both ends of [0, 1]: the start
    # (0, 1) or (1, 0) holds one coordinate on each, and min, max or the
    # projection keeps one there, in the scalar loop (with a closed form, and
    # with a projection beside a kernel) and in the tuple loop's check; an
    # exclusive bound would send them to apply
    @pytest.mark.parametrize("mapping, v", [
        (agm_mapping(), (1.0, 2.0)), (agm_mapping(), (1.7e308, 1e308)),
        (shift_average_mapping(3), (0.0, 1.0, 0.0)), (_mixed(5), (1.0, 2.0, 3.0, 4.0, 5.0)),
        *[(_parsed(names, UNIT), v) for names in [("min", "arithmetic"), ("max", "arithmetic"),
                                                   ("projection:1", "weighted:0.5,0.5")]
          for v in [(0.0, 1.0), (1.0, 0.0)]],
        (_parsed(("projection:1", "min", "arithmetic"), UNIT), (0.0, 1.0, 0.5)),
    ], ids=["p2", "p2-overflowing-sums", "p3", "p5",
            *[f"closed-{loop}-{v}" for loop in ["min", "max", "p2-kernel"] for v in ["01", "10"]],
            "closed-p3"])
    def test_valid_iterates_bypass_apply_and_diameter(self, monkeypatch, mapping, v):
        calls = []
        monkeypatch.setattr(MeanTypeMapping, "apply", lambda m, v: calls.append(v))
        monkeypatch.setattr(meantype.mapping, "diameter", lambda v: calls.append(v))
        n, _, _, _ = _solve(mapping, v, 1e-12, 20, False)
        assert n > 0
        assert _search_n0(mapping, v, 20)[0] > 0
        assert calls == []

    @pytest.mark.parametrize("search", [find_n0, star_apply, is_contractive_at])
    @pytest.mark.parametrize("v, error, message", INVALID_AGM_STARTS,
                             ids=INVALID_AGM_START_IDS)
    def test_invalid_start_raises(self, agm, search, v, error, message):
        # a constant one too: the error a nonconstant start of its kind raises
        with pytest.raises(error) as info:
            search(agm, v)
        assert str(info.value) == message

    def test_start_checked_before_the_cap(self, agm):
        with pytest.raises(DomainViolation, match="^step 1: "):
            star_apply(agm, (-1.0, -1.0), cap=0)
        with pytest.raises(InvalidMapping):  # find_n0 checks its cap first, as before
            find_n0(agm, (-1.0, -1.0), cap=0)

    @pytest.mark.parametrize("search", [find_n0, star_apply])
    def test_iterator_start_gets_its_cap_hit_trace(self, projections, search):
        # the start is read once: the run and the error's trace walk the same vector
        with pytest.raises(NotFoundWithinCap) as info:
            search(projections, iter([0.0, 1.0]), cap=3)
        assert info.value.trace == projections.iterate((0.0, 1.0), 3)
        assert len(info.value.trace) == 4

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(orbit_cases(), st.integers(1, 12), st.sampled_from([find_n0, star_apply]))
    @example((projection_mapping(2), [0, 1]), 5, find_n0)
    @example((shift_average_mapping(3), [0.0, 1.0, 0.0]), 1, star_apply)
    @example((shift_average_mapping(10), [0.0] * 9 + [1.0]), 5, find_n0)
    def test_cap_hit_trace_agrees_with_its_run(self, case, cap, search):
        mapping, v = case
        try:
            search(mapping, v, cap)
        except NotFoundWithinCap as exc:
            trace = exc.trace
            assert len(trace) == cap + 1
            assert str(exc) == (f"no diameter decrease within {cap} iterations (start diameter "
                                f"{trace.steps[0].diameter!r}, final {trace.last.diameter!r})")
        except MeanTypeError:
            pass


#: The calls that take a count, by id: the name their error gives the count,
#: and the call.  Each converges on its input.
SHIFT3_MAPPING, SHIFT3_START = shift_average_mapping(3), (0.0, 1.0, 0.0)
COUNT_CALLS = {
    "gauss_iterate": ("max_iter", lambda c: gauss_iterate(
        SHIFT3_MAPPING, SHIFT3_START, max_iter=c)),
    "InvariantMean": ("max_iter", lambda c: InvariantMean(agm_mapping(), max_iter=c)),
    "verify_decomposition": ("max_iter", lambda c: verify_decomposition(
        product_function(2), agm_mapping(), sample_count=5, max_iter=c)),
    "find_n0": ("cap", lambda c: find_n0(SHIFT3_MAPPING, SHIFT3_START, c)),
    "star_apply": ("cap", lambda c: star_apply(SHIFT3_MAPPING, SHIFT3_START, c)),
    "probe_contractivity": ("sample_count", lambda c: probe_contractivity(agm_mapping(), c)),
    "invariance_residual": ("sample_count", lambda c: invariance_residual(
        InvariantMean(agm_mapping()), agm_mapping(), c)),
    "uniqueness_probe": ("sample_count", lambda c: uniqueness_probe(
        InvariantMean(agm_mapping()), InvariantMean(agm_mapping(), readout="min"),
        Interval(0.0, math.inf), 2, c)),
    "decompose-samples": ("sample_count", lambda c: verify_decomposition(
        product_function(2), agm_mapping(), sample_count=c)),
    "sample_vectors": ("count", lambda c: list(sample_vectors(Interval(), 2, c))),
    "sample_vectors-p": ("p", lambda c: list(sample_vectors(Interval(), c, 5))),
    "iterate": ("iteration count", lambda c: SHIFT3_MAPPING.iterate(SHIFT3_START, c)),
}


#: The entry points that read one start vector, each called on a mapping
#: ``m`` (``eval_mean`` on its first component) and a start ``v``.
ONE_START_CALLS = {
    "gauss_iterate": gauss_iterate,
    "find_n0": find_n0,
    "star_apply": star_apply,
    "is_contractive_at": is_contractive_at,
    "iterate": lambda m, v: m.iterate(v, 2),
    "orbit": lambda m, v: next(m.orbit(v)),
    "apply": lambda m, v: m.apply(v),
    "eval_mean": lambda m, v: eval_mean(m.components[0], v, m.domain),
}


@pytest.mark.parametrize("name", ONE_START_CALLS)
@pytest.mark.parametrize("start", [list, iter], ids=["list", "iterator"])
def test_start_is_read_once(agm, name, start):
    # the coordinate scan that names an int beyond the float range sees the
    # items the conversion saw, also when the start is an iterator
    prefix = "component 1 (arithmetic): " if name == "apply" else ""
    with pytest.raises(NonFiniteInput) as info:
        ONE_START_CALLS[name](agm, start([1, 10**400]))
    assert str(info.value) == prefix + "coordinate 2 is beyond the float range"


class TestWholeCounts:
    """An iteration or sample count that is not a whole number raises
    ``InvalidMapping`` naming it; a run could never stop on it.  Every call
    converges, so a missing check fails the test instead of hanging it."""

    @pytest.mark.parametrize("count", [2.5, 10.5, 1.5, math.inf, math.nan, "3", None],
                             ids=repr)
    @pytest.mark.parametrize("call", sorted(COUNT_CALLS))
    def test_a_count_that_is_not_whole_raises(self, call, count):
        name, run = COUNT_CALLS[call]
        with pytest.raises(InvalidMapping) as info:
            run(count)
        assert str(info.value) == f"{name} must be a whole number, got {count!r}"

    def test_whole_floats_count_as_ints(self):
        shift3, v = SHIFT3_MAPPING, SHIFT3_START
        assert gauss_iterate(shift3, v, max_iter=1e4) == gauss_iterate(shift3, v, max_iter=10000)
        assert gauss_iterate(shift3, v, max_iter=10.0) == gauss_iterate(shift3, v, max_iter=10)
        assert find_n0(shift3, v, cap=2.0) == find_n0(shift3, v, cap=2) == 2
        assert star_apply(shift3, v, cap=2.0) == star_apply(shift3, v, cap=2)
        assert shift3.iterate(v, 3.0) == shift3.iterate(v, 3)
        assert (list(sample_vectors(Interval(), 2, 7.0, 5))
                == list(sample_vectors(Interval(), 2, 7, 5)))
        assert (probe_contractivity(shift3, 20.0, 5).counterexample
                == probe_contractivity(shift3, 20, 5).counterexample)
        with pytest.raises(NotFoundWithinCap, match="within 1.0 iterations"):
            find_n0(shift3, v, cap=1.0)

    @pytest.mark.parametrize("call, count, message", [
        ("gauss_iterate", 0, "max_iter must be >= 1, got 0"),
        ("find_n0", 0.0, "cap must be >= 1, got 0.0"),
        ("star_apply", -1, "cap must be >= 1, got -1"),
        ("probe_contractivity", 0, "sample_count must be >= 1, got 0"),
        ("iterate", -1, "iteration count must be >= 0, got -1"),
        ("sample_vectors-p", 0, "p must be >= 1, got 0"),
        ("sample_vectors-p", -1, "p must be >= 1, got -1"),
    ])
    def test_a_whole_count_below_its_least_raises_as_before(self, call, count, message):
        with pytest.raises(InvalidMapping) as info:
            COUNT_CALLS[call][1](count)
        assert str(info.value) == message

    def test_a_constant_start_returns_before_the_cap_check(self):
        assert star_apply(SHIFT3_MAPPING, (2.0, 2.0, 2.0), cap=-1) == (2.0, 2.0, 2.0)
        assert list(sample_vectors(Interval(), 2, -1)) == []


# ---------------------------------------------------------------------------
# The scalar loop of p = 2 mappings, against the tuple loop and the orbit
# ---------------------------------------------------------------------------

def _tuple_loop_twin(mapping):
    """``mapping`` on the tuple loop: no pair functions, and a step through
    the general kernels, so its runs take the path of a p >= 3 mapping."""
    specs = mapping.components
    twin = MeanTypeMapping(specs, mapping.domain, mapping.name)
    set_field(twin, "_pair", None)
    set_field(twin, "_step", lambda v, s: tuple([spec._kernel(v, s) for spec in specs]))
    return twin


def _orbit_run(mapping, v, tol, limit, relative):
    """The stop rule of ``_gauss_run`` written over the checked orbit (apply,
    then diameter, and each iterate checked before the rule reads it)."""
    bound = 0.0 if tol is None else tol
    for n, current, d in _checked_orbit(mapping, v):
        if d == 0.0 or d < (bound * abs(midpoint(current)) if relative else bound):
            return n, current, d, True
        if n == limit:
            return n, current, d, False
        if tol is None and n == 0:
            bound = d


def _run_outcome(run, mapping, v, tol, limit, relative):
    """The bits of ``(n, final, d, done)`` of the run from ``float_vector(v)``,
    the start every public caller passes, or the class, message and
    ``component`` of what the conversion or the run raised."""
    try:
        n, final, d, done = run(mapping, float_vector(v), tol, limit, relative)
    except MeanTypeError as exc:
        return _error(exc)
    return n, [x.hex() for x in final], d.hex(), done


def _api_outcome(call, mapping, v):
    """The repr of ``call(mapping, v)``, or what it raised, with any trace."""
    try:
        return repr(call(mapping, v))
    except MeanTypeError as exc:
        return _error(exc) + (repr(getattr(exc, "trace", None)),)


#: (arithmetic, power:-1e300) on [BELOW_MAX, inf): every x**-1e300 of the
#: start underflows, so the power mean runs in log space, and it rounds the
#: start 4.2e294 below BELOW_MAX; the first iterate leaves the domain and step
#: 2 rejects it.
LEAVES_PAIR = MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.power(-1e300, 2)),
                              Interval(BELOW_MAX, math.inf, lower_closed=True), name="leaves-pair")
LEAVES_PAIR_START = (FLOAT_MAX, BELOW_MAX)
LEAVES_PAIR_ERROR = (DomainViolation, "step 2: component 1 (arithmetic): coordinate 2 = "
                     "1.7976931348622732e+308 outside domain [1.7976931348623155e+308, inf)", 1)
PAIR_DOMAINS = [POSITIVE, Interval(), UNIT, UNIT_OPEN_LOW, UNIT_OPEN_HIGH, LEAVES_PAIR.domain]
PAIR_START_COORDS = st.one_of(PAIR_COORDS, PAIR_COORDS.map(lambda x: -x), ORBIT_COORDS)


@st.composite
def pair_cases(draw):
    """A p = 2 mapping of two ``PAIR_KINDS`` on one of ``PAIR_DOMAINS`` and a
    start vector: mostly a pair, sometimes constant, sometimes of another length."""
    k0, k1 = draw(st.sampled_from(PAIR_KINDS)), draw(st.sampled_from(PAIR_KINDS))
    mapping = MeanTypeMapping((parse_mean(k0, 2), parse_mean(k1, 2)),
                              draw(st.sampled_from(PAIR_DOMAINS)), name=f"{k0}; {k1}")
    size = draw(st.sampled_from((2, 2, 2, 2, 0, 1, 3)))
    if size and draw(st.booleans()):
        return mapping, [draw(PAIR_START_COORDS)] * size
    return mapping, draw(st.lists(PAIR_START_COORDS, min_size=size, max_size=size))


#: (tol, limit, relative): tol=None is the n0 search and, with limit 1,
#: the contractivity test; limit 0 tests the start alone.
RUN_MODES = st.tuples(st.sampled_from((None, 1e-12, 1e-300, 1e-3, 0.5, 1e300)),
                      st.one_of(st.integers(0, 12), st.just(DEFAULT_CAP)),
                      st.booleans())
API_CALLS = {
    "gauss": lambda m, v: gauss_iterate(m, v, max_iter=50),
    "gauss-trace": lambda m, v: gauss_iterate(m, v, 1e-3, 50, "min", False, True),
    "gauss-relative": lambda m, v: gauss_iterate(m, v, 1e-12, 6, "max", True, True),
    "find_n0": lambda m, v: find_n0(m, v, cap=5),
    "star_apply": lambda m, v: star_apply(m, v, cap=5),
    "is_contractive_at": is_contractive_at,
    "gauss-one-step": lambda m, v: gauss_iterate(m, v, max_iter=1),
}


class TestScalarLoop:
    """A p = 2 mapping runs ``_gauss_run``'s scalar loop; its results and
    errors are those of the tuple loop and of the orbit."""

    @settings(max_examples=1000, deadline=None)
    @given(pair_cases(), RUN_MODES)
    @example((agm_mapping(), [1.0, 9.0]), (1e-12, 0, False))  # limit 0: the start alone
    @example((agm_mapping(), [1.0, 9.0]), (1e-12, 1, False))  # a max_iter stop
    @example((agm_mapping(), [1.0, 9.0]), (None, 1, False))  # contractivity
    @example((agm_mapping(), [1.0, 9.0]), (1e-12, DEFAULT_CAP, True))
    @example((agm_mapping(), [1.7e308, 8e307]), (1e-12, DEFAULT_CAP, False))  # a stall
    @example((_parsed(("min", "max"), Interval()), [0.0, 1.0]), (None, DEFAULT_CAP, False))
    @example((_parsed(("harmonic", "geometric")), [1e-310, 5e-324]), (1e-300, 12, True))
    @example((agm_mapping(), [-1.0, -1.0]), (1e300, 0, False))  # an invalid constant start
    @example((agm_mapping(), [10**400, 1]), (1e-12, 5, False))
    @example((LEAVES_PAIR, list(LEAVES_PAIR_START)), (1e-12, 5, False))
    @example((LEAVES_PAIR, list(LEAVES_PAIR_START)), (1e-12, 1, False))
    @example((LEAVES_PAIR, list(LEAVES_PAIR_START)), (None, 1, False))
    @example((LEAVES_PAIR, list(LEAVES_PAIR_START)), (None, DEFAULT_CAP, False))
    def test_matches_the_tuple_loop_and_the_orbit(self, case, mode):
        mapping, v = case
        twin = _tuple_loop_twin(mapping)
        assert mapping._pair is not None and twin._pair is None
        scalar = _run_outcome(_solve, mapping, v, *mode)
        assert scalar == _run_outcome(_solve, twin, v, *mode)
        assert scalar == _run_outcome(_orbit_run, mapping, v, *mode)

    @settings(max_examples=300, deadline=None)
    @given(pair_cases(), st.sampled_from(sorted(API_CALLS)))
    @example((LEAVES_PAIR, list(LEAVES_PAIR_START)), "find_n0")
    @example((_parsed(("min", "max"), Interval()), [0.0, 1.0]), "star_apply")  # the cap
    def test_entry_points_match_the_tuple_loop(self, case, name):
        mapping, v = case
        call = API_CALLS[name]
        assert _api_outcome(call, mapping, v) == _api_outcome(call, _tuple_loop_twin(mapping), v)

    @pytest.mark.parametrize("name", ["gauss", "gauss-trace", "find_n0", "star_apply",
                                      "is_contractive_at", "gauss-one-step"])
    def test_iterate_that_leaves_the_domain(self, name):
        call = API_CALLS[name]
        with pytest.raises(DomainViolation) as scalar:
            call(LEAVES_PAIR, LEAVES_PAIR_START)
        with pytest.raises(DomainViolation) as general:
            call(_tuple_loop_twin(LEAVES_PAIR), LEAVES_PAIR_START)
        assert _error(scalar.value) == _error(general.value) == LEAVES_PAIR_ERROR

    def test_probe_skips_a_start_whose_image_leaves_the_domain(self):
        # every nonconstant sample of this two-float domain is LEAVES_PAIR_START
        # or its swap, whose image step 2 rejects: no counterexample is built
        # from an image outside the domain, so the probe has tested nothing
        with pytest.raises(MeanTypeError, match="tested none of its 20 samples"):
            probe_contractivity(LEAVES_PAIR, 20, 1)

    def test_makes_no_step_call(self):
        agm = agm_mapping()
        expected = _run_outcome(_solve, agm, (1.0, 9.0), 1e-12, 100, False)
        set_field(agm, "_step", None)  # calling it would raise TypeError
        assert _run_outcome(_solve, agm, (1.0, 9.0), 1e-12, 100, False) == expected
        assert _search_n0(agm, (1.0, 9.0), 5)[0] == 1


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

class TestSampler:
    def test_count_and_domain(self):
        dom = Interval(0.0, math.inf)
        vs = list(sample_vectors(dom, 3, 50, seed=2))
        assert len(vs) == 50
        assert all(dom.contains(x) for v in vs for x in v)

    def test_stress_vectors_lead(self):
        dom = Interval(0.0, 1.0, lower_closed=True, upper_closed=True)
        first, second, third = list(sample_vectors(dom, 4, 3, seed=2))
        assert diameter(first) > 0.0 and diameter(first) < 1e-4  # near-constant
        assert second == (0.0, 0.0, 0.0, 1.0)                    # one-outlier
        assert third == (0.0, 1.0, 0.0, 1.0)                     # alternating

    def test_deterministic(self):
        a = list(sample_vectors(Interval(), 2, 20, seed=4))
        b = list(sample_vectors(Interval(), 2, 20, seed=4))
        assert a == b

    @pytest.mark.parametrize("dom", [
        Interval(1e308, 1.7e308, lower_closed=True, upper_closed=True),  # lo + hi overflows
        Interval(-math.inf, -1e308, upper_closed=True),
        Interval(1.6983e308, math.inf, lower_closed=True),
        Interval(-1.7e308, 1.7e308, lower_closed=True, upper_closed=True),  # hi - lo overflows
    ], ids=["lo+hi", "-inf", "inf", "hi-lo"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_float_edges_stay_in_domain(self, dom, p):
        vs = list(sample_vectors(dom, p, 200, seed=5))
        assert all(math.isfinite(x) and dom.contains(x) for v in vs for x in v)

    @pytest.mark.parametrize("dom", [
        Interval(1.6983e308, math.inf, lower_closed=True),
        Interval(-math.inf, -1e308, upper_closed=True),
    ], ids=["inf", "-inf"])
    def test_endpoint_that_absorbs_the_cut_gets_a_wide_box(self, dom):
        # endpoint +- 2 * SAMPLING_EXTENT rounds back to the endpoint
        lo, hi = dom.sampling_box()
        assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
        assert dom.contains(lo) and dom.contains(hi)

    @pytest.mark.parametrize("dom", [
        Interval(1.7976931348623157e308, math.inf, lower_closed=True),
        Interval(-math.inf, -1.7976931348623157e308, upper_closed=True),
    ], ids=["inf", "-inf"])
    def test_single_float_domain_raises_before_a_sample(self, dom):
        # the domain holds one float, so every vector drawn from it is constant
        lo, hi = dom.sampling_box()
        assert lo == hi
        message = f"^cannot draw 7 nonconstant samples from domain {re.escape(str(dom))}: "
        with pytest.raises(DomainViolation, match=message):
            next(sample_vectors(dom, 2, 7))

    @pytest.mark.parametrize("dom", [
        Interval(1.0, 1.000000000001),  # the inset is below half an ulp of either end
        Interval(0.0, 1e-320),  # the inset rounds to 0.0
    ], ids=["narrow", "subnormal"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_inset_lost_to_rounding_keeps_open_ends_out(self, dom, p):
        lo, hi = dom.sampling_box()
        assert lo < hi and dom.contains(lo) and dom.contains(hi)
        vs = list(sample_vectors(dom, p, 50, seed=5))
        assert all(dom.contains(x) for v in vs for x in v)

    @pytest.mark.parametrize("upper, box", [
        (1.0000000000000004, "the single point 1.0000000000000002"),  # one float inside
        (1.0000000000000002, "empty"),  # no float inside
    ], ids=["one-float", "no-float"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_open_domain_of_fewer_than_two_floats_raises_before_a_sample(self, upper, box, p):
        dom = Interval(1.0, upper)
        message = (f"^cannot draw 7 nonconstant samples from domain {re.escape(str(dom))}: "
                   f"its sampling box is {box}$")
        with pytest.raises(DomainViolation, match=message):
            next(sample_vectors(dom, p, 7))

    @pytest.mark.parametrize("seed", [1, 3, 7])
    @pytest.mark.parametrize("dom", [POSITIVE, Interval(), Interval(-1.7e308, 1.7e308, True, True)],
                             ids=["positive", "reals", "span-overflows"])
    def test_pair_stream_is_the_generic_formula(self, dom, seed):
        # p = 2 unrolls the generic draw; where hi - lo overflows it must not run
        lo, hi = dom.sampling_box()
        rnd, span = random.Random(seed).random, hi - lo
        if span < math.inf:
            draw = lambda: tuple([lo + span * rnd() for _ in range(2)])  # noqa: E731
        else:
            draw = lambda: tuple([lo * (1.0 - r) + hi * r for r in [rnd() for _ in range(2)]])  # noqa: E731
        uniform = list(sample_vectors(dom, 2, 43, seed))[3:]
        assert [[x.hex() for x in v] for v in uniform] == [[x.hex() for x in draw()]
                                                           for _ in range(40)]

    def test_endpoint_beyond_the_cut_keeps_its_box(self):
        # only a box that collapsed is widened: this one is 2 * SAMPLING_EXTENT wide, inset
        assert Interval(300.0, math.inf).sampling_box() == (300.0 + 0.02, 500.0 - 0.02)
        assert Interval(-math.inf, -300.0).sampling_box() == (-500.0 + 0.02, -300.0 - 0.02)

    @pytest.mark.parametrize("dom, box", [
        (Interval(0.0, math.inf), ("0x1.47ae147ae147bp-7", "0x1.8ff5c28f5c28fp+6")),
        (Interval(), ("-0x1.8feb851eb851fp+6", "0x1.8feb851eb851fp+6")),
        (Interval(-math.inf, -300.0), ("-0x1.f3fae147ae148p+8", "-0x1.2c051eb851eb8p+8")),
        (Interval(0.0, 1.0), ("0x1.a36e2eb1c432dp-14", "0x1.fff2e48e8a71ep-1")),
        (Interval(-50.0, 99.99, upper_closed=True),
         ("-0x1.8fe148344c37ep+5", "0x1.8ff5c28f5c28fp+6")),
        (Interval(1e300, 1e308, lower_closed=True),
         ("0x1.7e43c8800759cp+996", "0x1.1cc7edd7c4c20p+1023")),
        (Interval(1.0, 1.000000000001), ("0x1.0000000000001p+0", "0x1.0000000001197p+0")),
    ], ids=str)
    def test_box_of_finite_width_keeps_its_bits(self, dom, box):
        assert tuple(x.hex() for x in dom.sampling_box()) == box

    def test_every_grid_interval_of_two_floats_gives_nonconstant_samples(self):
        # every valid interval over these endpoints, the float range's edges and
        # widths beyond it (such as (-1e308, 1e308)) included
        ends = sorted({s * x for s in (1.0, -1.0) for x in (
            math.inf, 1.7976931348623157e308, 1.7e308, 1e308, 9e307, 1e300, 1e10, 5e-324,
            50.0, 100.0)} | {0.0, 1e-300, 1.0, -1.0, -200.0, 99.99, 150.0})
        doms = [Interval(lo, hi, lc, uc) for i, lo in enumerate(ends) for hi in ends[i + 1:]
                for lc in (False, True) for uc in (False, True)
                if not (lc and lo == -math.inf or uc and hi == math.inf)]
        assert (len(ends), len(doms)) == (27, 1301)
        tested = 0
        for dom in doms:
            a, b = meantype.means.admissible(dom, False)
            if not a < b:  # fewer than two floats: no nonconstant vector to give
                with pytest.raises(DomainViolation):
                    next(sample_vectors(dom, 3, 12, 1))
                continue
            vs = list(sample_vectors(dom, 3, 12, 1))
            assert all(dom.contains(x) for v in vs for x in v), dom
            assert any(diameter(v) > 0.0 for v in vs), dom
            tested += 1
        assert tested == 1290


# ---------------------------------------------------------------------------
# Config format and trace export
# ---------------------------------------------------------------------------

AGM_CFG = """
# the classic pair
p = 2
domain = (0, inf)
components = arithmetic, geometric
"""


class TestConfig:
    def test_parse_basic(self):
        mapping = parse_mapping_config(AGM_CFG)
        assert mapping.p == 2
        assert mapping.domain == Interval(0.0, math.inf)
        assert [c.canonical() for c in mapping.components] == ["arithmetic", "geometric"]

    def test_component_per_line(self):
        text = "p = 3\ndomain = (-inf, inf)\ncomponent = projection:2\n" \
               "component = projection:3\ncomponent = arithmetic\n"
        mapping = parse_mapping_config(text)
        assert mapping.p == 3

    def test_round_trip(self):
        for mapping in catalog_mappings():
            again = parse_mapping_config(format_mapping_config(mapping))
            assert again.components == mapping.components
            assert again.domain == mapping.domain

    @pytest.mark.parametrize("text,needle", [
        ("domain = (0, inf)\ncomponents = arithmetic, geometric", "p"),
        ("p = 2\ncomponents = arithmetic, geometric", "domain"),
        ("p = 2\ndomain = (0, inf)", "components"),
        ("p = 2\ndomain = (0, inf)\ncomponents = arithmetic", "2"),
        ("p = two\ndomain = (0, inf)\ncomponents = arithmetic, geometric", "two"),
        ("p = 2\ndomain = (0, inf)\ncomponents = arithmetic, quadratic", "quadratic"),
        ("p = 2\ndomain = (0, inf)\nshape = round\ncomponents = arithmetic, min", "shape"),
        ("p = 2\ndomain = (0, inf)\narithmetic, geometric",
         "^line 3: expected key = value, got 'arithmetic, geometric'$"),
        ("p = 1\ndomain = (0, inf)\ncomponents = arithmetic",
         "^a mean-type mapping needs p >= 2 components, got 1$"),
    ])
    def test_errors_name_problem(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse_mapping_config(text)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "agm.cfg"
        path.write_text(AGM_CFG)
        from meantype import load_mapping
        mapping = load_mapping(str(path))
        assert mapping.name == "agm"
        assert mapping.p == 2

    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff")
        from meantype import load_mapping
        with pytest.raises(ParseError) as info:
            load_mapping(str(path))
        assert str(info.value).startswith(f"cannot read mapping file {str(path)!r}: ")
        assert "can't decode byte 0xff" in str(info.value)


class TestTraceExport:
    def test_csv_columns(self, shift3):
        trace = shift3.iterate((0.0, 1.0, 0.0), 2)
        lines = trace.to_csv().splitlines()
        assert lines[0] == "step,x1,x2,x3,diameter"
        assert len(lines) == 4
        row = lines[2].split(",")
        assert int(row[0]) == 1
        assert [float(x) for x in row[1:4]] == list(SHIFT3_STEP1)

    def test_csv_round_trips_floats(self, agm):
        trace = agm.iterate((1.0, 2.0), 3)
        rows = [line.split(",") for line in trace.to_csv().splitlines()[1:]]
        for step, row in zip(trace.steps, rows):
            assert [float(x) for x in row[1:3]] == list(step.vector)
            assert float(row[3]) == step.diameter

    def test_json_document(self, shift3):
        trace = shift3.iterate((0.0, 1.0, 0.0), 2)
        doc = trace.to_json_dict()
        assert doc["mapping"]["p"] == 3
        assert doc["mapping"]["components"] == ["projection:2", "projection:3", "arithmetic"]
        assert [s["step"] for s in doc["steps"]] == [0, 1, 2]
        assert doc["steps"][2]["vector"] == pytest.approx(list(SHIFT3_STEP2))
        json.dumps(doc)  # serializable
