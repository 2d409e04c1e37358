import itertools
import math
import random
import re
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import meantype.mapping
from meantype import (
    DomainViolation,
    Interval,
    InvalidMapping,
    InvariantMean,
    MeanSpec,
    MeanTypeError,
    MeanTypeMapping,
    NonFiniteInput,
    agm_mapping,
    arithmetic_harmonic_mapping,
    coordinate_function,
    find_n0,
    gauss_iterate,
    invariance_residual,
    is_contractive_at,
    mean_callable,
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
from meantype import invariant as invariant_module
from meantype.invariant import _READERS, DEFAULT_MAX_ITER, READOUTS, _gap_at, _residual_at
from meantype.means import float_vector
from conftest import POSITIVE
from test_mapping import (
    FLOAT_MAX, INVALID_AGM_START_IDS, INVALID_AGM_STARTS, LEAVES_CLOSED, LEAVES_CLOSED_START,
    LEAVES_PAIR, STEP_SHAPES, _orbit_run, _run_outcome, orbit_cases,
)

# pi / (2 * integral_0^{pi/2} dt / sqrt(cos^2 t + 4 sin^2 t)), computed by
# adaptive quadrature (scipy.integrate.quad, epsabs=1e-14); the acceptance
# suite re-derives it live.  Classical value of the compound limit of the
# (arithmetic, geometric) pair from (1, 2).
AGM_1_2 = 1.456791031046907


class TestGaussIterate:
    def test_agm_matches_quadrature_oracle(self, agm):
        est = gauss_iterate(agm, (1.0, 2.0), tol=1e-12)
        assert est.converged
        assert est.value == pytest.approx(AGM_1_2, abs=1e-10)
        assert est.final_diameter < 1e-12
        assert est.steps < 10  # quadratically convergent pair

    def test_arithmetic_harmonic_preserves_product(self, ah):
        est = gauss_iterate(ah, (2.0, 8.0), tol=1e-12)
        assert est.converged
        assert est.value == pytest.approx(4.0, abs=1e-12)

    def test_constant_input_returns_immediately(self, agm):
        est = gauss_iterate(agm, (3.0, 3.0))
        assert est.value == 3.0
        assert est.steps == 0
        assert est.final_diameter == 0.0
        assert est.converged

    def test_constant_iterate_stops_relative_rule(self):
        # (-1, 1) -> (0, 0): tol * |midpoint| is 0 there, yet a constant iterate is final
        mapping = MeanTypeMapping((MeanSpec.arithmetic(2),) * 2, Interval())
        est = gauss_iterate(mapping, (-1.0, 1.0), relative=True)
        assert (est.value, est.steps, est.final_diameter) == (0.0, 1, 0.0)
        assert est.converged

    def test_already_within_tol(self, agm):
        est = gauss_iterate(agm, (1.0, 1.0 + 1e-14), tol=1e-12)
        assert est.steps == 0
        assert est.converged

    def test_value_brackets(self, shift3):
        for v in sample_vectors(shift3.domain, 3, 50, seed=3):
            est = gauss_iterate(shift3, v)
            assert min(v) <= est.value <= max(v)

    def test_value_within_final_diameter_of_coordinates(self, shift3):
        est = gauss_iterate(shift3, (0.0, 1.0, 0.0), tol=1e-6, keep_trace=True)
        final = est.trace.last.vector
        assert all(abs(est.value - x) <= est.final_diameter for x in final)

    def test_engine_traces_have_monotone_diameters(self, shift3):
        for v in sample_vectors(shift3.domain, 3, 20, seed=8):
            est = gauss_iterate(shift3, v, tol=1e-9, keep_trace=True)
            diams = [s.diameter for s in est.trace.steps]
            assert all(b <= a + 1e-12 for a, b in zip(diams, diams[1:]))

    def test_converged_status_implies_diameter_below_tol(self, shift3):
        tol = 1e-9
        for v in sample_vectors(shift3.domain, 3, 30, seed=6):
            est = gauss_iterate(shift3, v, tol=tol)
            assert est.converged
            assert est.final_diameter < tol

    def test_projections_hit_max_iter_without_error(self, projections):
        est = gauss_iterate(projections, (0.0, 1.0), max_iter=100)
        assert est.status == "max_iter_reached"
        assert est.steps == 100
        assert est.final_diameter == 1.0
        assert not est.converged

    def test_trace_attached_on_request(self, agm):
        est = gauss_iterate(agm, (1.0, 2.0), keep_trace=True)
        assert est.trace is not None
        assert len(est.trace) == est.steps + 1
        assert est.trace.steps[0].vector == (1.0, 2.0)
        est2 = gauss_iterate(agm, (1.0, 2.0))
        assert est2.trace is None

    def test_readouts(self, agm):
        for readout in ("mid", "min", "max", "first"):
            est = gauss_iterate(agm, (1.0, 2.0), tol=1e-6, readout=readout,
                                keep_trace=True)
            final = est.trace.last.vector
            expected = {
                "mid": 0.5 * (max(final) + min(final)),
                "min": min(final),
                "max": max(final),
                "first": final[0],
            }[readout]
            assert est.value == expected

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                      -2.225073858507201e-308, FLOAT_MAX, -FLOAT_MAX)),
                     st.floats(allow_nan=False, allow_infinity=False)),
           st.lists(st.booleans(), min_size=2, max_size=10), st.sampled_from(READOUTS))
    def test_readout_of_a_level_vector_is_its_first_coordinate(self, x, signs, readout):
        # p = 2..10 coordinates that all compare equal: x, or a zero of either
        # sign; a constant final iterate needs no readout case of its own
        v = tuple(-x if flip and x == 0.0 else x for flip in signs)
        assert _READERS[readout](v).hex() == v[0].hex()

    def test_relative_stopping_rule(self):
        # domain far from zero: relative tolerance stops much earlier
        mapping = arithmetic_harmonic_mapping(Interval(1e6, 1e8))
        absolute = gauss_iterate(mapping, (2e6, 8e6), tol=1e-3)
        relative = gauss_iterate(mapping, (2e6, 8e6), tol=1e-3, relative=True)
        assert relative.converged
        assert relative.steps < absolute.steps

    def test_parameter_validation(self, agm):
        with pytest.raises(InvalidMapping):
            gauss_iterate(agm, (1.0, 2.0), tol=0.0)
        with pytest.raises(InvalidMapping):
            gauss_iterate(agm, (1.0, 2.0), max_iter=0)
        with pytest.raises(InvalidMapping):
            gauss_iterate(agm, (1.0, 2.0), readout="median")
        with pytest.raises(InvalidMapping):
            gauss_iterate(agm, (1.0, 2.0), tol=math.nan)
        # every diameter is below inf: the start would read as converged
        with pytest.raises(InvalidMapping, match="tol must be positive and finite, got inf"):
            gauss_iterate(agm, (1, 2), tol=math.inf)

    @pytest.mark.parametrize("readout", ["mid", "min", "max", "first"])
    def test_near_overflow_matches_scaled_solve(self, agm, readout):
        # AGM is homogeneous: K(c*v) = c*K(v)
        v = (1.7e308, 1e308)
        est = gauss_iterate(agm, v, readout=readout, relative=True)
        assert est.converged
        assert min(v) <= est.value <= max(v)
        assert est.value == pytest.approx(1e308 * gauss_iterate(agm, (1.7, 1.0)).value,
                                          rel=1e-12)

    def test_idempotent_under_one_application(self, agm):
        tol = 1e-12
        for v in [(1.0, 2.0), (0.5, 70.0), (3.0, 3.5)]:
            direct = gauss_iterate(agm, v, tol=tol).value
            shifted = gauss_iterate(agm, agm.apply(v), tol=tol).value
            assert abs(direct - shifted) <= 2 * tol


# ---------------------------------------------------------------------------
# The one Gauss run loop against the orbit walk it replaced
# ---------------------------------------------------------------------------

class TestSolveLoop:
    @settings(max_examples=300, deadline=None)
    @given(orbit_cases(), st.sampled_from([1e-300, 1e-12, 1.0, 1e300]),
           st.one_of(st.integers(0, 12), st.just(DEFAULT_MAX_ITER)), st.booleans())
    @example((STEP_SHAPES[2], [0.0, -0.0]), 1e-12, DEFAULT_MAX_ITER, False)  # p = 2 on the reals
    @example((STEP_SHAPES[2], [-0.0, 0.0]), 1e-12, DEFAULT_MAX_ITER, True)
    # p >= 3 signed-zero starts: the zero diameter reads 0.0, as max(v) - min(v) gives it
    @example((shift_average_mapping(3), [0.0, 0.0, -0.0]), 1e-12, DEFAULT_MAX_ITER, False)
    @example((shift_average_mapping(3), [0.0, -0.0, -0.0]), 1e-12, DEFAULT_MAX_ITER, True)
    @example((shift_average_mapping(3), [-0.0, 0.0, 0.0]), 1e-12, DEFAULT_MAX_ITER, False)
    @example((agm_mapping(), [1.7e308, 8e307]), 1e-12, DEFAULT_MAX_ITER, False)  # the stall
    @example((projection_mapping(2), [0, 1]), 1e-12, DEFAULT_MAX_ITER, False)
    @example((LEAVES_CLOSED, LEAVES_CLOSED_START), 1e-12, DEFAULT_MAX_ITER, False)
    @example((LEAVES_CLOSED, LEAVES_CLOSED_START), 1e-12, 1, False)  # the clamp meets the end
    @example((agm_mapping(), [-1.0, -1.0]), 1e-12, DEFAULT_MAX_ITER, False)
    @example((agm_mapping(), [10**400, 1]), 1e-12, 0, False)
    def test_matches_the_orbit_walk(self, case, tol, max_iter, relative):
        mapping, v = case
        assert (_run_outcome(invariant_module._solve, mapping, v, tol, max_iter, relative)
                == _run_outcome(_orbit_run, mapping, v, tol, max_iter, relative))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(orbit_cases(), st.sampled_from([1e-300, 1e-12, 1e-3, 0.5, 1.0]), st.integers(1, 12),
           st.booleans(), st.sampled_from(READOUTS))
    @example((projection_mapping(2), [0, 1]), 1e-12, 5, False, "mid")  # a max_iter stop
    @example((agm_mapping(), [1.0, 2.0]), 1e-12, 12, False, "min")  # converges at step 4
    @example((shift_average_mapping(3), [0.0, 1.0, 0.0]), 0.5, 12, True, "max")
    @example((shift_average_mapping(3), [0.0, 1.0, 0.0]), 1e-12, 12, False, "first")
    def test_trace_agrees_with_its_run(self, case, tol, max_iter, relative, readout):
        mapping, v = case
        try:
            n, final, d, _ = invariant_module._solve(mapping, float_vector(v), tol, max_iter,
                                                     relative)
        except MeanTypeError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                gauss_iterate(mapping, v, tol, max_iter, readout, relative, True)
            return
        est = gauss_iterate(mapping, v, tol, max_iter, readout, relative, True)
        last = est.trace.last
        assert len(est.trace) == est.steps + 1 == n + 1
        assert [x.hex() for x in last.vector] == [x.hex() for x in final]
        assert last.diameter.hex() == est.final_diameter.hex() == d.hex()
        assert est.value.hex() == _READERS[readout](last.vector).hex()

    def test_iterator_start_traces_as_a_tuple_start(self, agm):
        assert (gauss_iterate(agm, iter([1.0, 2.0]), keep_trace=True)
                == gauss_iterate(agm, (1.0, 2.0), keep_trace=True))

    @pytest.mark.parametrize("v, error, message", INVALID_AGM_STARTS, ids=INVALID_AGM_START_IDS)
    @pytest.mark.parametrize("solve", [
        lambda m, v: gauss_iterate(m, v),
        lambda m, v: gauss_iterate(m, v, tol=1e300, relative=True),
        lambda m, v: InvariantMean(m)(v),
    ], ids=["gauss_iterate", "loose-tol", "InvariantMean"])
    def test_invalid_start_raises_even_when_it_meets_the_rule(self, agm, solve, v, error,
                                                               message):
        with pytest.raises(error) as info:
            solve(agm, v)
        assert str(info.value) == message


class TestInvariantMean:
    def test_closed_form_geometric(self, ah):
        k = InvariantMean(ah)
        assert k((1.0, 9.0)) == pytest.approx(3.0, abs=1e-12)
        assert k((2.0, 8.0)) == pytest.approx(4.0, abs=1e-12)

    def test_reflexive(self, agm):
        k = InvariantMean(agm)
        assert k((1.0, 1.0)) == 1.0

    def test_internality_over_samples(self, shift3):
        k = InvariantMean(shift3)
        for v in sample_vectors(shift3.domain, 3, 100, seed=5):
            assert min(v) <= k(v) <= max(v)

    def test_matches_brute_force_reference(self, shift3):
        # independent oracle: iterate the mapping directly to a tighter tol
        k = InvariantMean(shift3, tol=1e-12)
        v = (0.0, 1.0, 0.0)
        ref = v
        for _ in range(10_000):
            ref = shift3.apply(ref)
            if max(ref) - min(ref) < 1e-14:
                break
        assert k(v) == pytest.approx(0.5 * (max(ref) + min(ref)), abs=1e-12)

    def test_estimate_exposes_status(self, projections):
        k = InvariantMean(projections, max_iter=50)
        est = k.estimate((0.0, 1.0))
        assert est.status == "max_iter_reached"

    @pytest.mark.parametrize("kwargs", [
        {"tol": -1.0}, {"tol": math.nan}, {"max_iter": 0}, {"readout": "median"},
        {"tol": math.inf},
    ])
    def test_invariant_mean_validates_at_construction(self, agm, kwargs):
        with pytest.raises(InvalidMapping):
            InvariantMean(agm, **kwargs)

    def test_arity(self, shift3):
        assert InvariantMean(shift3).arity == 3

    def test_repr_shows_stop_rule(self, agm):
        assert repr(InvariantMean(agm)).endswith("readout='mid', relative=False)")
        assert repr(InvariantMean(agm, relative=True)).endswith(", relative=True)")


class TestInvarianceResidual:
    def test_own_invariant_mean_residual_small(self, ah):
        tol = 1e-12
        k = InvariantMean(ah, tol=tol)
        assert invariance_residual(k, ah, 200, seed=42) <= 2 * tol

    def test_arithmetic_not_agm_invariant(self):
        # direct-evaluation oracle at (1, 9): A(v) = 5 but A(M(v)) = (5+3)/2 = 4
        box = Interval(1.0, 10.0, lower_closed=True, upper_closed=True)
        mapping = agm_mapping(box)
        arith = mean_callable(MeanSpec.arithmetic(2), box)
        v = (1.0, 9.0)
        assert abs(arith(mapping.apply(v)) - arith(v)) == pytest.approx(1.0, abs=1e-12)
        assert invariance_residual(arith, mapping, 500, seed=42) > 0.001

    def test_geometric_exactly_ah_invariant(self, ah):
        geom = mean_callable(MeanSpec.geometric(2), ah.domain)
        assert invariance_residual(geom, ah, 500, seed=42) <= 1e-12

    def test_deterministic(self, ah):
        k = InvariantMean(ah)
        a = invariance_residual(k, ah, 100, seed=9)
        b = invariance_residual(k, ah, 100, seed=9)
        assert a == b

    def test_sample_error_keeps_its_attributes(self):
        # the geometric component rejects the first sample, which has a 0.0
        reals = MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.geometric(2)),
                                Interval(-math.inf, math.inf))
        with pytest.raises(DomainViolation) as direct:
            reals.apply((0.0, 1.0))
        with pytest.raises(DomainViolation) as probed:
            invariance_residual(InvariantMean(reals), reals, 10, 1)
        assert direct.value.component == probed.value.component == 2
        assert str(probed.value).startswith("sample 0 [0.0, ")
        assert str(probed.value).endswith(": " + str(direct.value))


# K or F of arity 3 beside a p = 2 mapping: a coordinate past p, and a
# product of three coordinates that would read only two
WRONG_ARITY = [(coordinate_function(3, 3), "coord:3"), (product_function(3), "product")]


@pytest.mark.parametrize("probe", ["residual", "uniqueness"])
@pytest.mark.parametrize("fn, name", WRONG_ARITY, ids=["coordinate", "product"])
def test_function_of_another_arity_rejected_before_sampling(monkeypatch, probe, fn, name):
    drawn = []
    monkeypatch.setattr(invariant_module, "sample_vectors",
                        lambda *args: drawn.append(args) or iter(()))
    m = agm_mapping()
    with pytest.raises(InvalidMapping) as info:
        if probe == "residual":
            invariance_residual(fn, m, 5)
        else:
            uniqueness_probe(fn, InvariantMean(m), m.domain, 2, 5)
    assert str(info.value) == f"function {name} has arity 3, but the mapping has p = 2"
    assert drawn == []


def test_invariant_mean_of_another_arity_rejected():
    k = InvariantMean(shift_average_mapping(3))
    with pytest.raises(InvalidMapping, match="^function InvariantMean.* has arity 3, but the "
                                             "mapping has p = 2$"):
        uniqueness_probe(InvariantMean(agm_mapping()), k, Interval(0.0, math.inf), 2, 5)
    with pytest.raises(InvalidMapping, match="has arity 3, but the mapping has p = 2$"):
        invariance_residual(k, agm_mapping(), 5)


class TestUniquenessProbe:
    def test_readout_variants_agree(self, shift3):
        tol = 1e-12
        k_mid = InvariantMean(shift3, tol=tol, readout="mid")
        k_min = InvariantMean(shift3, tol=tol, readout="min")
        k_max = InvariantMean(shift3, tol=tol, readout="max")
        for k2 in (k_min, k_max):
            diff = uniqueness_probe(k_mid, k2, shift3.domain, 3, 100, seed=42)
            assert diff <= 2 * tol

    def test_ah_invariant_mean_is_geometric(self, ah):
        k = InvariantMean(ah, tol=1e-12)
        geom = mean_callable(MeanSpec.geometric(2), ah.domain)
        assert uniqueness_probe(k, geom, ah.domain, 2, 100, seed=42) <= 1e-10

    def test_distinct_means_differ(self):
        box = Interval(1.0, 4.0, lower_closed=True, upper_closed=True)
        arith = mean_callable(MeanSpec.arithmetic(2), box)
        geom = mean_callable(MeanSpec.geometric(2), box)
        # at (1, 4): 2.5 vs 2.0
        assert uniqueness_probe(arith, geom, box, 2, 100, seed=42) >= 0.25


# ---------------------------------------------------------------------------
# One solve per sample: the probes' shared-orbit path against the generic one
# ---------------------------------------------------------------------------

MIXED5 = MeanTypeMapping(
    (MeanSpec.arithmetic(5), MeanSpec.geometric(5), MeanSpec.harmonic(5),
     MeanSpec.power(2.0, 5), MeanSpec.median(5)),
    Interval(0.0, math.inf), name="mixed5")
SHARED_ORBIT_MAPPINGS = [agm_mapping(), arithmetic_harmonic_mapping(),
                         shift_average_mapping(3), shift_average_mapping(10), MIXED5]
READOUT_PAIRS = list(itertools.product(READOUTS, repeat=2))


def _generic(k):
    """``k`` behind a lambda, which the probes cannot see through: two solves a sample."""
    return lambda v: k(v)


def _assert_same_bits(fast, generic, domain, p, count, seed, context):
    """``fast(v)`` and ``generic(v)`` agree to the bit on every sample, one by one."""
    for v in sample_vectors(domain, p, count, seed):
        a, b = fast(v), generic(v)
        assert a.hex() == b.hex(), (context, v, a, b)


def _assert_uniqueness_matches(k1, k2, domain, p, count, seed):
    _assert_same_bits(_gap_at(k1, k2), _gap_at(_generic(k1), k2), domain, p, count, seed,
                      (k1, k2.readout))


def _assert_residual_matches(k, mapping, count, seed):
    _assert_same_bits(_residual_at(k, mapping), _residual_at(_generic(k), mapping),
                      mapping.domain, mapping.p, count, seed, k)


class TestOneSolvePerSample:
    @pytest.fixture
    def solves(self, monkeypatch):
        """The Gauss runs, counted where every probe's run goes: ``_solve``."""
        calls, solve = [], invariant_module._solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(invariant_module, "_solve", counted)
        return calls

    @pytest.mark.parametrize("relative", [False, True])
    @pytest.mark.parametrize("mapping", SHARED_ORBIT_MAPPINGS, ids=lambda m: m.name)
    def test_uniqueness_every_readout_pair(self, mapping, relative):
        means = {r: InvariantMean(mapping, readout=r, relative=relative) for r in READOUTS}
        for a, b in READOUT_PAIRS:
            _assert_uniqueness_matches(means[a], means[b], mapping.domain, mapping.p, 12, 5)

    @pytest.mark.parametrize("relative", [False, True])
    @pytest.mark.parametrize("mapping", SHARED_ORBIT_MAPPINGS, ids=lambda m: m.name)
    def test_residual_every_readout(self, mapping, relative):
        for r in READOUTS:
            _assert_residual_matches(InvariantMean(mapping, readout=r, relative=relative),
                                     mapping, 12, 5)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5])
    def test_short_max_iter_on_agm(self, agm, max_iter):
        for r in READOUTS:
            k = InvariantMean(agm, max_iter=max_iter, readout=r)
            _assert_residual_matches(k, agm, 30, 7)
            _assert_uniqueness_matches(k, InvariantMean(agm, max_iter=max_iter),
                                       agm.domain, 2, 30, 7)

    def test_short_max_iter_covers_convergence_at_max_iter(self, agm):
        # the residual's fallback case: the solve from M(v) converges at exactly max_iter
        hits = [
            max_iter for max_iter in range(1, 6)
            for v in sample_vectors(agm.domain, 2, 30, 7)
            if (est := gauss_iterate(agm, agm.apply(v), max_iter=max_iter)).converged
            and est.steps == max_iter
        ]
        assert hits

    def test_projections_stall(self, projections):
        for r in READOUTS:
            k = InvariantMean(projections, max_iter=40, readout=r)
            assert k.estimate((0.0, 1.0)).status == "max_iter_reached"
            _assert_residual_matches(k, projections, 8, 3)
            _assert_uniqueness_matches(k, InvariantMean(projections, max_iter=40),
                                       projections.domain, 2, 8, 3)

    @pytest.mark.parametrize("relative", [False, True])
    def test_near_constant_sample_done_at_step_zero(self, agm, relative):
        near_constant = next(sample_vectors(agm.domain, 2, 1))
        k = InvariantMean(agm, tol=1e-3, relative=relative)
        assert k.estimate(near_constant).steps == 0
        _assert_residual_matches(k, agm, 10, 1)
        for r in READOUTS:
            _assert_uniqueness_matches(k, InvariantMean(agm, tol=1e-3, readout=r,
                                                         relative=relative),
                                       agm.domain, 2, 10, 1)

    def test_wider_sampling_domain_raises_the_same_error(self, agm):
        wide = Interval(-10.0, 10.0)
        k_min, k_max = (InvariantMean(agm, readout=r) for r in ("min", "max"))
        with pytest.raises(DomainViolation) as fast:
            uniqueness_probe(k_min, k_max, wide, 2, 10, seed=1)
        with pytest.raises(DomainViolation) as generic:
            uniqueness_probe(_generic(k_min), k_max, wide, 2, 10, seed=1)
        assert ": step 1: component " in str(fast.value)
        assert str(fast.value) == str(generic.value)

    def test_sample_error_in_residual_is_the_generic_one(self):
        reals = MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.geometric(2)),
                                Interval(-math.inf, math.inf))
        k = InvariantMean(reals)
        with pytest.raises(DomainViolation) as fast:
            invariance_residual(k, reals, 10, 1)
        with pytest.raises(DomainViolation) as generic:
            invariance_residual(_generic(k), reals, 10, 1)
        assert str(fast.value) == str(generic.value)

    def test_one_solve_per_converged_sample(self, agm, solves):
        k_min, k_max = (InvariantMean(agm, readout=r) for r in ("min", "max"))
        uniqueness_probe(k_min, k_max, agm.domain, 2, 20, seed=3)
        assert len(solves) == 20
        invariance_residual(k_min, agm, 20, seed=3)
        assert len(solves) == 40

    @pytest.mark.parametrize("other", [
        lambda m: InvariantMean(m, tol=1e-11, readout="max"),
        lambda m: InvariantMean(m, max_iter=9999, readout="max"),
        lambda m: InvariantMean(m, relative=True, readout="max"),
        lambda m: InvariantMean(agm_mapping(), readout="max"),
        lambda m: _generic(InvariantMean(m, readout="max")),
    ], ids=["tol", "max_iter", "relative", "equal-mapping", "wrapped"])
    def test_two_solves_unless_the_iteration_is_shared(self, agm, solves, other):
        k2 = other(agm)
        uniqueness_probe(InvariantMean(agm, readout="min"), k2, agm.domain, 2, 20, seed=3)
        assert len(solves) == 40

    def test_residual_of_a_mean_on_another_mapping_takes_two_solves(self, agm, solves):
        invariance_residual(InvariantMean(agm_mapping()), agm, 20, seed=3)
        assert len(solves) == 40

    def test_converged_residual_sample_runs_once_from_v(self, agm, solves):
        residual = _residual_at(InvariantMean(agm), agm)
        for v in sample_vectors(agm.domain, 2, 20, 3):
            assert residual(v) == 0.0
            assert solves[-1][1] is v
        assert len(solves) == 20

    def test_stalled_residual_sample_runs_twice(self, projections, solves):
        k = InvariantMean(projections, max_iter=40)
        residual = _residual_at(k, projections)
        for i, v in enumerate(sample_vectors(projections.domain, 2, 8, 3)):
            assert k.estimate(v).status == "max_iter_reached"
            del solves[:]
            residual(v)
            assert len(solves) == 2 and solves[0][1] is v, i

    def test_float_max_pair_residual_is_the_generic_one(self, solves):
        # unclamped, the power mean rounded M(v) out of the domain; clamped, a
        # nonconstant sample's run converges at step 1: one solve, residual 0.0
        k = InvariantMean(LEAVES_PAIR)
        _assert_residual_matches(k, LEAVES_PAIR, 20, 1)
        residual = _residual_at(k, LEAVES_PAIR)
        for v in sample_vectors(LEAVES_PAIR.domain, 2, 20, 1):
            del solves[:]
            assert residual(v) == 0.0
            assert len(solves) == (1 if v[0] != v[1] else 2), v


#: Every entry point that runs the Gauss loop, on float, int and list starts
#: and on p = 2, p >= 3 and stalling mappings; the probes pass the sampler's
#: tuples and ``apply``'s images.
RUN_CALLS = {
    "gauss_iterate": lambda: [gauss_iterate(m, v, keep_trace=True)
                              for m, v in [(agm_mapping(), [1, 2]), (MIXED5, (1, 2, 3, 4, 5)),
                                           (projection_mapping(2), [0, 1])]],
    "InvariantMean": lambda: InvariantMean(shift_average_mapping(3))(iter([0, 1, 0])),
    "find_n0": lambda: find_n0(shift_average_mapping(10), range(10)),
    "star_apply": lambda: star_apply(agm_mapping(), [1, 9]),
    "is_contractive_at": lambda: is_contractive_at(shift_average_mapping(3), [0, 1, 0]),
    "probe_contractivity": lambda: [probe_contractivity(m, 20)
                                    for m in (agm_mapping(), shift_average_mapping(3), MIXED5)],
    "invariance_residual": lambda: [invariance_residual(k(m), m, 10)
                                    for m in (agm_mapping(), MIXED5, projection_mapping(2))
                                    for k in (InvariantMean, lambda m: _generic(InvariantMean(m)),
                                              lambda m: InvariantMean(m, max_iter=40))],
    "uniqueness_probe": lambda: [uniqueness_probe(InvariantMean(m), InvariantMean(m, readout=r),
                                                  m.domain, m.p, 10)
                                 for m in (arithmetic_harmonic_mapping(), MIXED5)
                                 for r in ("min", "max")],
    "verify_decomposition": lambda: verify_decomposition(
        product_function(2), arithmetic_harmonic_mapping(), sample_count=10),
}

#: Starts that float() cannot take, as each entry point with a start reports them.
BAD_STARTS = [
    ((10**400, 1.0), NonFiniteInput, "coordinate 1 is beyond the float range"),
    ([1, 10**400], NonFiniteInput, "coordinate 2 is beyond the float range"),
    ((1.0, "a"), ValueError, "could not convert string to float: 'a'"),
    (("a", 10**400), ValueError, "could not convert string to float: 'a'"),
]
START_CALLS = {
    "gauss_iterate": lambda m, v: gauss_iterate(m, v, keep_trace=True),
    "InvariantMean": lambda m, v: InvariantMean(m)(v),
    "find_n0": find_n0,
    "star_apply": star_apply,
    "is_contractive_at": is_contractive_at,
}


class TestStartsConvertedOnce:
    """Every Gauss run starts from a tuple of floats: the public entry points
    convert a start once, and the probes pass the sampler's tuples and
    ``apply``'s images as they are."""

    @pytest.fixture
    def starts(self, monkeypatch):
        starts, run = [], invariant_module._solve

        def recorded(mapping, v, *args):
            starts.append(v)
            return run(mapping, v, *args)

        monkeypatch.setattr(invariant_module, "_solve", recorded)
        monkeypatch.setattr(meantype.mapping, "_gauss_run", recorded)
        return starts

    @pytest.mark.parametrize("name", RUN_CALLS)
    def test_every_run_gets_a_float_tuple(self, starts, name):
        RUN_CALLS[name]()
        assert starts
        for v in starts:
            assert type(v) is tuple and all(type(x) is float for x in v), (name, v)

    @pytest.mark.parametrize("name", START_CALLS)
    @pytest.mark.parametrize("mapping, v", [(agm_mapping(), (1.0, 2.0)),
                                            (shift_average_mapping(3), (0.0, 1.0, 0.0))],
                             ids=["p2", "p3"])
    def test_any_sequence_of_numbers_runs_as_its_float_tuple(self, name, mapping, v):
        call = START_CALLS[name]
        expected = repr(call(mapping, v))
        ints = [int(x) for x in v]
        for start in (list(v), ints, tuple(ints), iter(ints)):
            assert repr(call(mapping, start)) == expected, start

    @pytest.mark.parametrize("name", START_CALLS)
    @pytest.mark.parametrize("v, error, message", BAD_STARTS,
                             ids=["int-beyond-float", "second-int", "str", "str-first"])
    def test_unconvertible_start_raises_as_before(self, agm, name, v, error, message):
        with pytest.raises(error) as info:
            START_CALLS[name](agm, v)
        assert str(info.value) == message


class TestConvergenceAcrossFixtures:
    def test_ah_identity_on_random_pairs(self, ah):
        rng = random.Random(42)
        k = InvariantMean(ah, tol=1e-12)
        for _ in range(50):
            x, y = rng.uniform(0.5, 100.0), rng.uniform(0.5, 100.0)
            assert k((x, y)) == pytest.approx(math.sqrt(x * y), abs=1e-10)

    def test_agm_against_eval_chain(self, agm):
        # K(M(v)) = K(v) transports along the orbit
        k = InvariantMean(agm, tol=1e-12)
        v = (1.0, 2.0)
        orbit_value = k(v)
        for _ in range(4):
            v = agm.apply(v)
            assert k(v) == pytest.approx(orbit_value, abs=1e-11)


# ---------------------------------------------------------------------------
# Exact oracle for linear mappings
# ---------------------------------------------------------------------------

def _linear_rows(mapping):
    """The row-stochastic A with M(v) = A v, in exact rationals, for a mapping
    built from arithmetic, projection and weighted-arithmetic means."""
    p = mapping.p
    rows = []
    for spec in mapping.components:
        if spec.kind == "arithmetic":
            rows.append([Fraction(1, p)] * p)
        elif spec.kind == "projection":
            rows.append([Fraction(int(j == spec.index - 1)) for j in range(p)])
        else:  # weighted: the decimal weights, which sum to 1 exactly
            rows.append([Fraction(repr(w)) for w in spec.weights])
    return rows


def _stationary(rows):
    """pi with pi A = pi and sum(pi) = 1, by exact Gauss-Jordan elimination.

    The p balance equations sum_i pi_i A[i][j] = pi_j are dependent (A is
    row-stochastic), so the last is replaced by the normalization.
    """
    p = len(rows)
    m = [[rows[i][j] - (i == j) for i in range(p)] + [Fraction(0)] for j in range(p - 1)]
    m.append([Fraction(1)] * (p + 1))
    for c in range(p):
        pivot = next(r for r in range(c, p) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(p):
            if r != c and m[r][c] != 0:
                m[r] = [a - m[r][c] * b for a, b in zip(m[r], m[c])]
    return [row[p] for row in m]


def _weighted_mix(weight_rows, *extra):
    p = len(weight_rows[0])
    specs = [MeanSpec.weighted_arithmetic(w) for w in weight_rows] + [make(p) for make in extra]
    return MeanTypeMapping(tuple(specs), Interval(), name=f"weighted-mix-{p}")


LINEAR_MAPPINGS = [
    shift_average_mapping(3),
    shift_average_mapping(10),
    _weighted_mix([(0.3, 0.7)], lambda p: MeanSpec.projection(1, p)),
    _weighted_mix([(0.5, 0.25, 0.25)], lambda p: MeanSpec.projection(1, p), MeanSpec.arithmetic),
    _weighted_mix([(0.1, 0.2, 0.3, 0.4), (0.7, 0.0, 0.0, 0.3)],
                  lambda p: MeanSpec.projection(1, p), MeanSpec.arithmetic),
]


class TestLinearOracle:
    """A linear mean-type mapping is v -> A v with A row-stochastic; its
    invariant mean is pi . v for the stationary vector pi A = pi (Seneta,
    Non-negative Matrices and Markov Chains), solved here in rationals."""

    @pytest.mark.parametrize("p", [3, 10])
    def test_stationary_vector_of_shift_average(self, p):
        # the shift-average closed form K(v) = sum 2j v_j / (p(p+1))
        assert _stationary(_linear_rows(shift_average_mapping(p))) == [
            Fraction(2 * j, p * (p + 1)) for j in range(1, p + 1)]

    @pytest.mark.parametrize("mapping", LINEAR_MAPPINGS, ids=lambda m: m.name)
    def test_gauss_matches_stationary_vector(self, mapping):
        rows = _linear_rows(mapping)
        pi = _stationary(rows)
        assert [sum(w * row[j] for w, row in zip(pi, rows)) for j in range(mapping.p)] == pi
        vectors = list(sample_vectors(mapping.domain, mapping.p, 20, seed=11))
        vectors.append(tuple(1e3 * (-1) ** j for j in range(mapping.p)))
        for v in vectors:
            est = gauss_iterate(mapping, v)
            assert est.converged, v
            exact = sum(w * Fraction(x) for w, x in zip(pi, v))
            assert abs(est.value - float(exact)) <= 4e-12 * max(1.0, max(map(abs, v))), v


# (X, phi, phi^-1, starts' low and high end, domain, pinned misses): X is the
# quasi-arithmetic mean with generator phi.
CONJUGATE_ROWS = [
    ("harmonic", lambda x: 1 / x, lambda y: 1 / y, 0.5, 100.0, POSITIVE, 0),
    ("arithmetic", lambda x: x, lambda y: y, -100.0, 100.0, Interval(), 0),
    ("quasi:exp", Decimal.exp, Decimal.ln, -5.0, 5.0, Interval(), 0),
    ("power:2", lambda x: x * x, Decimal.sqrt, 0.5, 100.0, POSITIVE, 0),
    ("geometric", Decimal.ln, Decimal.exp, 0.5, 100.0, POSITIVE, 2),
    ("power:-1.5", lambda x: x ** Decimal(-1.5), lambda y: y ** (Decimal(-2) / 3),
     0.5, 100.0, POSITIVE, 90),
]


class TestConjugateLinearOracle:
    """(projection:2, projection:3, X) with X quasi-arithmetic of generator
    phi is linear in phi-coordinates, with stationary vector (1/6, 1/3, 1/2):
    its invariant mean is exactly K(v) = phi^-1(sum pi_i phi(v_i)), computed
    here in 60-digit decimal (Matkowski, Aequationes Math. 57, 1999)."""

    @pytest.mark.parametrize("kind, phi, phi_inv, lo, hi, domain, pinned", CONJUGATE_ROWS,
                             ids=[row[0] for row in CONJUGATE_ROWS])
    def test_error_bar_misses(self, kind, phi, phi_inv, lo, hi, domain, pinned):
        # A miss is a converged solve outside the documented error bar,
        # final_diameter / 2 + ulp(value) / 2 about K.  The counts pin the
        # kernels' rounding as it stands: a change may lower them, and must
        # not raise one.
        mapping = MeanTypeMapping(
            [parse_mean(s, 3) for s in ("projection:2", "projection:3", kind)], domain)
        rng = random.Random(0)
        misses = 0
        with localcontext(Context(prec=60)):
            pi = (Decimal(1) / 6, Decimal(1) / 3, Decimal(1) / 2)
            for _ in range(300):
                v = tuple(rng.uniform(lo, hi) for _ in range(3))
                est = gauss_iterate(mapping, v)
                assert est.converged, v
                k = phi_inv(sum(w * phi(Decimal(x)) for w, x in zip(pi, v)))
                bar = (Decimal(est.final_diameter) + Decimal(math.ulp(est.value))) / 2
                misses += abs(Decimal(est.value) - k) > bar
        assert misses <= pinned
