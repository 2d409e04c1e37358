import json
import math
import pickle

import pytest

import meantype.invariant
from meantype import (
    DecompositionReport,
    DomainViolation,
    InvalidMapping,
    InvariantFunction,
    InvariantMean,
    Interval,
    MeanSpec,
    MeanTypeMapping,
    ParseError,
    agm_mapping,
    arithmetic_harmonic_mapping,
    compose,
    constant_function,
    coordinate_function,
    diagonal_restriction,
    invariance_residual,
    mean_function,
    parse_function,
    product_function,
    projection_mapping,
    sample_vectors,
    shift_average_mapping,
    sum_function,
    verify_decomposition,
)
from meantype.invariant import DEFAULT_MAX_ITER

# pi / (2 * quadrature integral), same oracle as the AGM acceptance value;
# the compound limit of the (arithmetic, geometric) pair from (1, 9).
AGM_1_9 = 3.9362355036495544


class TestDiagonalRestriction:
    def test_product_gives_square(self):
        phi = diagonal_restriction(product_function(2))
        assert phi(3.0) == 9.0

    def test_any_mean_gives_identity(self, agm):
        phi = diagonal_restriction(mean_function(agm, "geometric"))
        assert phi(5.0) == 5.0

    def test_coordinate_gives_identity(self):
        phi = diagonal_restriction(coordinate_function(1, 2))
        assert phi(7.25) == 7.25

    def test_exact_no_approximation(self):
        f = InvariantFunction("probe", 3, lambda v: v[0] * 2.0 + v[1] - v[2])
        phi = diagonal_restriction(f)
        for x in (0.1, 1.0, 97.3, -4.5):
            assert phi(x) == f((x, x, x))


class TestCheckInvariance:
    def test_product_invariant_under_ah(self, ah_box):
        # A * H preserves x*y exactly (algebraic identity)
        assert invariance_residual(product_function(2), ah_box, 500, seed=42) <= 1e-12

    def test_arithmetic_mean_not_agm_invariant(self, agm):
        # at (1, 9): F(M(v)) = (5+3)/2 = 4 but F(v) = 5
        f = mean_function(agm, "arithmetic")
        assert abs(f(agm.apply((1.0, 9.0))) - f((1.0, 9.0))) == pytest.approx(1.0, abs=1e-12)
        assert invariance_residual(f, agm, 200, seed=42) > 0.01

    def test_constant_residual_zero(self, agm):
        assert invariance_residual(constant_function(2.5, 2), agm, 100, seed=42) == 0.0

    def test_sum_not_invariant_under_ah(self, ah):
        assert invariance_residual(sum_function(2), ah, 100, seed=42) > 0.01


def _reference_report(f, mapping, sample_count, seed, max_iter):
    """verify_decomposition written over ``InvariantMean.estimate``, one run per sample."""
    k = InvariantMean(mapping, max_iter=max_iter)
    phi = diagonal_restriction(f)
    invariance, decomposition, steps, hits = [], [], [], 0
    for v in sample_vectors(mapping.domain, mapping.p, sample_count, seed):
        fv = f(v)
        invariance.append(abs(f(mapping.apply(v)) - fv))
        est = k.estimate(v)
        decomposition.append(abs(phi(est.value) - fv))
        steps.append(est.steps)
        hits += est.status == "max_iter_reached"
    return DecompositionReport(f.name, mapping, max(0.0, *invariance), max(0.0, *decomposition),
                               sample_count, k.tol, min(steps), max(steps),
                               math.fsum(steps) / len(steps), hits)


class TestVerifyDecomposition:
    def test_product_under_ah(self, ah_box):
        # phi(t) = t^2 and K = sqrt(x*y), so phi(K(v)) = x*y = F(v)
        report = verify_decomposition(product_function(2), ah_box, tol=1e-12,
                                      sample_count=100, seed=42)
        assert report.invariance_residual <= 1e-12
        assert report.decomposition_residual <= 1e-10
        assert report.max_iter_hits == 0
        assert report.k_converged

    def test_own_invariant_mean_decomposes_trivially(self, ah):
        # F = K (tighter reference tolerance): phi = identity, so the
        # residual is the gap between two iteration tolerances
        tol = 1e-12
        f = InvariantFunction("invariant-mean", 2, InvariantMean(ah, tol=1e-14))
        report = verify_decomposition(f, ah, tol=tol, sample_count=100, seed=42)
        assert report.invariance_residual <= 2 * tol
        assert report.decomposition_residual <= 2 * tol

    def test_non_invariant_coordinate_under_agm(self, agm):
        # F is not invariant here, so both residuals blow up
        report = verify_decomposition(coordinate_function(1, 2), agm, tol=1e-12,
                                      sample_count=100, seed=42)
        assert report.invariance_residual >= 0.01
        assert report.decomposition_residual >= 0.1
        # direct oracle at (1, 9): F = 1, phi(K(v)) = K(v) = AGM(1, 9)
        k = InvariantMean(agm, tol=1e-12)
        phi = diagonal_restriction(coordinate_function(1, 2))
        assert abs(phi(k((1.0, 9.0))) - 1.0) == pytest.approx(AGM_1_9 - 1.0, abs=1e-10)

    @pytest.mark.parametrize("unary,unary_name,lip", [
        # Lipschitz constants on the AH sampling box (K values in [0.01, 100])
        (lambda x: x * x, "square", 200.0),
        (math.sqrt, "sqrt", 5.0),
        (lambda x: x, "identity", 1.0),
    ])
    def test_reconstruction_round_trip(self, ah, unary, unary_name, lip):
        # F := psi o K built from a tighter reference K; recovery residual
        # is bounded by 2 * tol * Lip(psi)
        tol = 1e-12
        reference = InvariantFunction("K", 2, InvariantMean(ah, tol=1e-14))
        f = compose(unary_name, unary, reference)
        report = verify_decomposition(f, ah, tol=tol, sample_count=100, seed=42)
        assert report.decomposition_residual <= 2 * tol * lip

    def test_max_iter_flagged(self, projections):
        report = verify_decomposition(product_function(2), projections, tol=1e-12,
                                      sample_count=20, seed=42, max_iter=30)
        assert report.max_iter_hits > 0
        assert not report.k_converged

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5, DEFAULT_MAX_ITER])
    @pytest.mark.parametrize("mapping", [
        agm_mapping(), arithmetic_harmonic_mapping(), shift_average_mapping(3),
        projection_mapping(2),
    ], ids=lambda m: m.name)
    def test_matches_the_estimate_path(self, mapping, max_iter):
        f = product_function(mapping.p)
        got = verify_decomposition(f, mapping, sample_count=30, seed=7, max_iter=max_iter)
        want = _reference_report(f, mapping, 30, 7, max_iter)
        assert [repr(getattr(got, name)) for name in DecompositionReport._fields] == \
            [repr(getattr(want, name)) for name in DecompositionReport._fields]

    def test_steps_stats(self, ah):
        report = verify_decomposition(product_function(2), ah, sample_count=50, seed=42)
        assert 0 <= report.k_steps_min <= report.k_steps_mean <= report.k_steps_max

    def test_json_document_shape(self, ah):
        report = verify_decomposition(product_function(2), ah, sample_count=20, seed=42)
        doc = report.to_json_dict()
        assert set(doc) >= {"fixture", "invariance_residual", "decomposition_residual",
                            "samples", "tol", "K_steps"}
        assert set(doc["K_steps"]) == {"min", "max", "mean"}
        json.dumps(doc)


class TestParseFunction:
    def test_basic_forms(self, agm):
        assert parse_function("product", agm)((2.0, 3.0)) == 6.0
        assert parse_function("sum", agm)((2.0, 3.0)) == 5.0
        assert parse_function("coord:2", agm)((2.0, 3.0)) == 3.0
        assert parse_function("const:1.5", agm)((2.0, 3.0)) == 1.5
        assert parse_function("mean:geometric", agm)((4.0, 9.0)) == pytest.approx(6.0)

    @pytest.mark.parametrize("make, fn", [(product_function, math.prod),
                                          (sum_function, math.fsum)], ids=["product", "sum"])
    def test_product_and_sum_hold_the_builtin(self, make, fn):
        # no lambda around it: such an F compares equal and pickles
        f = make(3)
        assert f.fn is fn
        assert f == make(3) == pickle.loads(pickle.dumps(f))

    def test_bare_mean_string(self, agm):
        assert parse_function("arithmetic", agm)((2.0, 4.0)) == 3.0

    def test_composition(self, agm):
        f = parse_function("square@mean:geometric", agm)
        assert f((4.0, 9.0)) == pytest.approx(36.0, abs=1e-10)
        g = parse_function("log@coord:1", agm)
        assert g((math.e, 1.0)) == pytest.approx(1.0)

    def test_nested_composition(self, agm):
        f = parse_function("sqrt@square@coord:1", agm)
        assert f((7.0, 1.0)) == pytest.approx(7.0)

    @pytest.mark.parametrize("bad", ["", "frobnicate", "coord:x", "const:abc",
                                     "cube@product"])
    def test_errors(self, bad, agm):
        with pytest.raises(ParseError):
            parse_function(bad, agm)

    @pytest.mark.parametrize("text,v", [
        ("sqrt@sum", (-1.0, -2.0, 0.5)),
        ("log@coord:1", (0.0, 1.0, 2.0)),
        ("exp@sum", (500.0, 500.0, 1.0)),
    ])
    def test_unary_outside_domain_is_domain_violation(self, shift3, text, v):
        with pytest.raises(DomainViolation):
            parse_function(text, shift3)(v)

    @pytest.mark.parametrize("text,v,message", [
        ("sum", (1e308, 1.7e308, 1e308), "function sum overflows: "),
        ("product", (1e200, 1e200, 1.0), "function product is inf"),
        ("square@coord:1", (1e200, 0.0, 0.0), "function square@coord:1 is inf"),
        ("const:nan", (1.0, 2.0, 3.0), "function const:nan is nan"),
    ])
    def test_overflow_or_non_finite_value_is_domain_violation(self, shift3, text, v, message):
        with pytest.raises(DomainViolation, match=f"^{message}"):
            parse_function(text, shift3)(v)

    def test_int_beyond_the_float_range_is_domain_violation(self):
        f = InvariantFunction("big", 2, lambda v: 10**400)
        with pytest.raises(DomainViolation, match="^function big overflows: "):
            f((1.0, 2.0))

    def test_non_finite_value_in_probe_names_sample(self):
        # every F value here is inf: the residuals were max(0.0, nan, ...) = 0.0
        mapping = MeanTypeMapping((MeanSpec.arithmetic(2), MeanSpec.geometric(2)),
                                  Interval(1e307, 1.7e308, True, True))
        with pytest.raises(DomainViolation, match=r"^sample 0 \[.*\]: function product is inf$"):
            verify_decomposition(product_function(2), mapping, sample_count=5)

    def test_unary_error_in_probe_names_sample(self, shift3):
        with pytest.raises(DomainViolation, match="sample 1 "):
            verify_decomposition(parse_function("sqrt@sum", shift3), shift3, sample_count=5)

    def test_coordinate_index_outside_the_arity_rejected(self):
        with pytest.raises(InvalidMapping) as info:
            coordinate_function(0, 2)
        assert str(info.value) == "coordinate index must lie in 1..2, got 0"

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1"], ids=repr)
    def test_coordinate_index_that_is_not_an_int_rejected(self, index):
        # 1.5 would pass a range check and fail on the first call; True would read coordinate 1
        with pytest.raises(InvalidMapping) as info:
            coordinate_function(index, 2)
        assert str(info.value) == f"coordinate index must lie in 1..2, got {index!r}"

    def test_function_of_another_arity_rejected_before_sampling(self, monkeypatch, agm):
        # phi would read F at 3 coordinates, and each sample has 2
        drawn = []
        monkeypatch.setattr(meantype.invariant, "sample_vectors",
                            lambda *args: drawn.append(args) or iter(()))
        with pytest.raises(InvalidMapping) as info:
            verify_decomposition(product_function(3), agm)
        assert str(info.value) == "function product has arity 3, but the mapping has p = 2"
        assert drawn == []

    def test_str_is_the_name(self, agm):
        assert str(coordinate_function(2, 3)) == "coord:2"
        assert str(parse_function("square@mean:geometric", agm)) == "square@mean:geometric"

    def test_names_offending_token(self, agm):
        with pytest.raises(ParseError) as exc:
            parse_function("cube@product", agm)
        assert exc.value.token == "cube"
