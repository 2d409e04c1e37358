"""Acceptance suite: every criterion runs at its pinned tolerance and
prints one PASS line (visible with ``pytest -s``).  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import random

from scipy.integrate import quad

from meantype import (
    Interval,
    InvariantMean,
    MeanSpec,
    MeanTypeMapping,
    agm_mapping,
    arithmetic_harmonic_mapping,
    diameter,
    find_n0,
    gauss_iterate,
    is_contractive_at,
    mean_callable,
    probe_contractivity,
    projection_mapping,
    sample_vectors,
    shift_average_mapping,
    star_apply,
    uniqueness_probe,
    verify_decomposition,
)
from meantype.cli import main as cli_main
from meantype.decompose import coordinate_function, product_function
from conftest import catalog_mappings

SEED = 2026


def announce(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def elliptic_integral(a: float, b: float) -> float:
    """Quadrature of 1 / sqrt(a^2 cos^2 t + b^2 sin^2 t) over [0, pi/2].

    Independent of the iteration machinery under test: the compound limit
    of the (arithmetic, geometric) pair equals pi / (2 * this integral).
    """
    def integrand(t: float) -> float:
        return 1.0 / math.sqrt(a * a * math.cos(t) ** 2 + b * b * math.sin(t) ** 2)

    value, abserr = quad(integrand, 0.0, math.pi / 2, epsabs=1e-12, epsrel=1e-12)
    assert abserr < 1e-11
    return value


def weakly_contractive_fixtures() -> list[MeanTypeMapping]:
    # everything in the shared catalog except the diameter-preserving
    # (min, max) pair, plus a longer shift
    fixtures = [m for m in catalog_mappings() if m.name != "min-max"]
    fixtures.append(shift_average_mapping(4))
    return fixtures


def test_criterion_1_agm_against_quadrature():
    expected = math.pi / (2.0 * elliptic_integral(1.0, 2.0))
    est = gauss_iterate(agm_mapping(), (1.0, 2.0), tol=1e-12)
    assert est.converged
    assert abs(est.value - expected) <= 1e-10
    announce(1, f"Gauss value {est.value:.15f} within 1e-10 of quadrature "
                f"{expected:.15f}")


def test_criterion_2_arithmetic_harmonic_identity():
    k = InvariantMean(arithmetic_harmonic_mapping(), tol=1e-12)
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(0.5, 100.0), rng.uniform(0.5, 100.0)
        worst = max(worst, abs(k((x, y)) - math.sqrt(x * y)))
    assert worst <= 1e-10
    announce(2, f"|K(x,y) - sqrt(xy)| <= 1e-10 on 100 pairs in [0.5,100]^2 "
                f"(worst {worst:.2e})")


def test_criterion_3_diameter_monotonicity():
    mappings = catalog_mappings()
    per_mapping = 10_000 // len(mappings)
    violations = 0
    checked = 0
    for mapping in mappings:
        for v in sample_vectors(mapping.domain, mapping.p, per_mapping, seed=SEED):
            checked += 1
            if diameter(mapping.apply(v)) > diameter(v) + 1e-12:
                violations += 1
    assert checked == 10_000
    assert violations == 0
    announce(3, f"0 diameter-monotonicity violations over {checked} samples "
                f"across {len(mappings)} mappings")


def test_criterion_4_uniqueness_across_readouts():
    tol = 1e-12
    shift3 = shift_average_mapping(3)
    readout_means = {r: InvariantMean(shift3, tol=tol, readout=r)
                     for r in ("mid", "min", "max")}
    worst = 0.0
    for r1, r2 in [("mid", "min"), ("mid", "max"), ("min", "max")]:
        worst = max(worst, uniqueness_probe(
            readout_means[r1], readout_means[r2], shift3.domain, 3, 100, seed=SEED))
    assert worst <= 2 * tol

    ah = arithmetic_harmonic_mapping()
    closed_form = mean_callable(MeanSpec.geometric(2), ah.domain)
    gap = uniqueness_probe(InvariantMean(ah, tol=tol), closed_form,
                           ah.domain, 2, 100, seed=SEED)
    assert gap <= 1e-10
    announce(4, f"readouts agree within 2*tol (worst {worst:.2e}); "
                f"AH invariant mean vs geometric within 1e-10 (gap {gap:.2e})")


def test_criterion_5_weak_contractivity_of_shift_average():
    shift3 = shift_average_mapping(3)
    assert find_n0(shift3, (0.0, 1.0, 0.0), cap=10) == 2

    non_contractive_seen = 0
    worst_n0 = 0
    count = 0
    for v in sample_vectors(shift3.domain, 3, 100, seed=SEED):
        if diameter(v) == 0.0:
            continue
        count += 1
        n0 = find_n0(shift3, v, cap=10)
        worst_n0 = max(worst_n0, n0)
        if not is_contractive_at(shift3, v):
            non_contractive_seen += 1
    assert count == 100
    assert worst_n0 <= 10
    assert non_contractive_seen >= 1
    announce(5, f"n0((0,1,0)) = 2; n0 <= {worst_n0} on 100 samples; "
                f"{non_contractive_seen} samples not contractive in one step")


def test_criterion_6_star_apply_strictly_contracts():
    fixtures = [
        agm_mapping(),
        arithmetic_harmonic_mapping(),
        shift_average_mapping(3),
        shift_average_mapping(4),
        shift_average_mapping(5),
    ]
    succeeded = 0
    violations = 0
    for mapping in fixtures:
        for v in sample_vectors(mapping.domain, mapping.p, 200, seed=SEED):
            if diameter(v) == 0.0:
                continue
            image = star_apply(mapping, v, cap=1000)
            succeeded += 1
            if not diameter(image) < diameter(v):
                violations += 1
    assert succeeded == 1000
    assert violations == 0
    announce(6, f"star-apply strictly decreased diameter on all {succeeded} "
                f"samples where n0 was found")


def test_criterion_7_decomposition(tmp_path, capsys):
    ah_box = arithmetic_harmonic_mapping(
        Interval(0.5, 10.0, lower_closed=True, upper_closed=True))
    report = verify_decomposition(product_function(2), ah_box, tol=1e-12,
                                  sample_count=100, seed=SEED)
    assert report.invariance_residual <= 1e-12
    assert report.decomposition_residual <= 1e-9

    agm = agm_mapping()
    bad = verify_decomposition(coordinate_function(1, 2), agm, tol=1e-12,
                               sample_count=100, seed=SEED)
    assert bad.invariance_residual >= 0.01

    # the negative result must surface as exit code 2 through the CLI
    cfg = tmp_path / "agm.cfg"
    cfg.write_text("p = 2\ndomain = (0, inf)\ncomponents = arithmetic, geometric\n")
    code = cli_main(["decompose", "--mapping", str(cfg), "--function", "coord:1",
                     "--samples", "50", "--seed", str(SEED)])
    capsys.readouterr()
    assert code == 2
    announce(7, f"product/AH residuals {report.invariance_residual:.2e} / "
                f"{report.decomposition_residual:.2e}; non-invariant coord:1 "
                f"residual {bad.invariance_residual:.2e} and CLI exit 2")


def test_criterion_8_convergence_behavior():
    fixtures = weakly_contractive_fixtures()
    worst_steps = 0
    for mapping in fixtures:
        for v in sample_vectors(mapping.domain, mapping.p, 100, seed=SEED):
            est = gauss_iterate(mapping, v, tol=1e-12, max_iter=10_000)
            assert est.converged, (mapping, v, est)
            worst_steps = max(worst_steps, est.steps)

    projections = projection_mapping(2)
    for v in [(0.0, 1.0), (-4.5, 3.25), (1e-3, 2e-3)]:
        est = gauss_iterate(projections, v, tol=1e-12, max_iter=10_000)
        assert est.status == "max_iter_reached"
        assert est.steps == 10_000
    announce(8, f"{len(fixtures)} fixtures x 100 vectors all converged "
                f"(worst {worst_steps} steps); projection fixture reports "
                f"max_iter_reached without error")


def test_weakly_contractive_fixtures_are_not_all_contractive():
    # sanity on the fixture list itself: shift-average members are weakly
    # contractive only, the probe must find one-step counterexamples
    verdict = probe_contractivity(shift_average_mapping(3), 100, seed=SEED)
    assert verdict.found
