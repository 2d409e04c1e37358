import math

import pytest

from meantype import (
    Interval,
    MeanSpec,
    MeanTypeMapping,
    agm_mapping,
    arithmetic_harmonic_mapping,
    projection_mapping,
    shift_average_mapping,
)

POSITIVE = Interval(0.0, math.inf)


@pytest.fixture
def agm() -> MeanTypeMapping:
    return agm_mapping()


@pytest.fixture
def ah() -> MeanTypeMapping:
    return arithmetic_harmonic_mapping()


@pytest.fixture
def ah_box() -> MeanTypeMapping:
    # bounded variant: absolute residuals on products stay meaningful
    # (coordinates near 100 put one ulp of x*y above 1e-12)
    return arithmetic_harmonic_mapping(
        Interval(0.5, 10.0, lower_closed=True, upper_closed=True))


@pytest.fixture
def shift3() -> MeanTypeMapping:
    return shift_average_mapping(3)


@pytest.fixture
def projections() -> MeanTypeMapping:
    return projection_mapping(2)


def catalog_mappings() -> list[MeanTypeMapping]:
    """Mappings that jointly exercise every mean kind in the catalog."""
    reals = Interval()
    return [
        agm_mapping(),
        arithmetic_harmonic_mapping(),
        MeanTypeMapping(
            (MeanSpec.arithmetic(3), MeanSpec.geometric(3), MeanSpec.harmonic(3)),
            POSITIVE, name="agh3"),
        MeanTypeMapping(
            (MeanSpec.power(2.0, 2), MeanSpec.power(0.0, 2)), POSITIVE,
            name="power-pair"),
        MeanTypeMapping(
            (MeanSpec.power(0.5, 2), MeanSpec.weighted_arithmetic((0.3, 0.7))),
            POSITIVE, name="power-weighted"),
        MeanTypeMapping(
            (MeanSpec.quasi_arithmetic("exp", 2), MeanSpec.quasi_arithmetic("identity", 2)),
            reals, name="quasi-exp-id"),
        MeanTypeMapping(
            (MeanSpec.quasi_arithmetic("power", 2, exponent=2.0), MeanSpec.geometric(2)),
            POSITIVE, name="quasi-power-geom"),
        MeanTypeMapping(
            (MeanSpec.median(3), MeanSpec.arithmetic(3), MeanSpec.maximum(3)),
            reals, name="median-arith-max"),
        MeanTypeMapping(
            (MeanSpec.minimum(2), MeanSpec.maximum(2)), reals, name="min-max"),
        shift_average_mapping(3),
    ]
