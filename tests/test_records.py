"""The package's value classes: construction, equality, hashing, repr,
immutability and pickling, as a caller sees them.

Each row of ``CASES`` holds an instance built positionally with the
defaults left out, the same value built by keyword with every default
spelled out, an unequal instance of the same class, and the exact repr
of the first.
"""

import math
import pickle

import pytest

from meantype.decompose import DecompositionReport, InvariantFunction
from meantype.invariant import InvariantEstimate
from meantype.mapping import ContractivityVerdict, IterationTrace, MeanTypeMapping, TraceStep
from meantype.means import Interval, MeanSpec

POS = Interval(0.0, math.inf)
POS_REPR = "Interval(lower=0.0, upper=inf, lower_closed=False, upper_closed=False)"
ARITH = MeanSpec("arithmetic", 2)
ARITH_REPR = ("MeanSpec(kind='arithmetic', arity=2, exponent=None, generator=None, "
              "index=None, weights=None)")
GEOM = MeanSpec("geometric", 2)
GEOM_REPR = ARITH_REPR.replace("arithmetic", "geometric")
AGM = MeanTypeMapping((ARITH, GEOM), POS, "agm")
AGM_REPR = f"MeanTypeMapping(components=({ARITH_REPR}, {GEOM_REPR}), domain={POS_REPR}, name='agm')"
STEP = TraceStep(0, (1.0, 2.0), 1.0)
STEP_REPR = "TraceStep(step=0, vector=(1.0, 2.0), diameter=1.0)"

CASES = {
    "Interval": (
        Interval(),
        Interval(lower=-math.inf, upper=math.inf, lower_closed=False, upper_closed=False),
        POS,
        "Interval(lower=-inf, upper=inf, lower_closed=False, upper_closed=False)",
    ),
    "MeanSpec": (
        ARITH,
        MeanSpec(kind="arithmetic", arity=2, exponent=None, generator=None, index=None,
                 weights=None),
        GEOM,
        ARITH_REPR,
    ),
    "MeanTypeMapping": (
        AGM,
        MeanTypeMapping(components=(ARITH, GEOM), domain=POS, name="agm"),
        MeanTypeMapping((ARITH, GEOM), POS),
        AGM_REPR,
    ),
    "TraceStep": (
        STEP,
        TraceStep(step=0, vector=(1.0, 2.0), diameter=1.0),
        TraceStep(1, (1.0, 2.0), 1.0),
        STEP_REPR,
    ),
    "IterationTrace": (
        IterationTrace(AGM, [STEP]),
        IterationTrace(mapping=AGM, steps=[STEP]),
        IterationTrace(AGM, []),
        f"IterationTrace(mapping={AGM_REPR}, steps=[{STEP_REPR}])",
    ),
    "ContractivityVerdict": (
        ContractivityVerdict(AGM, None, 5, 1),
        ContractivityVerdict(mapping=AGM, counterexample=None, samples_tested=5, skipped=1),
        ContractivityVerdict(AGM, (1.0, 2.0), 5, 1),
        f"ContractivityVerdict(mapping={AGM_REPR}, counterexample=None, samples_tested=5, "
        f"skipped=1)",
    ),
    "InvariantEstimate": (
        InvariantEstimate(1.5, 4, 0.0, "converged"),
        InvariantEstimate(value=1.5, steps=4, final_diameter=0.0, status="converged",
                          trace=None),
        InvariantEstimate(1.5, 5, 0.0, "converged"),
        "InvariantEstimate(value=1.5, steps=4, final_diameter=0.0, status='converged', "
        "trace=None)",
    ),
    "InvariantFunction": (
        InvariantFunction("sum", 2, math.fsum),
        InvariantFunction(name="sum", arity=2, fn=math.fsum),
        InvariantFunction("sum", 3, math.fsum),
        "InvariantFunction(name='sum', arity=2, fn=<built-in function fsum>)",
    ),
    "DecompositionReport": (
        DecompositionReport("sum", AGM, 0.0, 1e-13, 3, 1e-12, 4, 5, 4.5, 0),
        DecompositionReport(fixture="sum", mapping=AGM, invariance_residual=0.0,
                            decomposition_residual=1e-13, samples=3, tol=1e-12,
                            k_steps_min=4, k_steps_max=5, k_steps_mean=4.5, max_iter_hits=0),
        DecompositionReport("sum", AGM, 0.0, 1e-13, 3, 1e-12, 4, 5, 4.5, 1),
        f"DecompositionReport(fixture='sum', mapping={AGM_REPR}, invariance_residual=0.0, "
        f"decomposition_residual=1e-13, samples=3, tol=1e-12, k_steps_min=4, k_steps_max=5, "
        f"k_steps_mean=4.5, max_iter_hits=0)",
    ),
}

# IterationTrace keeps its steps in a list, so it is frozen but cannot be hashed.
HASHABLE = [name for name in CASES if name != "IterationTrace"]


@pytest.mark.parametrize("name", CASES)
def test_construction_and_equality(name):
    positional, keyword, other, _ = CASES[name]
    assert type(positional).__name__ == name
    assert positional == keyword and not positional != keyword
    assert positional != other and not positional == other
    assert positional != object() and not positional == object()


@pytest.mark.parametrize("name", CASES)
def test_repr_is_exact(name):
    positional, keyword, _, text = CASES[name]
    assert repr(positional) == repr(keyword) == text


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_frozen_values_hash_equal(name):
    positional, keyword, other, _ = CASES[name]
    assert hash(positional) == hash(keyword)
    assert {positional, keyword, other} == {positional, other}


@pytest.mark.parametrize("name", ["IterationTrace"])
def test_unhashable(name):
    with pytest.raises(TypeError):
        hash(CASES[name][0])


@pytest.mark.parametrize("name", CASES)
def test_frozen_rejects_assignment_and_deletion(name):
    value, _, other, text = CASES[name]
    field = text[len(name) + 1:].split("=", 1)[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before
    assert repr(value) == text


def test_mapping_equality_ignores_bound_kernels():
    a = MeanTypeMapping([ARITH, GEOM], POS, "agm")
    assert a.components == (ARITH, GEOM)
    assert a._step is not AGM._step
    assert a == AGM and hash(a) == hash(AGM)
    assert repr(a) == AGM_REPR


@pytest.mark.parametrize("value", [
    Interval(1.0, 10.0, True, False),
    MeanSpec.quasi_arithmetic("power", 3, 0.5),
    MeanSpec.weighted_arithmetic([0.25, 0.75]),
    AGM,
    InvariantEstimate(1.5, 4, 0.0, "converged", IterationTrace(AGM, [STEP])),
], ids=lambda value: type(value).__name__)
def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value
    assert repr(copy) == repr(value)
