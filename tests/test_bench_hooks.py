"""The benchmark's span tracer finds every name it patches.

``bench/spans.py`` wraps package functions through the module attributes
the package looks up at call time (``invariant.diameter``,
``decompose.sample_vectors``, ``cli.gauss_iterate``, ...).  A refactor
that drops one of those names would otherwise surface only as a traced
benchmark run dying with AttributeError; here it fails the test suite.
"""

import sys
from pathlib import Path

import meantype
import meantype.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402

PATCHED = (
    meantype.mapping, meantype.mapping.MeanTypeMapping, meantype.invariant,
    meantype.decompose, meantype.cli,
)


def _attributes():
    return [dict(vars(obj)) for obj in PATCHED]


def test_tracer_patches_and_restores():
    before = _attributes()
    tracer = spans.Tracer(meantype)
    try:
        with tracer:
            assert _attributes() != before
            meantype.invariant.gauss_iterate(meantype.agm_mapping(), (1.0, 2.0))
    finally:
        tracer.__exit__()  # undoes the patches a failing __enter__ had made
    assert _attributes() == before

    metrics = tracer.layer_metrics()
    assert metrics["invariant.solves"] == 1
    assert metrics["invariant.steps"] == 4
    # the Gauss loop checks, measures and maps a valid iterate itself, without apply or diameter
    assert metrics["mapping.apply_calls"] == 0
    assert metrics["mapping.diameter_calls"] == 0
