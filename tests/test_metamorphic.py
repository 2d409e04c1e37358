"""Metamorphic relations of the float engine, which need no oracle.

Scaling a float by 2^k is exact away from overflow and subnormals, so a
mean computed scale-free gives ``M(2^k v) == 2^k M(v)`` bit for bit, and a
Gauss run with ``relative=True`` from ``2^k v`` takes the same steps to 2^k
times the value.  A mapping whose components are all symmetric means maps
every reordering of a vector to one image, so its run is the same on any
reordering of the start.  Coordinates are ``exp(U(-5, 5))``: positive, so
neither relation meets the two zeros, which ``max`` and ``sorted`` tell
apart by order.  Both relations guard the order-free sums and the exact
scalings against a later speed change, such as swapping ``fsum`` for
``sum`` or reassociating a pair form.
"""

import math

from hypothesis import given, settings, strategies as st

from meantype import MeanSpec, MeanTypeMapping, eval_mean, gauss_iterate, parse_mean
from conftest import POSITIVE

ARITIES = (2, 3, 4, 5)

#: The kinds whose kernel scales exactly by 2^k, with the arities at which
#: it does.  It may only grow: a kind joins once its kernel scales exactly
#: at an arity (the geometric mean at p = 2 takes the square root of one
#: product; at p >= 3 it sums logarithms, which does not scale exactly).
EQUIVARIANT_KINDS = {
    **dict.fromkeys(["arithmetic", "harmonic", "median", "min", "max",
                     "weighted_arithmetic", "projection"], ARITIES),
    "geometric": (2,),
}

#: Symmetric means in textual form: each gives one value on every reordering.
SYMMETRIC = ("arithmetic", "geometric", "harmonic", "median", "min", "max", "quasi:identity",
             "quasi:log", "quasi:exp") + tuple(
    f"{form}:{t!r}" for form in ("power", "quasi:power")
    for t in (-3.0, -1.5, -0.05, 1e-9, 0.05, 0.5, 2.0, 3.0))

SETTINGS = settings(derandomize=True, deadline=None, max_examples=400)
MAX_ITER = 200

positive = st.floats(-5.0, 5.0).map(math.exp)
powers = st.integers(-40, 40)


def _scaled(v, k):
    return tuple(math.ldexp(x, k) for x in v)


@st.composite
def equivariant_specs(draw, p=None):
    """A mean of :data:`EQUIVARIANT_KINDS` at one of its arities, or at ``p``."""
    kinds = [kind for kind, arities in EQUIVARIANT_KINDS.items() if p is None or p in arities]
    kind = draw(st.sampled_from(kinds))
    if p is None:
        p = draw(st.sampled_from(EQUIVARIANT_KINDS[kind]))
    if kind == "projection":
        return MeanSpec.projection(draw(st.integers(1, p)), p)
    if kind == "weighted_arithmetic":
        r = draw(st.lists(st.floats(0.125, 1.0), min_size=p, max_size=p))
        return MeanSpec.weighted_arithmetic([x / math.fsum(r) for x in r])
    return MeanSpec(kind, p)


@st.composite
def equivariant_mappings(draw):
    p = draw(st.sampled_from(ARITIES))
    return MeanTypeMapping([draw(equivariant_specs(p)) for _ in range(p)], POSITIVE)


@st.composite
def symmetric_mappings(draw):
    p = draw(st.sampled_from(ARITIES))
    return MeanTypeMapping([parse_mean(draw(st.sampled_from(SYMMETRIC)), p)
                            for _ in range(p)], POSITIVE)


class TestScaling:
    @SETTINGS
    @given(st.data(), equivariant_specs(), powers)
    def test_eval_mean_scales_exactly(self, data, spec, k):
        v = data.draw(st.lists(positive, min_size=spec.arity, max_size=spec.arity))
        assert eval_mean(spec, _scaled(v, k), POSITIVE) == math.ldexp(
            eval_mean(spec, v, POSITIVE), k)

    @SETTINGS
    @given(st.data(), equivariant_mappings(), powers)
    def test_relative_gauss_run_scales_exactly(self, data, mapping, k):
        v = data.draw(st.lists(positive, min_size=mapping.p, max_size=mapping.p))
        run = gauss_iterate(mapping, v, max_iter=MAX_ITER, relative=True)
        scaled = gauss_iterate(mapping, _scaled(v, k), max_iter=MAX_ITER, relative=True)
        assert (scaled.steps, scaled.status) == (run.steps, run.status)
        assert (scaled.value, scaled.final_diameter) == _scaled((run.value, run.final_diameter), k)


class TestPermutation:
    @settings(SETTINGS, max_examples=300)
    @given(st.data(), symmetric_mappings())
    def test_reordered_start_runs_the_same(self, data, mapping):
        v = data.draw(st.lists(positive, min_size=mapping.p, max_size=mapping.p))
        order = data.draw(st.permutations(range(mapping.p)))
        w = [v[i] for i in order]
        # == treats the two zeros as equal; positive starts never produce one
        assert mapping.apply(w) == mapping.apply(v)
        run = gauss_iterate(mapping, v, max_iter=MAX_ITER)
        reordered = gauss_iterate(mapping, w, max_iter=MAX_ITER)
        assert ((reordered.value, reordered.steps, reordered.status)
                == (run.value, run.steps, run.status))
