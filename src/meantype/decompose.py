"""Decomposition of invariant functions through the invariant mean.

A continuous F: I^p -> R invariant under a weakly contractive mean-type
mapping M (that is, F o M = F) factors as F = phi o K, where K is the
continuous invariant mean of M and phi(x) = F(x, ..., x) is F restricted
to the diagonal.  This module checks both halves numerically: the
invariance residual |F(M(v)) - F(v)| and the decomposition residual
|phi(K(v)) - F(v)|, each maximized over a shared sample set.

Residual magnitudes are all the probes report; none of this proves
invariance, and when the hypothesis fails (F not invariant, or K not
converging) the report says so through large residuals and flags rather
than a verdict.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from ._record import FrozenRecord, set_field
from . import invariant  # K solves run invariant._solve, looked up per call
from .errors import DomainViolation, InvalidMapping, ParseError
from .invariant import DEFAULT_MAX_ITER, DEFAULT_TOL, _check_arity, _check_iteration, over_samples
from .mapping import MeanTypeMapping, sample_vectors  # noqa: F401 -- bench/spans.py patches it here
from .means import mean_callable, midpoint, parse_mean


class InvariantFunction(FrozenRecord):
    """A named continuous function I^p -> R, the F of the probes."""

    __slots__ = _fields = ("name", "arity", "fn")

    def __init__(self, name: str, arity: int, fn: Callable[[Sequence[float]], float]):
        set_field(self, "name", name)
        set_field(self, "arity", arity)
        set_field(self, "fn", fn)

    def __call__(self, v: Sequence[float]) -> float:
        """``fn(v)``; an overflow or a value that is not finite raises
        :class:`DomainViolation` naming F."""
        try:
            y = self.fn(v)
            finite = math.isfinite(y)  # an int beyond the float range overflows here
        except OverflowError as exc:
            raise DomainViolation(f"function {self.name} overflows: {exc}") from exc
        if not finite:
            raise DomainViolation(f"function {self.name} is {y!r}")
        return y

    def __str__(self) -> str:
        return self.name


def product_function(p: int) -> InvariantFunction:
    return InvariantFunction("product", p, lambda v: math.prod(v))


def sum_function(p: int) -> InvariantFunction:
    return InvariantFunction("sum", p, lambda v: math.fsum(v))


def coordinate_function(index: int, p: int) -> InvariantFunction:
    if type(index) is not int or not 1 <= index <= p:  # a bool would read coordinate 1
        raise InvalidMapping(f"coordinate index must lie in 1..{p}, got {index!r}")
    return InvariantFunction(f"coord:{index}", p, lambda v: float(v[index - 1]))


def constant_function(value: float, p: int) -> InvariantFunction:
    return InvariantFunction(f"const:{value!r}", p, lambda v: value)


def mean_function(mapping: MeanTypeMapping, text: str) -> InvariantFunction:
    """A catalog mean, evaluated on the mapping's domain, as an F."""
    spec = parse_mean(text, mapping.p)
    return InvariantFunction(f"mean:{spec.canonical()}", mapping.p,
                             mean_callable(spec, mapping.domain))


def compose(outer_name: str, outer: Callable[[float], float],
            inner: InvariantFunction) -> InvariantFunction:
    """The composition outer o inner, for building F = psi o K fixtures.

    An outer function failing outside its domain (``sqrt`` of a negative,
    ``exp`` overflowing) raises :class:`DomainViolation`.
    """
    def fn(v: Sequence[float]) -> float:
        x = inner(v)
        try:
            return outer(x)
        except (ValueError, OverflowError) as exc:
            raise DomainViolation(f"{outer_name}({x!r}): {exc}") from exc

    return InvariantFunction(f"{outer_name}@{inner.name}", inner.arity, fn)


_UNARY: dict[str, Callable[[float], float]] = {
    "identity": lambda x: x,
    "square": lambda x: x * x,
    "sqrt": math.sqrt,
    "log": math.log,
    "exp": math.exp,
    "abs": abs,
    "neg": lambda x: -x,
}


def parse_function(text: str, mapping: MeanTypeMapping) -> InvariantFunction:
    """Parse the tiny function catalog used by the CLI.

    Grammar: ``product`` | ``sum`` | ``coord:<k>`` | ``const:<c>`` |
    ``mean:<mean spec>`` | ``<unary>@<function>`` with unary one of
    identity, square, sqrt, log, exp, abs, neg.
    """
    token = text.strip()
    if not token:
        raise ParseError("empty function specification", token=text)
    head, sep, rest = token.partition("@")
    if sep:
        key = head.strip().lower()
        if key not in _UNARY:
            raise ParseError(
                f"unknown unary {head.strip()!r}; available: {sorted(_UNARY)}",
                token=head.strip(),
            )
        return compose(key, _UNARY[key], parse_function(rest, mapping))
    lowered = token.lower()
    if lowered == "product":
        return product_function(mapping.p)
    if lowered == "sum":
        return sum_function(mapping.p)
    if lowered.startswith("coord:"):
        try:
            index = int(token.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad coordinate index in {token!r}", token=token) from None
        return coordinate_function(index, mapping.p)
    if lowered.startswith("const:"):
        try:
            value = float(token.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad constant in {token!r}", token=token) from None
        return constant_function(value, mapping.p)
    if lowered.startswith("mean:"):
        return mean_function(mapping, token.split(":", 1)[1])
    # bare mean strings double as functions: "geometric", "power:2", ...
    try:
        return mean_function(mapping, token)
    except ParseError:
        raise ParseError(f"unknown function {token!r}", token=token) from None


def diagonal_restriction(f: InvariantFunction) -> Callable[[float], float]:
    """phi(x) = F(x, ..., x): F pinned to the diagonal, exactly.

    A thin adaptor with no approximation; every continuous invariant F
    equals phi o K with this phi.
    """
    def phi(x: float) -> float:
        return f(tuple([float(x)] * f.arity))

    phi.__name__ = f"diagonal_{f.name}"
    return phi


class DecompositionReport(FrozenRecord):
    """Both residuals of F = phi o K over one shared sample set."""

    __slots__ = _fields = (
        "fixture", "mapping", "invariance_residual", "decomposition_residual", "samples", "tol",
        "k_steps_min", "k_steps_max", "k_steps_mean", "max_iter_hits")

    def __init__(self, fixture: str, mapping: MeanTypeMapping, invariance_residual: float,
                 decomposition_residual: float, samples: int, tol: float, k_steps_min: int,
                 k_steps_max: int, k_steps_mean: float, max_iter_hits: int):
        set_field(self, "fixture", fixture)
        set_field(self, "mapping", mapping)
        set_field(self, "invariance_residual", invariance_residual)
        set_field(self, "decomposition_residual", decomposition_residual)
        set_field(self, "samples", samples)
        set_field(self, "tol", tol)
        set_field(self, "k_steps_min", k_steps_min)
        set_field(self, "k_steps_max", k_steps_max)
        set_field(self, "k_steps_mean", k_steps_mean)
        # K runs that stopped on max_iter rather than tol
        set_field(self, "max_iter_hits", max_iter_hits)

    @property
    def k_converged(self) -> bool:
        return self.max_iter_hits == 0

    def to_json_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "mapping": self.mapping.describe(),
            "invariance_residual": self.invariance_residual,
            "decomposition_residual": self.decomposition_residual,
            "samples": self.samples,
            "tol": self.tol,
            "K_steps": {
                "min": self.k_steps_min,
                "max": self.k_steps_max,
                "mean": self.k_steps_mean,
            },
            "max_iter_hits": self.max_iter_hits,
        }


def verify_decomposition(
    f: InvariantFunction,
    mapping: MeanTypeMapping,
    tol: float = DEFAULT_TOL,
    sample_count: int = 100,
    seed: int = 42,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DecompositionReport:
    """Measure |F(M(v)) - F(v)| and |phi(K(v)) - F(v)| on one sample set.

    K is computed by Gauss iteration per sample; runs that hit ``max_iter``
    are counted in the report (the factorization claim assumes a
    convergent K, so a nonzero count downgrades the residuals to
    diagnostics).  Large invariance residual means the hypothesis F o M = F
    itself fails, and the decomposition residual is then expected to be
    large as well.  An F whose arity is not p raises :class:`InvalidMapping`.
    """
    _check_iteration(tol, max_iter, "mid")
    _check_arity(f, mapping.p)
    phi = diagonal_restriction(f)
    solve = invariant._solve

    def row(v):
        fv = f(v)
        invariance = abs(f(mapping.apply(v)) - fv)
        n, final, _, done = solve(mapping, v, tol, max_iter, False)  # K(v), mid readout
        return invariance, abs(phi(midpoint(final)) - fv), n, done

    rows = over_samples(row, mapping.domain, mapping.p, sample_count, seed)
    steps = [n for _, _, n, _ in rows]
    return DecompositionReport(
        fixture=f.name,
        mapping=mapping,
        invariance_residual=max(0.0, *(inv for inv, _, _, _ in rows)),
        decomposition_residual=max(0.0, *(dec for _, dec, _, _ in rows)),
        samples=sample_count,
        tol=tol,
        k_steps_min=min(steps),
        k_steps_max=max(steps),
        k_steps_mean=math.fsum(steps) / len(steps),
        max_iter_hits=sum(not done for _, _, _, done in rows),
    )
