"""Mean-type mappings on intervals.

Build tuples of means acting coordinate-wise on I^p, iterate them to
their invariant mean (Gauss iteration), probe contractivity and weak
contractivity (the per-vector index n0 and the derived mapping M*), and
decompose invariant functions as phi o K.

``import meantype`` loads ``errors``, ``means``, ``mapping`` and
``invariant``.  The ``decompose`` module and the names it exports load
on first use, through the module ``__getattr__`` below (PEP 562), so a
process that never decomposes never compiles it.  The standard-library
``random``, ``json``, ``csv`` and ``datetime`` load likewise, when a
command samples, writes JSON, writes CSV or stamps a JSON document.
"""

from .errors import (
    ArityMismatch,
    ConstantVector,
    DomainViolation,
    EmptyVector,
    InvalidInterval,
    InvalidMapping,
    InvalidMeanSpec,
    MeanTypeError,
    NonFiniteInput,
    NotFoundWithinCap,
    ParseError,
)
from .invariant import (
    InvariantEstimate,
    InvariantMean,
    gauss_iterate,
    invariance_residual,
    uniqueness_probe,
)
from .mapping import (
    ContractivityVerdict,
    IterationTrace,
    MeanTypeMapping,
    TraceStep,
    agm_mapping,
    arithmetic_harmonic_mapping,
    diameter,
    find_n0,
    format_mapping_config,
    is_contractive_at,
    load_mapping,
    parse_mapping_config,
    probe_contractivity,
    projection_mapping,
    sample_vectors,
    shift_average_mapping,
    star_apply,
)
from .means import (
    Interval,
    MeanSpec,
    eval_mean,
    mean_callable,
    parse_interval,
    parse_mean,
)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "ConstantVector",
    "ContractivityVerdict",
    "DecompositionReport",
    "DomainViolation",
    "EmptyVector",
    "Interval",
    "InvalidInterval",
    "InvalidMapping",
    "InvalidMeanSpec",
    "InvariantEstimate",
    "InvariantFunction",
    "InvariantMean",
    "IterationTrace",
    "MeanSpec",
    "MeanTypeError",
    "MeanTypeMapping",
    "NonFiniteInput",
    "NotFoundWithinCap",
    "ParseError",
    "TraceStep",
    "agm_mapping",
    "arithmetic_harmonic_mapping",
    "compose",
    "constant_function",
    "coordinate_function",
    "diagonal_restriction",
    "diameter",
    "eval_mean",
    "find_n0",
    "format_mapping_config",
    "gauss_iterate",
    "invariance_residual",
    "is_contractive_at",
    "load_mapping",
    "mean_callable",
    "mean_function",
    "parse_function",
    "parse_interval",
    "parse_mapping_config",
    "parse_mean",
    "probe_contractivity",
    "product_function",
    "projection_mapping",
    "sample_vectors",
    "shift_average_mapping",
    "star_apply",
    "sum_function",
    "uniqueness_probe",
    "verify_decomposition",
]


def __getattr__(name):
    # Reached only for a name not bound above: ``decompose`` and the names
    # of ``__all__`` that it defines.  ``from . import decompose`` here
    # would look the submodule up on this package, and so call back in.
    if name == "decompose" or name in __all__:
        import importlib

        module = importlib.import_module(".decompose", __name__)
        return module if name == "decompose" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, "decompose"})
