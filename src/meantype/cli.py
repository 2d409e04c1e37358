"""Command-line front end.

Exit codes distinguish three outcomes so shell pipelines can branch:

* 0 -- success
* 1 -- domain or parse error (bad flag, malformed config, invalid vector)
* 2 -- a negative mathematical result: a contractivity counterexample, an
  n0 search that hit its cap, an iteration that stopped on max_iter, or a
  decomposition whose invariance residual exceeds the threshold

JSON output opens with the ``command`` key and closes with ``timestamp``;
it is deterministic for a fixed config and seed apart from that field.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence

from .errors import MeanTypeError, NotFoundWithinCap, ParseError
from .invariant import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    MAX_ITER_REACHED,
    READOUTS,
    InvariantMean,
    gauss_iterate,
    invariance_residual,
    uniqueness_probe,
)
from .mapping import (
    DEFAULT_CAP,
    IterationTrace,
    find_n0,
    load_mapping,
    probe_contractivity,
)
from .means import REALS, eval_mean, mean_callable, parse_interval, parse_mean

SEED_ENV_VAR = "MEANTYPE_SEED"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


class _CLIError(Exception):
    """Usage error surfaced by argparse; mapped to exit code 1."""


class _HelpShown(Exception):
    """argparse printed the help; mapped to exit code 0."""


class _Parser(argparse.ArgumentParser):
    # No prefix of a flag stands for the flag: with abbreviations on, adding
    # or removing a flag would silently change what a prefix means.  The
    # subparsers are built by this class too.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on usage errors; this package reserves 2
    # for negative mathematical results, so route usage errors to 1.
    def error(self, message):
        raise _CLIError(message)

    # With error routed above, argparse exits only after -h/--help has
    # printed the help; main returns 0 instead, as for every other success.
    def exit(self, status=0, message=None):
        raise _HelpShown


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "42")
    try:
        return int(raw)
    except ValueError:
        raise _CLIError(f"environment variable {SEED_ENV_VAR}={raw!r} is not an integer")


def parse_vector(text: str) -> tuple[float, ...]:
    """Comma-separated decimals; scientific notation accepted."""
    tokens = [t.strip() for t in text.split(",")]
    values = []
    for tok in tokens:
        if not tok:
            raise ParseError(f"empty component in vector {text!r}", token=tok)
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(f"bad vector component {tok!r}", token=tok) from None
    return tuple(values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meantype",
        description="Mean-type mappings: Gauss iteration to the invariant mean, "
                    "contractivity probes, and invariance decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, mapping=True, vector=False, samples=False, iteration=False,
                   readout=False, relative=False, cap=False, csv=False):
        p.set_defaults(run=run)
        if mapping:
            p.add_argument("--mapping", required=True, metavar="FILE",
                           help="mapping config file (keys p, domain, components)")
        if vector:
            p.add_argument("--vector", required=True, metavar="X1,...,XP",
                           help="comma-separated coordinates")
        if samples:
            p.add_argument("--samples", type=int, default=1000, metavar="N")
            # default: $MEANTYPE_SEED, else 42, read in main once the command is known
            p.add_argument("--seed", type=int, default=None, metavar="S")
        if iteration:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, metavar="T")
            p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, metavar="N")
        if readout:
            p.add_argument("--readout", choices=READOUTS, default="mid")
        if relative:
            p.add_argument("--relative", action="store_true",
                           help="stop on diameter < tol * |midpoint| instead of absolute")
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CAP, metavar="N")
        # csv writes a trace, so only the commands that produce one offer it
        p.add_argument("--output", choices=["human", "json", "csv"] if csv else ["human", "json"],
                       default="human")

    p = sub.add_parser("mean-eval", help="evaluate a single catalog mean")
    p.add_argument("--mean", required=True, metavar="SPEC",
                   help="canonical mean string, e.g. power:0.5")
    p.add_argument("--domain", default=None, metavar="INTERVAL",
                   help="bracket notation, e.g. '(0, inf)'; default the whole line")
    add_common(p, _cmd_mean_eval, mapping=False, vector=True)

    p = sub.add_parser("map-apply", help="apply a mapping to a vector once")
    add_common(p, _cmd_map_apply, vector=True)

    p = sub.add_parser("map-iterate", help="iterate a mapping, emitting the trace")
    add_common(p, _cmd_map_iterate, vector=True, csv=True)
    p.add_argument("--steps", type=int, default=10, metavar="N",
                   help="number of applications (default 10)")

    p = sub.add_parser("contractive-probe",
                       help="search samples for a contractivity counterexample")
    add_common(p, _cmd_contractive_probe, samples=True)

    p = sub.add_parser("n0", help="smallest n with diam(M^n(v)) < diam(v)")
    add_common(p, _cmd_n0, vector=True, cap=True)

    p = sub.add_parser("invariant", help="Gauss-iterate to the invariant mean value")
    add_common(p, _cmd_invariant, vector=True, iteration=True, readout=True, relative=True,
               csv=True)
    p.add_argument("--trace", action="store_true",
                   help="attach the full trace (required by --output csv)")

    p = sub.add_parser("residual",
                       help="max |K(M(v)) - K(v)| over samples (K defaults to the "
                            "mapping's own invariant mean)")
    add_common(p, _cmd_residual, samples=True, iteration=True, readout=True, relative=True)
    p.add_argument("--mean", default=None, metavar="SPEC",
                   help="use this catalog mean as K instead")

    # uniqueness always reads min and max; verify_decomposition builds its own
    # K with the absolute stop rule and the mid readout
    p = sub.add_parser("uniqueness",
                       help="max disagreement of the invariant mean across readouts")
    add_common(p, _cmd_uniqueness, samples=True, iteration=True, relative=True)

    p = sub.add_parser("decompose",
                       help="check F = phi o K for a catalog function F")
    add_common(p, _cmd_decompose, samples=True, iteration=True)
    p.add_argument("--function", required=True, metavar="F",
                   help="product | sum | coord:<k> | const:<c> | mean:<spec> | "
                        "<unary>@<F>")
    p.add_argument("--invariance-threshold", type=float, default=1e-8, metavar="T",
                   help="invariance residual above this exits 2 (default 1e-8)")

    return parser


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _timestamp() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _json_safe(x):
    """``x`` with each non-finite float replaced by its repr, as human and csv output write it.

    JSON has no token for inf or nan; ``json.dumps`` would write a bare
    ``Infinity`` that strict parsers reject.
    """
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def _emit(args, doc: dict, human_lines: list[str], trace: IterationTrace | None = None) -> None:
    if args.output == "json":
        import json

        doc = {"command": args.command, **_json_safe(doc), "timestamp": _timestamp()}
        print(json.dumps(doc, indent=2, allow_nan=False))
    elif args.output == "csv":
        sys.stdout.write(trace.to_csv())
    else:
        for line in human_lines:
            print(line)


def _trace_lines(trace: IterationTrace) -> list[str]:
    return [f"step {s.step}: ({_fmt_vec(s.vector)})  diameter = {s.diameter!r}"
            for s in trace.steps]


def _fmt_vec(v: Sequence[float]) -> str:
    return ", ".join(repr(x) for x in v)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_mean_eval(args) -> int:
    vector = parse_vector(args.vector)
    domain = parse_interval(args.domain) if args.domain else REALS
    spec = parse_mean(args.mean, len(vector))
    value = eval_mean(spec, vector, domain)
    doc = {
        "mean": spec.canonical(),
        "domain": str(domain),
        "vector": list(vector),
        "value": value,
    }
    _emit(args, doc, [f"value = {value!r}"])
    return EXIT_OK


def _cmd_map_apply(args) -> int:
    mapping = load_mapping(args.mapping)
    vector = parse_vector(args.vector)
    result = mapping.apply(vector)
    doc = {
        "mapping": mapping.describe(),
        "vector": list(vector),
        "result": list(result),
    }
    _emit(args, doc, [f"result = ({_fmt_vec(result)})"])
    return EXIT_OK


def _cmd_map_iterate(args) -> int:
    mapping = load_mapping(args.mapping)
    vector = parse_vector(args.vector)
    trace = mapping.iterate(vector, args.steps)
    doc = {"steps": args.steps, "trace": trace.to_json_dict()}
    _emit(args, doc, _trace_lines(trace), trace=trace)
    return EXIT_OK


def _cmd_contractive_probe(args) -> int:
    mapping = load_mapping(args.mapping)
    verdict = probe_contractivity(mapping, args.samples, args.seed)
    doc = {
        "mapping": mapping.describe(),
        "samples": args.samples,
        "seed": args.seed,
        "verdict": "counterexample" if verdict.found else "no_counterexample",
        "witness": list(verdict.counterexample) if verdict.found else None,
        "samples_tested": verdict.samples_tested,
        "skipped": verdict.skipped,
    }
    lines = [f"{verdict} (tested {verdict.samples_tested}, skipped {verdict.skipped})"]
    _emit(args, doc, lines)
    return EXIT_NEGATIVE if verdict.found else EXIT_OK


def _cmd_n0(args) -> int:
    mapping = load_mapping(args.mapping)
    vector = parse_vector(args.vector)
    doc = {"mapping": mapping.describe(), "vector": list(vector), "cap": args.cap}
    try:
        doc["n0"] = find_n0(mapping, vector, args.cap)
    except NotFoundWithinCap as exc:
        doc.update(status="not_found_within_cap", start_diameter=exc.trace.steps[0].diameter,
                   final_diameter=exc.trace.last.diameter)
        _emit(args, doc, [str(exc)])
        return EXIT_NEGATIVE
    _emit(args, doc, [f"n0 = {doc['n0']}"])
    return EXIT_OK


def _cmd_invariant(args) -> int:
    if args.output == "csv" and not args.trace:
        raise _CLIError("csv output is only available for trace-producing "
                        "commands (map-iterate, invariant --trace)")
    mapping = load_mapping(args.mapping)
    vector = parse_vector(args.vector)
    est = gauss_iterate(
        mapping, vector,
        tol=args.tol, max_iter=args.max_iter,
        readout=args.readout, relative=args.relative,
        keep_trace=args.trace,
    )
    doc = {
        "mapping": mapping.describe(),
        "v": list(vector),
        "tol": args.tol,
        "max_iter": args.max_iter,
        "readout": args.readout,
        "value": est.value,
        "steps": est.steps,
        "final_diameter": est.final_diameter,
        "status": est.status,
    }
    lines = []
    if est.trace is not None:
        doc["trace"] = est.trace.to_json_dict()
        lines.extend(_trace_lines(est.trace))
    lines += [
        f"value = {est.value!r}",
        f"steps = {est.steps}",
        f"final_diameter = {est.final_diameter!r}",
        f"status = {est.status}",
    ]
    _emit(args, doc, lines, trace=est.trace)
    return EXIT_NEGATIVE if est.status == MAX_ITER_REACHED else EXIT_OK


def _cmd_residual(args) -> int:
    mapping = load_mapping(args.mapping)
    # built first so that the Gauss flags are checked with --mean too
    k = InvariantMean(mapping, tol=args.tol, max_iter=args.max_iter,
                      readout=args.readout, relative=args.relative)
    k_name = "invariant"
    if args.mean:
        spec = parse_mean(args.mean, mapping.p)
        k = mean_callable(spec, mapping.domain)
        k_name = spec.canonical()
    residual = invariance_residual(k, mapping, args.samples, args.seed)
    doc = {
        "mapping": mapping.describe(),
        "mean": k_name,
        "samples": args.samples,
        "seed": args.seed,
        "residual": residual,
    }
    _emit(args, doc, [f"residual = {residual!r}"])
    return EXIT_OK


def _cmd_uniqueness(args) -> int:
    mapping = load_mapping(args.mapping)
    readouts = ("mid", "min", "max")
    k_min, k_max = (InvariantMean(mapping, tol=args.tol, max_iter=args.max_iter, readout=r,
                                  relative=args.relative) for r in ("min", "max"))
    # All readouts read one final iterate and mid lies in [min, max]: (min, max) is the widest pair.
    worst = uniqueness_probe(k_min, k_max, mapping.domain, mapping.p, args.samples, args.seed)
    doc = {
        "mapping": mapping.describe(),
        "readouts": list(readouts),
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "max_difference": worst,
    }
    _emit(args, doc, [f"max_difference = {worst!r} (readouts {', '.join(readouts)})"])
    return EXIT_OK


def verify_decomposition(*args, **kwargs):
    """:func:`meantype.decompose.verify_decomposition`, whose module loads on the first call.

    A module attribute that ``_cmd_decompose`` calls, so that a wrapper
    set here (as ``bench/spans.py`` sets one) sees each CLI decomposition.
    """
    from .decompose import verify_decomposition

    return verify_decomposition(*args, **kwargs)


def _cmd_decompose(args) -> int:
    if not args.invariance_threshold >= 0.0:
        raise _CLIError(f"--invariance-threshold must be >= 0, got {args.invariance_threshold!r}")
    from .decompose import parse_function

    mapping = load_mapping(args.mapping)
    f = parse_function(args.function, mapping)
    report = verify_decomposition(
        f, mapping,
        tol=args.tol, sample_count=args.samples, seed=args.seed,
        max_iter=args.max_iter,
    )
    not_invariant = report.invariance_residual > args.invariance_threshold
    doc = {
        **report.to_json_dict(),
        "invariance_threshold": args.invariance_threshold,
        "invariant_within_threshold": not not_invariant,
    }
    lines = [
        f"fixture = {report.fixture}",
        f"invariance_residual = {report.invariance_residual!r}",
        f"decomposition_residual = {report.decomposition_residual!r}",
        f"K_steps = min {report.k_steps_min} / mean {report.k_steps_mean:.1f} / "
        f"max {report.k_steps_max}",
        f"max_iter_hits = {report.max_iter_hits}",
    ]
    if not_invariant:
        lines.append(
            f"invariance residual exceeds threshold {args.invariance_threshold!r}: "
            f"the function is not invariant under this mapping at that tolerance"
        )
    if report.max_iter_hits:
        lines.append("warning: some K computations stopped on max_iter; residuals "
                     "are diagnostic only")
    _emit(args, doc, lines)
    if not_invariant or report.max_iter_hits:
        return EXIT_NEGATIVE
    return EXIT_OK


def _attach_vectors(argv: Sequence[str]) -> list[str]:
    """``argv`` with ``--vector -1,2`` rewritten as ``--vector=-1,2``.

    argparse reads a value that starts with a single ``-`` as an option
    (``-1,2`` is not a plain negative number), so a vector whose first
    coordinate is negative is attached to its flag before parsing.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--vector" and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"--vector={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(_attach_vectors(sys.argv[1:] if argv is None else argv))
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.run(args)
    except _HelpShown:
        return EXIT_OK
    except (_CLIError, MeanTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
