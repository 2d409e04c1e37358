"""Span tracer for the benchmark's traced runs.

The tracer replaces the public functions each meantype module calls in
the next with thin wrappers, records one span per call (name, start, end,
parent span, op id, and a small integer tag), and restores the originals
on exit.  Nothing under ``src/`` changes: the wrappers are installed on
the module attributes that the package itself looks up at call time.

Spans are kept in flat arrays so a traced round of a few hundred thousand
calls stays a few megabytes; :meth:`Tracer.layer_metrics` turns them into
the per-layer numbers, and :meth:`Tracer.write` dumps them as gzip TSV.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import Counter
from time import perf_counter_ns

#: Mean kinds reported by ``means.eval_ns_p50.<kind>``.
EVAL_KINDS = (
    "arithmetic", "geometric", "harmonic", "power", "quasi_arithmetic",
    "median", "projection", "weighted_arithmetic",
)
#: Mapping sizes reported by ``mapping.apply_us_p50.p<p>``.
APPLY_SIZES = (2, 3, 5, 10)
#: CLI commands reported by ``cli.main_ms.<command>``.
CLI_COMMANDS = (
    "mean-eval", "map-apply", "map-iterate", "contractive-probe", "n0",
    "invariant", "residual", "uniqueness", "decompose",
)
#: Probes whose samples are the base of ``invariant.solves_per_sample``.
SOLVING_PROBES = ("residual", "uniqueness", "verify")

#: Every counter whose value must repeat exactly for a fixed seed.
COUNTERS = (
    "means.eval_calls", "mapping.apply_calls", "mapping.diameter_calls",
    "mapping.samples_drawn", "mapping.n0_calls", "mapping.n0_steps",
    "mapping.n0_cap_hits", "mapping.contractivity_tested",
    "mapping.contractivity_skipped", "invariant.solves", "invariant.steps",
    "invariant.steps_p50", "invariant.max_iter_hits", "invariant.repeat_steps",
    "invariant.useful_step_frac", "invariant.solves_per_sample",
    "decompose.verify_calls", "decompose.k_max_iter_hits",
)

#: Name and unit of every per-layer metric, in report order.
LAYER_METRICS = (
    [("means.eval_calls", "count"), ("means.eval_self_s", "s")]
    + [(f"means.eval_ns_p50.{k}", "ns") for k in EVAL_KINDS]
    + [("mapping.apply_calls", "count"), ("mapping.apply_self_s", "s")]
    + [(f"mapping.apply_us_p50.p{p}", "us") for p in APPLY_SIZES]
    + [
        ("mapping.diameter_calls", "count"), ("mapping.diameter_self_s", "s"),
        ("mapping.samples_drawn", "count"), ("mapping.sample_self_s", "s"),
        ("mapping.n0_calls", "count"), ("mapping.n0_steps", "count"),
        ("mapping.n0_cap_hits", "count"), ("mapping.n0_self_s", "s"),
        ("mapping.contractivity_tested", "count"),
        ("mapping.contractivity_skipped", "count"),
        ("mapping.contractivity_self_s", "s"),
        ("invariant.solves", "count"), ("invariant.steps", "count"),
        ("invariant.steps_p50", "count"), ("invariant.gauss_self_s", "s"),
        ("invariant.max_iter_hits", "count"), ("invariant.repeat_steps", "count"),
        ("invariant.useful_step_frac", "ratio"),
        ("invariant.solves_per_sample", "ratio"),
        ("invariant.residual_self_s", "s"), ("invariant.uniqueness_self_s", "s"),
        ("decompose.verify_calls", "count"), ("decompose.verify_self_s", "s"),
        ("decompose.k_max_iter_hits", "count"),
        ("cli.python_start_ms", "ms"), ("cli.import_ms", "ms"),
        ("cli.startup_frac", "ratio"),
    ]
    + [(f"cli.main_ms.{c}", "ms") for c in CLI_COMMANDS]
    + [("trace.overhead_frac", "ratio")]
)


class Tracer:
    """Records spans around meantype's public calls while installed.

    Use as a context manager; ``op_id`` is set by the caller before each
    op so that every span of one op shares it.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.tag = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._seen: dict[int, set] = {}

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, nid: int, tag: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.tag.append(tag)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, orig, name, tag=None, done=None, failed=None):
        nid = self.nid(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid, tag(*args) if tag else 0)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if failed:
                    failed(idx, exc)
                raise
            self._close(idx)
            if done:
                done(idx, result)
            return result

        return wrapper

    def _wrap_apply(self, orig):
        nid, gauss = self.nid("apply"), self.nid("gauss")

        def apply(mapping, v):
            outer = self._stack[-1] if self._stack else -1
            idx = self._open(nid, len(mapping.components))
            try:
                out = orig(mapping, v)
            finally:
                self._close(idx)
            if outer >= 0 and self.name[outer] == gauss:
                seen = self._seen.get(outer)
                if seen is None:
                    seen = self._seen[outer] = {tuple(float(x) for x in v)}
                if out in seen:
                    self.counts["invariant.repeat_steps"] += 1
                else:
                    seen.add(out)
            return out

        return apply

    def _wrap_sampler(self, orig):
        nid = self.nid("sample")

        def sample_vectors(*args, **kwargs):
            inner = orig(*args, **kwargs)
            while True:
                idx = self._open(nid, 0)
                try:
                    v = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.tag[idx] = 1
                yield v

        return sample_vectors

    # -- installation --------------------------------------------------------

    def _patch(self, modules, attr, wrapper) -> None:
        for mod in modules:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def __enter__(self) -> Tracer:
        pkg = self.pkg
        mp, inv, dec, cli = pkg.mapping, pkg.invariant, pkg.decompose, pkg.cli
        kinds = {k: i for i, k in enumerate(EVAL_KINDS)}
        commands = {c: i for i, c in enumerate(CLI_COMMANDS)}

        def gauss_done(idx, est):
            self.tag[idx] = est.steps
            self._seen.pop(idx, None)
            if est.status == inv.MAX_ITER_REACHED:
                self.counts["invariant.max_iter_hits"] += 1

        def gauss_failed(idx, exc):
            self._seen.pop(idx, None)

        def n0_failed(idx, exc):
            if isinstance(exc, pkg.errors.NotFoundWithinCap):
                self.counts["mapping.n0_cap_hits"] += 1

        def contractivity_done(idx, verdict):
            self.counts["mapping.contractivity_tested"] += verdict.samples_tested
            self.counts["mapping.contractivity_skipped"] += verdict.skipped

        def verify_done(idx, report):
            self.counts["decompose.k_max_iter_hits"] += report.max_iter_hits

        self._patch([mp], "eval_mean", self._wrap(
            mp.eval_mean, "eval", tag=lambda spec, *a, **k: kinds.get(spec.kind, -1)))
        self._patch([mp.MeanTypeMapping], "apply",
                    self._wrap_apply(mp.MeanTypeMapping.apply))
        self._patch([mp, inv], "diameter", self._wrap(mp.diameter, "diameter"))
        self._patch([mp, inv, dec], "sample_vectors", self._wrap_sampler(mp.sample_vectors))
        self._patch([inv, cli], "gauss_iterate", self._wrap(
            inv.gauss_iterate, "gauss", done=gauss_done, failed=gauss_failed))
        self._patch([mp, cli], "find_n0", self._wrap(mp.find_n0, "n0", failed=n0_failed))
        self._patch([mp], "star_apply", self._wrap(mp.star_apply, "n0", failed=n0_failed))
        self._patch([mp, cli], "probe_contractivity", self._wrap(
            mp.probe_contractivity, "contractivity", done=contractivity_done))
        self._patch([inv, cli], "invariance_residual",
                    self._wrap(inv.invariance_residual, "residual"))
        self._patch([inv, cli], "uniqueness_probe",
                    self._wrap(inv.uniqueness_probe, "uniqueness"))
        self._patch([dec, cli], "verify_decomposition", self._wrap(
            dec.verify_decomposition, "verify", done=verify_done))
        self._patch([cli], "main", self._wrap(
            cli.main, "cli_main", tag=lambda argv=None: commands.get((argv or [""])[0], -1)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded since reset().

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly (one thread), so the children's
        durations are exactly the part of the span they cover.
        """
        n = len(self.start)
        ids = {name: self.nid(name) for name in (
            "eval", "apply", "diameter", "sample", "n0", "contractivity", "gauss",
            "residual", "uniqueness", "verify", "cli_main")}
        name, parent, tag = self.name, self.parent, self.tag
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            calls[name[i]] += 1
            self_ns[name[i]] += dur[i] - child[i]

        def durations(nid, want_tag):
            return [dur[i] for i in range(n) if name[i] == nid and tag[i] == want_tag]

        def p50(values, scale):
            return statistics.median(values) / scale if values else 0.0

        solving = {ids[p] for p in SOLVING_PROBES}

        def in_solving_probe(i):
            i = parent[i]
            while i >= 0:
                if name[i] in solving:
                    return True
                i = parent[i]
            return False

        gauss_steps = [tag[i] for i in range(n) if name[i] == ids["gauss"]]
        probe_solves = sum(1 for i in range(n)
                           if name[i] == ids["gauss"] and in_solving_probe(i))
        probe_samples = sum(1 for i in range(n) if name[i] == ids["sample"]
                            and tag[i] == 1 and parent[i] >= 0 and name[parent[i]] in solving)
        steps = sum(gauss_steps)
        c = self.counts
        m: dict[str, float] = {
            "means.eval_calls": calls[ids["eval"]],
            "means.eval_self_s": self_ns[ids["eval"]] / 1e9,
            "mapping.apply_calls": calls[ids["apply"]],
            "mapping.apply_self_s": self_ns[ids["apply"]] / 1e9,
            "mapping.diameter_calls": calls[ids["diameter"]],
            "mapping.diameter_self_s": self_ns[ids["diameter"]] / 1e9,
            "mapping.samples_drawn": sum(1 for i in range(n)
                                         if name[i] == ids["sample"] and tag[i] == 1),
            "mapping.sample_self_s": self_ns[ids["sample"]] / 1e9,
            "mapping.n0_calls": calls[ids["n0"]],
            "mapping.n0_steps": sum(1 for i in range(n) if name[i] == ids["apply"]
                                    and parent[i] >= 0 and name[parent[i]] == ids["n0"]),
            "mapping.n0_cap_hits": c["mapping.n0_cap_hits"],
            "mapping.n0_self_s": self_ns[ids["n0"]] / 1e9,
            "mapping.contractivity_tested": c["mapping.contractivity_tested"],
            "mapping.contractivity_skipped": c["mapping.contractivity_skipped"],
            "mapping.contractivity_self_s": self_ns[ids["contractivity"]] / 1e9,
            "invariant.solves": len(gauss_steps),
            "invariant.steps": steps,
            "invariant.steps_p50": statistics.median(gauss_steps) if gauss_steps else 0,
            "invariant.gauss_self_s": self_ns[ids["gauss"]] / 1e9,
            "invariant.max_iter_hits": c["invariant.max_iter_hits"],
            "invariant.repeat_steps": c["invariant.repeat_steps"],
            "invariant.useful_step_frac":
                1.0 - c["invariant.repeat_steps"] / steps if steps else 1.0,
            "invariant.solves_per_sample":
                probe_solves / probe_samples if probe_samples else 0.0,
            "invariant.residual_self_s": self_ns[ids["residual"]] / 1e9,
            "invariant.uniqueness_self_s": self_ns[ids["uniqueness"]] / 1e9,
            "decompose.verify_calls": calls[ids["verify"]],
            "decompose.verify_self_s": self_ns[ids["verify"]] / 1e9,
            "decompose.k_max_iter_hits": c["decompose.k_max_iter_hits"],
        }
        for k, kind in enumerate(EVAL_KINDS):
            m[f"means.eval_ns_p50.{kind}"] = p50(durations(ids["eval"], k), 1)
        for p in APPLY_SIZES:
            m[f"mapping.apply_us_p50.p{p}"] = p50(durations(ids["apply"], p), 1e3)
        for k, command in enumerate(CLI_COMMANDS):
            m[f"cli.main_ms.{command}"] = p50(durations(ids["cli_main"], k), 1e6)
        return m

    def write(self, path: str) -> None:
        """Write the recorded spans as gzip TSV: name, parent, op, tag, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tparent\top\ttag\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}"
                         f"\t{self.tag[i]}\t{self.start[i]}\t{self.end[i]}\n")

