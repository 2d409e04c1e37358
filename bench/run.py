#!/usr/bin/env python3
"""Benchmark for meantype: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload gauss-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it name every metric with its unit and sample count,
and the run's provenance.  The full record, and the spans of the first
traced round, go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

import spans  # noqa: E402
from cli_workload import STARTUP_REPEATS, Cli  # noqa: E402
from workloads import GaussLong, ProbeShort, load_package, time_setup  # noqa: E402

WORKLOADS = {w.name: w for w in (GaussLong, ProbeShort, Cli)}
#: Fresh interpreters timed for ``setup_s``, spread evenly over the run.
SETUP_PROBES = 20
#: Fewest ops in an untraced run: p90 needs ten samples beyond it.
MIN_OPS = 100
#: Fewest traced (and untraced) rounds in a traced run.
MIN_ROUNDS = 3

END_TO_END = (
    ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout the benchmark runs in, or None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # else git would report an enclosing repository
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)


def call(op):
    try:
        return op.run()
    except Exception as exc:  # an op's failure is counted, never fatal
        return exc


def verdict(op, out) -> tuple[str | None, str]:
    """The op's check result and its canonical output; a check that raises is a failure."""
    if isinstance(out, BaseException):
        return f"{op.label}: raised {type(out).__name__}: {out}", \
            f"{op.label} raised {type(out).__name__}"
    try:
        return op.check(out), op.canon(out)
    except Exception as exc:
        return f"{op.label}: check raised {type(exc).__name__}: {exc}", \
            f"{op.label} check raised {type(exc).__name__}"


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return "sha256:" + h.hexdigest()


def untraced_run(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Replay one window of ops, closed loop, until ``seconds`` of op time are measured.

    The window is ops 0 to ``wl.window_ops`` - 1 of the stream, whole
    cycles of op types, built once: at least MIN_OPS ops in process, so
    that p90 has ten samples beyond it, and one cycle of 18 commands on
    ``cli``.  Every repeat of the window runs the same inputs in the
    same positions.  Between repeats the clock stops while the outputs
    are checked, compared with the first repeat's and dropped, and while
    the set-up probes, spread evenly over the run, are timed.

    On a shared 2-vCPU Xeon host, speed drifts by up to 1.5x over seconds to minutes, in
    CPU time as well as wall time, and contention only ever slows an op.
    A whole-run average follows the mix of speeds and spread by 10-20%
    between runs, so, as with ``timeit``'s best of repeats, each op
    reads its fastest repeat, and the metrics read the window of those
    best latencies.  ``setup_s`` is likewise the fastest probe.
    """
    window = [wl.op(i) for i in range(wl.window_ops)]
    for op in window[:wl.warmup_ops]:
        call(op)
    size = len(window)
    probe_every = seconds * 1e9 / SETUP_PROBES
    setup, first, best = [], None, [float("inf")] * size
    peak_kb = 0
    start = perf_counter_ns()
    n = repeats = measured_ns = 0
    while measured_ns < seconds * 1e9 or n < MIN_OPS:
        outputs, latency = [], []
        w0 = perf_counter_ns()
        for op in window:
            t0 = perf_counter_ns()
            outputs.append(call(op))
            latency.append(perf_counter_ns() - t0)
        measured_ns += perf_counter_ns() - w0
        n += size
        repeats += 1
        best = [min(a, b) for a, b in zip(best, latency)]
        canons = []
        for op, out in zip(window, outputs):
            error, canon = verdict(op, out)
            if not error and first is not None and canon != first[len(canons)]:
                error = f"{op.label}: output differs from the first repeat"
            tally.record(error)
            canons.append(canon)
        first = first or canons
        peak_kb = max(peak_kb, wl.peak_rss_kb(outputs))
        while len(setup) < SETUP_PROBES and perf_counter_ns() - start >= len(setup) * probe_every:
            setup.append(time_setup(ROOT, wl.name, wl.import_target)[1])
    while len(setup) < SETUP_PROBES:
        setup.append(time_setup(ROOT, wl.name, wl.import_target)[1])
    metrics = {
        "ops_per_s": size * 1e9 / sum(best),
        "op_p50_ms": statistics.median(best) / 1e6,
        "op_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8] / 1e6,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": min(setup),
    }
    info = {
        "ops": n, "wall_s": measured_ns / 1e9, "repeats": repeats, "window_ops": size,
        "run_ops_per_s": n / (measured_ns / 1e9),
        "digest": digest(first), "digest_ops": size, "setup_s_samples": setup,
    }
    return metrics, info


def run_round(ops, tracer=None) -> tuple[int, list]:
    outputs = []
    t0 = perf_counter_ns()
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = j
        outputs.append(call(op))
    return perf_counter_ns() - t0, outputs


def traced_run(wl, pkg, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds of the first ``round_ops`` ops.

    Counters come from each traced round and must agree exactly across
    rounds; times are medians over rounds; ``trace.overhead_frac`` is the
    median over adjacent pairs of traced over untraced round time, minus
    one.
    """
    begin = perf_counter_ns()
    metrics = {name: 0.0 for name, _ in spans.LAYER_METRICS}

    def timed(op) -> int:
        t0 = perf_counter_ns()
        out = call(op)
        ns = perf_counter_ns() - t0
        tally.record(verdict(op, out)[0])
        return ns

    metrics.update(wl.startup_layers(timed))
    ops = [wl.traced_op(i) for i in range(wl.round_ops)]
    _, reference = run_round(ops)
    expected = []
    for op, out in zip(ops, reference):
        error, canon = verdict(op, out)
        tally.record(error)
        expected.append(canon)
    tracer = spans.Tracer(pkg)
    times: dict[bool, list[int]] = {False: [], True: []}
    rounds: list[dict] = []
    k = 0
    while k < MIN_ROUNDS or perf_counter_ns() - begin < seconds * 1e9:
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.reset()
                with tracer:
                    ns, outputs = run_round(ops, tracer)
                rounds.append(tracer.layer_metrics())
                if len(rounds) == 1:
                    tracer.write(os.path.join(OUT, f"spans-{wl.name}.tsv.gz"))
            else:
                ns, outputs = run_round(ops)
            times[traced].append(ns)
            for op, out, want in zip(ops, outputs, expected):
                same = verdict(op, out)[1] == want
                tally.record(None if same else f"{op.label}: output differs between rounds")
        k += 1
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if name in spans.COUNTERS:
            if len(set(values)) != 1:
                tally.errors.append(f"counter {name} differs between rounds: {values}")
                tally.failed += 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(times[True], times[False])) - 1.0
    info = {"rounds": len(rounds), "round_ops": len(ops),
            "digest": digest(expected), "digest_ops": len(expected)}
    return metrics, info


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report_lines(args, wl, metrics, units, info, tally) -> list[str]:
    mode = "traced" if args.trace else "untraced"
    lines = [f"meantype benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, {mode}"]
    if args.trace:
        rounds = f"n={info['rounds']} traced rounds of {info['round_ops']} ops"
        base = {name: rounds + (", same in each" if name in spans.COUNTERS else ", median")
                for name, _ in units}
        base["cli.python_start_ms"] = base["cli.import_ms"] = \
            f"n={STARTUP_REPEATS} fresh interpreters, median"
        base["cli.startup_frac"] = f"over the median of one pass of {info['round_ops']} commands"
        for name, unit in units:
            lines.append(f"  {name:36s} {metrics[name]:>14.6g} {unit:6s} {base[name]}")
    else:
        n = info["ops"]
        best = (f"over the {info['window_ops']}-op window, each op its fastest of "
                f"{info['repeats']} repeats of the same input")
        base = {
            "ops_per_s": f"n={n} ops in {info['wall_s']:.2f} s, {best}"
                         f" (whole run {info['run_ops_per_s']:.6g})",
            "op_p50_ms": f"n={n} ops run, {best}",
            "op_p90_ms": f"n={n} ops run, {best}",
            "setup_s": f"n={SETUP_PROBES} fresh interpreters over the run, fastest",
            "peak_rss_mb": wl.rss_base.format(n=n),
        }
        for name, unit in units:
            lines.append(f"  {name:14s} {metrics[name]:>12.6g} {unit:5s} {base[name]}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"  {'fail_frac':14s} {frac:>12.6g} ratio "
                 f"{tally.failed} of {tally.attempted} ops failed")
    lines += [f"  failure: {e}" for e in tally.errors]
    return lines


def run_workload(args) -> int:
    try:
        pkg = load_package(SRC)
    except ImportError as exc:
        print(f"error: cannot import meantype from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    load_before = os.getloadavg()
    wl = WORKLOADS[args.workload](pkg, args.seed, ROOT, OUT)
    tally = Tally()
    if args.trace:
        metrics, info = traced_run(wl, pkg, args.seconds, tally)
        units = spans.LAYER_METRICS
    else:
        metrics, info = untraced_run(wl, args.seconds, tally)
        units = END_TO_END
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu_model": cpu_model(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "git_commit": git_commit(),
        "output_digest": info["digest"], "digest_ops": info["digest_ops"],
    }
    for line in report_lines(args, wl, metrics, units, info, tally):
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    record = {**result, "fail_frac": tally.failed / tally.attempted, "errors": tally.errors,
              "provenance": provenance, "info": info}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
