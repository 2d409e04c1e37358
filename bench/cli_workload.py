"""The ``cli`` workload: one ``python -m meantype`` process per op.

The case table below is the expected-outcome table: each row fixes a
command, a stock config, an output format and the exit code (0 or 2) it
must end with.  Every run must leave stderr empty and print output that
parses (JSON, a CSV with header ``step,x1..xp,diameter``, or ``key =
value`` lines), and every numeric field must equal the same library call
made in process.  The in-process references are themselves checked
against the oracles where one exists (AGM, arithmetic-harmonic,
shift-average).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter_ns

import oracles
from workloads import MAX_ITER, SAMPLES, SHIFT_REL, TOL, Op, child_env, op_rng, op_seed, \
    positive_vector, real_vector, time_setup

CONFIGS = ("agm", "arithmetic_harmonic", "projections", "shift3")
#: Oracle agreement of Gauss values on (0, inf), relative to max(1, value).
GAUSS_REL = 4e-12
#: Fresh interpreters timed for each start-up layer in a traced run.
STARTUP_REPEATS = 9


@dataclass(frozen=True)
class Case:
    command: str
    config: str | None
    output: str
    exit: int
    args: tuple[str, ...] = ()
    vector: bool = False
    samples: bool = False


CASES = (
    Case("mean-eval", None, "human", 0, ("--mean", "power:0.5", "--domain", "(0, inf)"),
         vector=True),
    Case("map-apply", "agm", "json", 0, vector=True),
    Case("map-iterate", "shift3", "csv", 0, ("--steps", "20"), vector=True),
    Case("map-iterate", "agm", "json", 0, ("--steps", "5"), vector=True),
    Case("contractive-probe", "shift3", "json", 2, samples=True),
    Case("contractive-probe", "arithmetic_harmonic", "json", 0, samples=True),
    Case("n0", "shift3", "human", 0, vector=True),
    Case("n0", "projections", "json", 2, vector=True),
    Case("invariant", "agm", "json", 0, vector=True),
    Case("invariant", "arithmetic_harmonic", "human", 0, vector=True),
    Case("invariant", "shift3", "csv", 0, ("--trace",), vector=True),
    Case("invariant", "projections", "json", 2, vector=True),
    Case("residual", "arithmetic_harmonic", "json", 0, ("--mean", "geometric"), samples=True),
    Case("residual", "agm", "human", 0, samples=True),
    Case("uniqueness", "agm", "json", 0, samples=True),
    Case("uniqueness", "shift3", "json", 0, samples=True),
    Case("decompose", "arithmetic_harmonic", "json", 0, ("--function", "product"),
         samples=True),
    Case("decompose", "shift3", "human", 2, ("--function", "sum"), samples=True),
)


class OracleMismatch(Exception):
    """The in-process reference itself disagrees with the oracle."""


@dataclass(frozen=True)
class Outcome:
    exit: int
    stdout: str
    stderr: str
    max_rss_kb: int = 0


def run_child(argv: list[str], cwd: str, env: dict, scratch: str) -> Outcome:
    """Run one child to completion; stdout and stderr go through files in ``scratch``."""
    out_path, err_path = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read().decode(), err.read().decode(),
                       usage.ru_maxrss)


def build_cli(pkg, root: str) -> dict:
    return {name: pkg.mapping.load_mapping(os.path.join(root, "configs", f"{name}.cfg"))
            for name in CONFIGS}


def canonical(case: Case, out: Outcome) -> str:
    """Output with the JSON timestamp stripped, for the digest."""
    text = out.stdout
    if case.output == "json":
        try:
            doc = json.loads(text)
            doc.pop("timestamp", None)
            text = json.dumps(doc, sort_keys=True)
        except ValueError:
            pass
    return f"{case.command} {case.config} exit={out.exit}\n{text}\n{out.stderr}"


class Cli:
    """The README command set on the four stock configs, one process per op."""

    name = "cli"
    import_target = "meantype.cli"
    build = staticmethod(build_cli)
    warmup_ops = 2
    window_ops = round_ops = len(CASES)
    rss_base = "n={n} command processes, max"

    def __init__(self, pkg, seed: int, root: str, scratch: str):
        self.pkg, self.seed, self.root, self.scratch = pkg, seed, root, scratch
        self.mappings = build_cli(pkg, root)
        self.env = child_env(os.path.join(root, "src"))
        self._expected: dict[int, object] = {}

    def instance(self, i: int) -> tuple[int, Case, list[str]]:
        """Key, case and argv of op i; the key names the (case, input) pair."""
        key, case = i, CASES[i % len(CASES)]
        argv = [case.command]
        if case.config:
            argv += ["--mapping", os.path.join(self.root, "configs", f"{case.config}.cfg")]
        argv += list(case.args)
        if case.vector:
            # "--vector=" form: a value starting with "-" would read as an option.
            argv.append("--vector=" + ",".join(repr(x) for x in self._vector(case, key)))
        if case.samples:
            argv += ["--samples", str(SAMPLES), "--seed", str(op_seed(self.seed, key))]
        return key, case, argv + ["--output", case.output]

    def _vector(self, case: Case, key: int) -> tuple[float, ...]:
        rng = op_rng(self.seed, key)
        if case.config is None:
            return positive_vector(rng, 3)
        m = self.mappings[case.config]
        positive = m.domain.lower == 0.0
        return positive_vector(rng, m.p) if positive else real_vector(rng, m.p)

    def op(self, i: int) -> Op:
        key, case, argv = self.instance(i)
        command = [sys.executable, "-m", "meantype", *argv]
        return self._op(key, case, argv,
                        lambda: run_child(command, self.root, self.env, self.scratch))

    def traced_op(self, i: int) -> Op:
        """The same command through ``cli.main`` in process, stdout captured."""
        key, case, argv = self.instance(i)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.pkg.cli.main(argv)
            return Outcome(code, out.getvalue(), err.getvalue())

        return self._op(key, case, argv, run)

    def _op(self, key: int, case: Case, argv: list[str], run) -> Op:
        return Op(f"{case.command}:{case.config}", " ".join(argv), run,
                  lambda out: self.check(key, case, out), lambda out: canonical(case, out))

    def peak_rss_kb(self, outputs) -> int:
        return max((out.max_rss_kb for out in outputs if isinstance(out, Outcome)), default=0)

    def startup_layers(self, timed) -> dict:
        """Bare interpreter, package import, and the median whole command.

        ``timed(op)`` runs and checks one op and returns its latency in ns.
        """
        start_ms = []
        for _ in range(STARTUP_REPEATS):
            t0 = perf_counter_ns()
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env,
                           check=True)
            start_ms.append((perf_counter_ns() - t0) / 1e6)
        import_ms = [1e3 * time_setup(self.root, self.name, self.import_target)[0]
                     for _ in range(STARTUP_REPEATS)]
        command_ms = [timed(self.op(i)) / 1e6 for i in range(self.window_ops)]
        start, imp = statistics.median(start_ms), statistics.median(import_ms)
        return {
            "cli.python_start_ms": start,
            "cli.import_ms": imp,
            "cli.startup_frac": (start + imp) / statistics.median(command_ms),
        }

    # -- checks ---------------------------------------------------------------

    def check(self, key: int, case: Case, out) -> str | None:
        if isinstance(out, BaseException):
            return f"{case.command} {case.config}: raised {type(out).__name__}: {out}"
        where = f"{case.command} {case.config} ({case.output})"
        if key not in self._expected:
            try:
                self._expected[key] = self._reference(key, case)
            except OracleMismatch as exc:
                self._expected[key] = exc
        expected = self._expected[key]
        if isinstance(expected, OracleMismatch):
            return f"{where}: in process {expected}"
        if out.exit != case.exit:
            return f"{where}: exit {out.exit}, expected {case.exit}"
        if out.stderr:
            return f"{where}: stderr {out.stderr[:200]!r}"
        if case.output == "csv":
            header = out.stdout.split("\n", 1)[0].split(",")
            p = len(header) - 2
            if header != ["step"] + [f"x{j + 1}" for j in range(p)] + ["diameter"]:
                return f"{where}: bad CSV header {header}"
            return None if out.stdout == expected else f"{where}: CSV differs from in process"
        if case.output == "json":
            try:
                fields = json.loads(out.stdout)
            except ValueError:
                return f"{where}: stdout is not JSON"
        else:
            fields = {}
            for line in out.stdout.splitlines():
                name, sep, rest = line.partition(" = ")
                if sep:
                    fields[name] = rest.split(" ")[0]
            expected = {k: repr(v) if isinstance(v, float) else str(v)
                        for k, v in expected.items()}
        for name, want in expected.items():
            if fields.get(name) != want:
                return f"{where}: {name} = {fields.get(name)!r}, in process {want!r}"
        return None

    def _reference(self, key: int, case: Case):
        """The in-process library result the CLI output must equal."""
        pkg = self.pkg
        mp, inv, dec = pkg.mapping, pkg.invariant, pkg.decompose
        m = self.mappings.get(case.config)
        seed = op_seed(self.seed, key)
        v = self._vector(case, key) if case.vector else None
        command = case.command
        if command == "mean-eval":
            spec = pkg.means.parse_mean("power:0.5", 3)
            return {"value": pkg.means.eval_mean(spec, v, pkg.means.parse_interval("(0, inf)"))}
        if command == "map-apply":
            return {"result": list(m.apply(v))}
        if command == "map-iterate":
            trace = m.iterate(v, int(case.args[1]))
            return trace.to_csv() if case.output == "csv" else {"trace": trace.to_json_dict()}
        if command == "contractive-probe":
            verdict = mp.probe_contractivity(m, SAMPLES, seed)
            return {"verdict": "counterexample" if verdict.found else "no_counterexample",
                    "witness": list(verdict.counterexample) if verdict.found else None,
                    "samples_tested": verdict.samples_tested, "skipped": verdict.skipped}
        if command == "n0":
            try:
                return {"n0": mp.find_n0(m, v, mp.DEFAULT_CAP)}
            except pkg.errors.NotFoundWithinCap as exc:
                return {"status": "not_found_within_cap",
                        "start_diameter": exc.trace.steps[0].diameter,
                        "final_diameter": exc.trace.last.diameter}
        if command == "invariant":
            est = inv.gauss_iterate(m, v, tol=TOL, max_iter=MAX_ITER,
                                    keep_trace=case.output == "csv")
            self._oracle(case, v, est)
            if case.output == "csv":
                return est.trace.to_csv()
            return {"value": est.value, "steps": est.steps,
                    "final_diameter": est.final_diameter, "status": est.status}
        if command == "residual":
            if case.args:
                spec = pkg.means.parse_mean(case.args[1], m.p)
                k = lambda u: pkg.means.eval_mean(spec, u, m.domain)  # noqa: E731
            else:
                k = inv.InvariantMean(m, tol=TOL, max_iter=MAX_ITER)
            return {"residual": inv.invariance_residual(k, m, SAMPLES, seed)}
        if command == "uniqueness":
            means = {r: inv.InvariantMean(m, tol=TOL, max_iter=MAX_ITER, readout=r)
                     for r in ("mid", "min", "max")}
            worst = max(inv.uniqueness_probe(means[a], means[b], m.domain, m.p, SAMPLES, seed)
                        for a, b in (("mid", "min"), ("mid", "max"), ("min", "max")))
            return {"max_difference": worst}
        if command == "decompose":
            f = dec.parse_function(case.args[1], m)
            report = dec.verify_decomposition(f, m, tol=TOL, sample_count=SAMPLES,
                                              seed=seed, max_iter=MAX_ITER)
            fields = report.to_json_dict()
            if case.output == "human":
                return {k: fields[k] for k in
                        ("invariance_residual", "decomposition_residual", "max_iter_hits")}
            return fields
        raise ValueError(f"no reference for command {command!r}")

    def _oracle(self, case: Case, v, est) -> None:
        if case.config == "projections":
            if est.status != "max_iter_reached" or est.steps != MAX_ITER:
                raise OracleMismatch(f"{est.status} after {est.steps} steps")
            return
        if not est.converged:
            raise OracleMismatch(f"{v}: {est.status}")
        if case.config == "shift3":
            ref, scale, rel = oracles.shift_average_value(v), max(map(abs, v)), SHIFT_REL
        elif case.config == "agm":
            ref, scale, rel = oracles.agm_decimal(*v), est.value, GAUSS_REL
        else:
            ref, scale, rel = oracles.arithmetic_harmonic(*v), est.value, GAUSS_REL
        if not oracles.close(est.value, ref, scale, rel):
            raise OracleMismatch(f"{v}: {est.value!r}, oracle {ref!r}")
