"""The benchmark's workloads: op streams, their inputs, and their checks.

Every workload is a closed loop with one caller: op ``i`` is a pure
function of the workload seed and ``i``, so the same seed gives the same
inputs and a traced round can replay the first ops of the stream exactly.
Each op calls meantype through its module attributes at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import oracles

TOL = 1e-12
MAX_ITER = 10000
#: Samples per probe call on ``probe-short`` (and ``--samples`` on ``cli``).
SAMPLES = 50
#: Box of the log-uniform inputs on (0, inf) and of the uniform inputs on the reals.
POS_LO, POS_HI = 1e-3, 1e3
REAL_HI = 1e3
#: Shift-average closed-form agreement, relative to max(1, max |v|).
SHIFT_REL = 1e-13


def load_package(src: str, target: str = "meantype.cli") -> SimpleNamespace:
    """Import ``target`` from ``src`` and refuse any other installed copy."""
    sys.path.insert(0, src)
    importlib.import_module(target)
    import meantype

    where = os.path.dirname(os.path.abspath(meantype.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"meantype was imported from {where}, not from {src}")
    return SimpleNamespace(
        means=meantype.means, mapping=meantype.mapping, invariant=meantype.invariant,
        decompose=meantype.decompose, errors=meantype.errors,
        cli=getattr(meantype, "cli", None),
    )


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MEANTYPE_SEED"}
    env["PYTHONPATH"] = src
    return env


def time_setup(root: str, name: str, target: str) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import ``target``, and to also build ``name``.

    The timing is done inside the child by ``setup_probe.py``, so
    interpreter start is not included.
    """
    argv = [sys.executable, os.path.join(root, "bench", "setup_probe.py"), name, target]
    done = subprocess.run(argv, cwd=root, env=child_env(os.path.join(root, "src")),
                          capture_output=True, text=True, check=True)
    imported, total = map(float, done.stdout.split())
    return imported, total


class InProcess:
    """What the runner asks of a workload whose ops run in this process."""

    import_target = "meantype"
    rss_base = "n=1 process"

    def traced_op(self, i: int) -> "Op":
        return self.op(i)

    def peak_rss_kb(self, outputs) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def startup_layers(self, timed) -> dict:
        return {}


@dataclass
class Op:
    """One closed-loop call: ``run`` does it, ``check`` returns an error or None."""

    label: str
    inputs: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    canon: Callable[[object], str]


def op_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}/{i}")


def op_seed(seed: int, i: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode()).digest()[:4], "big") >> 1


def positive_vector(rng: random.Random, p: int) -> tuple[float, ...]:
    lo, hi = math.log(POS_LO), math.log(POS_HI)
    return tuple(math.exp(rng.uniform(lo, hi)) for _ in range(p))


def real_vector(rng: random.Random, p: int) -> tuple[float, ...]:
    return tuple(rng.uniform(-REAL_HI, REAL_HI) for _ in range(p))


def raised(out) -> str | None:
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


# ---------------------------------------------------------------------------
# gauss-long: few long Gauss solves, called in process
# ---------------------------------------------------------------------------

MIXED_5 = ("arithmetic", "geometric", "harmonic", "power:2", "median")
MIXED_10 = (
    "arithmetic", "geometric", "harmonic", "power:0.5", "power:3", "quasi:log",
    "quasi:exp", "quasi:power:2", "median", "weighted:" + ",".join(["0.1"] * 10),
)


def mixed_mapping(pkg, names: tuple[str, ...]):
    means = pkg.means
    p = len(names)
    return pkg.mapping.MeanTypeMapping(
        tuple(means.parse_mean(n, p) for n in names),
        means.Interval(0.0, math.inf), name=f"mixed-{p}",
    )


def build_gauss_long(pkg, root: str) -> dict:
    mp = pkg.mapping
    return {
        "shift3": mp.load_mapping(os.path.join(root, "configs", "shift3.cfg")),
        "shift10": mp.shift_average_mapping(10),
        "mixed5": mixed_mapping(pkg, MIXED_5),
        "mixed10": mixed_mapping(pkg, MIXED_10),
    }


class GaussLong(InProcess):
    """Round-robin Gauss solves at tol 1e-12 over shift3, shift10, mixed5, mixed10.

    mixed5 and shift3 take two slots of the six-slot cycle, so p50 falls
    in the middle of the tight shift3 cluster and p90 in the middle of
    the shift10 one.  With one slot each, the median lands on the edge
    between clusters, or in the low tail of mixed10, whose 15-53 steps
    spread widely, and jumps from run to run.
    """

    name = "gauss-long"
    build = staticmethod(build_gauss_long)
    cycle = ("mixed5", "shift3", "mixed10", "shift10", "mixed5", "shift3")
    window_ops = 102
    warmup_ops = 10
    round_ops = 102

    def __init__(self, pkg, seed: int, root: str, scratch: str):
        self.pkg, self.seed = pkg, seed
        self.mappings = build_gauss_long(pkg, root)

    def op(self, i: int) -> Op:
        label = self.cycle[i % len(self.cycle)]
        mapping = self.mappings[label]
        rng = op_rng(self.seed, i)
        shift = label.startswith("shift")
        v = real_vector(rng, mapping.p) if shift else positive_vector(rng, mapping.p)
        inv = self.pkg.invariant

        def check(est) -> str | None:
            if raised(est):
                return raised(est)
            if est.status != inv.CONVERGED or not est.final_diameter < TOL:
                return f"{label} {v}: status {est.status}, diameter {est.final_diameter!r}"
            if shift:
                ref = oracles.shift_average_value(v)
                if not oracles.close(est.value, ref, max(map(abs, v)), SHIFT_REL):
                    return f"{label} {v}: value {est.value!r}, closed form {ref!r}"
            elif not min(v) <= est.value <= max(v):
                return f"{label} {v}: value {est.value!r} outside [min, max]"
            return None

        return Op(
            label, repr(v),
            lambda: inv.gauss_iterate(mapping, v, tol=TOL, max_iter=MAX_ITER),
            check,
            lambda est: f"{label} {est.value!r} {est.steps} {est.status} {est.final_diameter!r}",
        )


# ---------------------------------------------------------------------------
# probe-short: many short solves inside the sample-and-maximize probes
# ---------------------------------------------------------------------------

READOUT_PAIRS = (("mid", "min"), ("mid", "max"), ("min", "max"))


def build_probe_short(pkg, root: str) -> dict:
    mp, inv = pkg.mapping, pkg.invariant
    fixtures = {
        "agm": mp.load_mapping(os.path.join(root, "configs", "agm.cfg")),
        "ah": mp.load_mapping(os.path.join(root, "configs", "arithmetic_harmonic.cfg")),
        "shift3": mp.load_mapping(os.path.join(root, "configs", "shift3.cfg")),
        "shift10": mp.shift_average_mapping(10),
    }
    means = {
        (name, r): inv.InvariantMean(fixtures[name], tol=TOL, max_iter=MAX_ITER, readout=r)
        for name in ("agm", "ah") for r in ("mid", "min", "max")
    }
    return {"fixtures": fixtures, "means": means}


class ProbeShort(InProcess):
    """The sampling probes at SAMPLES samples per call, each call its own seed.

    On agm and arithmetic-harmonic: invariance_residual with K the
    invariant mean and with K geometric, uniqueness_probe over three
    readout pairs, verify_decomposition(product), probe_contractivity.
    On shift3 and shift10: probe_contractivity, then find_n0 and
    star_apply over sample_vectors.

    The p = 2 block runs three times per cycle of 48 ops.  Once per cycle
    puts the median and p90 exactly on the edges between clusters of
    similar ops (contractivity and decomposition, residual and
    uniqueness, the shift10 n0 search), where they jump from run to run.
    """

    name = "probe-short"
    build = staticmethod(build_probe_short)
    warmup_ops = 20
    window_ops = 144
    round_ops = 48

    def __init__(self, pkg, seed: int, root: str, scratch: str):
        self.pkg, self.seed = pkg, seed
        built = build_probe_short(pkg, root)
        self.fixtures, self.means = built["fixtures"], built["means"]
        self.cycle = []
        for name in ("agm", "ah") * 3:
            self.cycle += [(name, "residual-K"), (name, "residual-geometric")]
            self.cycle += [(name, f"uniqueness-{a}-{b}") for a, b in READOUT_PAIRS]
            self.cycle += [(name, "decompose-product"), (name, "contractivity")]
        for name in ("shift3", "shift10"):
            self.cycle += [(name, "contractivity"), (name, "n0"), (name, "star")]

    def op(self, i: int) -> Op:
        name, probe = self.cycle[i % len(self.cycle)]
        seed = op_seed(self.seed, i)
        label = f"{name}:{probe}"
        make = getattr(self, "_" + probe.split("-")[0])
        run, check, canon = make(name, probe, seed)
        return Op(label, f"seed {seed}", run, lambda out: raised(out) or check(out), canon)

    def _residual(self, name, probe, seed):
        pkg, m = self.pkg, self.fixtures[name]
        if probe == "residual-K":
            k = self.means[(name, "mid")]
            invariant = True
        else:
            spec = pkg.means.MeanSpec.geometric(2)
            k = lambda v: pkg.means.eval_mean(spec, v, m.domain)  # noqa: E731
            invariant = name == "ah"  # (A, H) preserves x*y, hence sqrt(x*y)

        def check(r):
            if invariant and not r <= 1e-10:
                return f"{name} {probe} seed {seed}: residual {r!r} for an invariant K"
            if not invariant and not r > 1e-3:
                return f"{name} {probe} seed {seed}: residual {r!r} for a non-invariant K"
            return None

        return (lambda: pkg.invariant.invariance_residual(k, m, SAMPLES, seed),
                check, lambda r: f"{name} {probe} {r!r}")

    def _uniqueness(self, name, probe, seed):
        pkg, m = self.pkg, self.fixtures[name]
        _, a, b = probe.split("-")
        k1, k2 = self.means[(name, a)], self.means[(name, b)]

        def check(r):
            return None if r <= 2 * TOL else f"{name} {probe} seed {seed}: {r!r} > 2 tol"

        return (lambda: pkg.invariant.uniqueness_probe(k1, k2, m.domain, m.p, SAMPLES, seed),
                check, lambda r: f"{name} {probe} {r!r}")

    def _decompose(self, name, probe, seed):
        pkg, m = self.pkg, self.fixtures[name]
        f = pkg.decompose.product_function(2)

        def check(rep):
            if rep.max_iter_hits or rep.samples != SAMPLES:
                return f"{name} {probe} seed {seed}: {rep.max_iter_hits} max_iter hits"
            if name == "ah" and not (rep.invariance_residual <= 1e-8
                                     and rep.decomposition_residual <= 1e-8):
                return f"{name} {probe} seed {seed}: residuals {rep.invariance_residual!r}, " \
                       f"{rep.decomposition_residual!r} for the invariant x*y"
            if name == "agm" and not rep.invariance_residual > 1e-3:
                return f"{name} {probe} seed {seed}: x*y reads as invariant under (A, G)"
            return None

        return (lambda: pkg.decompose.verify_decomposition(
                    f, m, tol=TOL, sample_count=SAMPLES, seed=seed, max_iter=MAX_ITER),
                check,
                lambda rep: f"{name} {probe} {rep.invariance_residual!r} "
                            f"{rep.decomposition_residual!r} {rep.k_steps_min} "
                            f"{rep.k_steps_max} {rep.k_steps_mean!r}")

    def _contractivity(self, name, probe, seed):
        pkg, m = self.pkg, self.fixtures[name]
        shift = name.startswith("shift")

        def check(verdict):
            if verdict.samples_tested + verdict.skipped > SAMPLES:
                return f"{name} {probe} seed {seed}: more samples than drawn"
            if not shift:
                # (A, G) and (A, H) are strict means on p = 2: every step contracts.
                if verdict.found or verdict.samples_tested + verdict.skipped != SAMPLES:
                    return f"{name} {probe} seed {seed}: {verdict}"
                return None
            w = verdict.counterexample
            if w is None:
                return f"{name} {probe} seed {seed}: no counterexample for a shift"
            image = oracles.shift_average_step(w)
            if max(image) - min(image) < max(w) - min(w):
                return f"{name} {probe} seed {seed}: witness {w} contracts"
            return None

        return (lambda: pkg.mapping.probe_contractivity(m, SAMPLES, seed), check,
                lambda v: f"{name} {probe} {v.counterexample!r} {v.samples_tested} {v.skipped}")

    def _n0(self, name, probe, seed):
        mp, m = self.pkg.mapping, self.fixtures[name]

        def run():
            search = mp.find_n0 if probe == "n0" else mp.star_apply
            return [search(m, v) for v in mp.sample_vectors(m.domain, m.p, SAMPLES, seed)]

        def check(results):
            vectors = list(mp.sample_vectors(m.domain, m.p, SAMPLES, seed))
            if len(results) != len(vectors):
                return f"{name} {probe} seed {seed}: {len(results)} results"
            for v, got in zip(vectors, results):
                n0, image = oracles.shift_average_n0(v, mp.DEFAULT_CAP)
                if probe == "n0" and got != n0:
                    return f"{name} n0 {v}: got {got}, definition gives {n0}"
                if probe == "star" and not all(
                        oracles.close(a, b, max(map(abs, v)), 1e-15)
                        for a, b in zip(got, image)):
                    return f"{name} star {v}: got {got}, definition gives {image}"
            return None

        return run, check, lambda results: f"{name} {probe} {results!r}"

    _star = _n0
