"""Per-layer scaling sweeps: each public function of a layer timed from
outside on seeded inputs of stated size.

Every call is a span named after the metric it feeds, so the trace file
holds the raw samples behind each reported median.  ``run`` returns the
metrics in the units their names end with.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys

from compalg import dsl, engine, model
from compalg.algebra import AlgebraKind, make_algebra, mul, quadratic_form, verify_axioms
from compalg.errors import CoarsenMismatch

import inputs
import workloads
from inputs import NAME

MUL_BATCH = 200
BUDGET_S = 0.1     # repeat a call until this much time is spent ...
MAX_REPS = 5       # ... or this many calls are made
CLI_REPS = 3
AMP_SWEEP_N = (3, 8, 16, 20)
AMP_SWEEP_L = (8, 16, 32)
PATH_COUNTS = {729: 6, 6561: 8, 19683: 9}  # enumerated paths -> atomic sequence length
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


class Sweep:
    def __init__(self, tracer, seed: int):
        self.tracer = tracer
        self.rng = random.Random(f"sweep:{seed}")
        self.metrics = {}

    def time(self, name: str, fn, per_call: int = 1, budget: float = BUDGET_S,
             max_reps: int = MAX_REPS):
        """Median wall time of fn() over repeats, reported in the name's unit."""
        spent, reps = 0.0, 0
        while reps == 0 or (spent < budget and reps < max_reps):
            with self.tracer.span(name):
                fn()
            spent += self.tracer.durations(name)[-1]
            reps += 1
        self.record(name, statistics.median(self.tracer.durations(name)) / per_call)

    def record(self, name: str, seconds: float):
        self.metrics[name] = seconds * SCALE[unit(name)]


def unit(name: str) -> str:
    """The unit a metric name ends with: ``.us``, ``.ms``, ``.s`` or ``.p50_ms``."""
    return name.rsplit(".", 1)[1].split("_")[-1]


def _amplitudes(alg, exact: bool, rng, count: int) -> list:
    label = alg.kind.label
    make = inputs.dense_exact if exact else inputs.dense_float
    return [alg.amplitude(e) for e in make(label, 1, count, rng)[0]]


def algebra_layer(sw: Sweep):
    for label in inputs.ALL_KINDS:
        alg = make_algebra(AlgebraKind.from_label(label))
        for mode in ("exact", "float"):
            xs = _amplitudes(alg, mode == "exact", sw.rng, MUL_BATCH + 1)
            pairs = list(zip(xs, xs[1:]))
            sw.time(f"algebra.mul.{NAME[label]}.{mode}.us",
                    lambda: [mul(a, b) for a, b in pairs], per_call=MUL_BATCH)
            if label in inputs.ASSOCIATIVE:
                sw.time(f"algebra.quadratic_form.{NAME[label]}.{mode}.us",
                        lambda: [quadratic_form(a) for a in xs[:MUL_BATCH]],
                        per_call=MUL_BATCH)
        sw.time(f"algebra.verify_axioms.{NAME[label]}.s", lambda: verify_axioms(alg), max_reps=1)


def model_layer(sw: Sweep):
    rng = sw.rng
    six = inputs.grounds("h", 6, 2)
    three = inputs.grounds("k", 3, 2)
    for length in workloads.PA_L:
        p = workloads.redundant_path(six, length, rng)
        sw.time(f"model.normal_form.L{length}.ms", lambda: model.normal_form(p))
        sw.time(f"model.classify.L{length}.ms", lambda: model.classify(p))
    for length in workloads.COARSEN_L:
        for kind, make in workloads.COARSEN_KINDS:
            a, b, _ = make(three, length, rng)
            sw.time(f"model.coarsen.{kind}.L{length}.ms", lambda: _coarsen(a, b))
    tri = inputs.grounds("t", 3, 3)
    for count, length in PATH_COUNTS.items():
        s, _ = workloads.sum_sequence(tri, length, 0, rng)
        sw.time(f"model.enumerate_paths.P{count}.ms", lambda: model.enumerate_paths(s))
    for n in workloads.PARTITION_N:
        ground = inputs.grounds(f"n{n}g", n, 1)[0]
        sw.time(f"model.enumerate_partitions.n{n}.ms",
                lambda: model.enumerate_partitions(ground))


def _coarsen(a, b):
    try:
        return model.coarsen(a, b)
    except CoarsenMismatch:
        return None


def engine_layer(sw: Sweep):
    rng = sw.rng
    for mode in ("exact", "float"):
        make = inputs.dense_exact if mode == "exact" else inputs.dense_float
        for n in AMP_SWEEP_N:
            gs = inputs.grounds(f"a{n}g", n, 2)
            raw = {(0, 1): make("C", n, n, rng)}
            asg = inputs.assignment("C", gs, raw)
            if mode == "exact":
                # three grounds and matrices, as the amplitudes workload builds them
                gs3 = inputs.grounds(f"b{n}g", n, 3)
                raw3 = {pr: make("C", n, n, rng) for pr in inputs.all_pairs(3)}
                sw.time(f"engine.assignment_build.n{n}.ms",
                        lambda: inputs.assignment("C", gs3, raw3))
            for length in AMP_SWEEP_L:
                p = inputs.build_path(gs, inputs.cyclic(length, 2, rng), [2] * length, rng)
                sw.time(f"engine.amplitude_of.C.{mode}.n{n}.L{length}.ms",
                        lambda: engine.amplitude_of(p, asg))
    gs = inputs.grounds("a8g", 8, 2)
    for label in inputs.ASSOCIATIVE:
        if label == "C":
            continue  # the C cell of this row is engine.amplitude_of.C.exact.n8.L16 above
        asg = inputs.assignment(label, gs, {(0, 1): inputs.dense_exact(label, 8, 8, rng)})
        p = inputs.build_path(gs, inputs.cyclic(16, 2, rng), [2] * 16, rng)
        sw.time(f"engine.amplitude_of.{NAME[label]}.exact.n8.L16.ms",
                lambda: engine.amplitude_of(p, asg))
    tri = inputs.grounds("t", 3, 3)
    for mode in ("exact", "float"):
        raw = {pr: inputs.unitary("C", 3, rng, mode == "exact") for pr in inputs.all_pairs(3)}
        asg = inputs.assignment("C", tri, raw)
        for count, length in PATH_COUNTS.items():
            s, source = workloads.sum_sequence(tri, length, 0, rng)
            sw.time(f"engine.total_probability.{mode}.P{count}.s",
                    lambda: engine.total_probability(s, source, asg), max_reps=3)
            if mode == "float" and count == 6561:
                sw.time("engine.sample.P6561.s",
                        lambda: engine.sample(s, source, asg, workloads.SAMPLE_N, 1),
                        max_reps=3)


def dsl_layer(sw: Sweep, cli_workload):
    text, workdir = cli_workload.info["text"], cli_workload.info["workdir"]
    sw.time("dsl.parse.ms", lambda: dsl.parse(text, base_dir=workdir))
    for n in (8, 16):
        gs = inputs.grounds("j", n, 2)
        atoms = {f"atom{i}": model.atomic_measurement(g) for i, g in enumerate(gs)}
        doc = json.loads(inputs.matrix_file(
            "C", [("atom0", "atom1", inputs.dense_exact("C", n, n, sw.rng))]))
        sw.time(f"dsl.load_assignment_json.n{n}.ms",
                lambda: dsl.load_assignment_json(doc, atoms, AlgebraKind.C))


CLI_SUBCOMMANDS = ("prob", "sum-rule", "sample", "normalize", "classify", "coarsen",
                   "factorize", "enumerate", "verify-algebra")


def cli_layer(sw: Sweep, cli_workload):
    by_name = {}
    for op in cli_workload.ops:
        by_name.setdefault(op.name, []).append(op)
    for sub in CLI_SUBCOMMANDS:
        ops = by_name[f"cli.{sub}"]
        name = f"cli.{sub}.p50_ms"
        for k in range(max(CLI_REPS, len(ops))):
            op = ops[k % len(ops)]
            with sw.tracer.span(name):
                op.run(None)
        sw.record(name, statistics.median(sw.tracer.durations(name)))
    env = cli_workload.info["env"]
    for name, code in (("cli.python.ms", "pass"), ("cli.import.ms", "import compalg")):
        for _ in range(CLI_REPS):
            with sw.tracer.span(name):
                subprocess.run([sys.executable, "-c", code], env=env, check=True)
        sw.record(name, statistics.median(sw.tracer.durations(name)))


def run(tracer, seed: int, cli_workload) -> dict:
    sw = Sweep(tracer, seed)
    algebra_layer(sw)
    model_layer(sw)
    engine_layer(sw)
    dsl_layer(sw, cli_workload)
    cli_layer(sw, cli_workload)
    return sw.metrics
