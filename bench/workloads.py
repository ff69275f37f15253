"""The four workloads: seeded inputs, one operation per input, and a check
of every operation's output.

A workload's ``setup(seed, workdir)`` builds everything an operation
needs (inputs, ``Assignment`` objects, workspace files) and returns a
``Workload``.  ``Op.run(tracer)`` performs one operation; with a tracer it
records a span around each public call into a layer, and where one layer
calls another internally it also times the inner function as a separate
call on the same input.  ``Op.check(output)`` compares the output with an
independent expectation, computed on first use and then kept.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Optional

from compalg import dsl, engine, model
from compalg.algebra import AlgebraKind, make_algebra, quadratic_form, verify_axioms
from compalg.engine import FLOAT_RTOL, ProbabilityResult
from compalg.errors import CoarsenMismatch
from compalg.model import Path

import inputs
import launcher
import oracle
from inputs import NAME


@dataclass
class Op:
    name: str
    mode: Optional[str]  # "exact" or "float" for evaluations, None otherwise
    run: Callable        # run(tracer or None) -> output
    check: Callable      # check(output) -> bool


@dataclass
class Workload:
    ops: list
    peak_rss_kb: Callable = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info: dict = field(default_factory=dict)


def _once(compute: Callable) -> Callable:
    """A memo for one expected value, computed at the first check."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]
    return get


# -- amplitudes ---------------------------------------------------------------------

AMP_N = (3, 8, 16)
AMP_L = (8, 16, 32)
AMP_IMPOSSIBLE_EVERY = 10


def _amplitude_op(label, mode, n, p, asg, raw, gs, gseq) -> Op:
    elements = {i: list(g.elements) for i, g in enumerate(gs)}
    results = list(p.results)
    d = inputs.dim(label)
    if mode == "exact":
        expected = _once(lambda: oracle.exact_amplitude(label, d, raw, elements, gseq, results))
    else:
        expected = _once(lambda: oracle.float_amplitude(label, d, raw, elements, gseq, results))

    def run(tr):
        if tr is None:
            return engine.probability_of(p, asg)
        with tr.span("engine.amplitude_of"):
            amp = engine.amplitude_of(p, asg)
        with tr.span("algebra.quadratic_form"):
            prob = quadratic_form(amp)
        return ProbabilityResult(amp, prob)

    def check(out):
        got = out.amplitude.coeffs
        if mode == "exact":
            want = expected()
            return got == want and out.probability == oracle.quadratic_form(want, label)
        want, bound = expected()
        floats = tuple(float(c) for c in got)
        born = oracle.quadratic_form(floats, label)
        scale = max(sum(c * c for c in floats), 1e-300)
        return oracle.float_close(got, want, bound, FLOAT_RTOL) \
            and abs(out.probability - born) <= FLOAT_RTOL * scale

    return Op(f"probability_of.{NAME[label]}.{mode}.n{n}.L{len(p)}", mode, run, check)


def amplitudes(seed: int, workdir: str) -> Workload:
    """probability_of on paths over dense matrices, neighbours on distinct grounds."""
    rng = random.Random(f"amplitudes:{seed}")
    ops, pairs = [], 0
    for label in inputs.ASSOCIATIVE:
        for mode in ("exact", "float"):
            make = inputs.dense_exact if mode == "exact" else inputs.dense_float
            for n in AMP_N:
                gs = inputs.grounds(f"a{n}g", n, 3)
                raw = {pr: make(label, n, n, rng) for pr in inputs.all_pairs(3)}
                asg = inputs.assignment(label, gs, raw)
                for length in AMP_L:
                    for count in (2, 3):
                        gseq = inputs.cyclic(length, count, rng)
                        dead = -1
                        if len(ops) % AMP_IMPOSSIBLE_EVERY == 0:
                            dead = rng.randrange(1, length - 2)
                            gseq[dead + 1] = gseq[dead]
                        blocks = [2 + j % 2 for j in range(length)]
                        p = inputs.build_path(gs, gseq, blocks, rng, dead)
                        pairs += thread_pairs(p)
                        ops.append(_amplitude_op(label, mode, n, p, asg, raw, gs, gseq))
    rng.shuffle(ops)
    return Workload(ops, info={"engine.thread_pairs": pairs})


def thread_pairs(p: Path) -> int:
    """Sum over run boundaries of |alive_k| * |alive_k+1| (0 if impossible)."""
    grounds = [m.element_set() for m in p.steps]
    sup = oracle.supports(grounds, list(p.results))
    if sup is None:
        return 0
    return sum(len(a) * len(b) for (_, a), (_, b) in zip(sup, sup[1:]))


# -- sum_rules ----------------------------------------------------------------------

#: (length, number of two-detector interior steps); the rest are atomic.
#: Two step mixes per length spread the costs, so no percentile sits on a
#: wide gap between two groups of operations.
SUM_TEMPLATES = ((6, 1), (6, 2), (7, 2), (7, 3))
SAMPLE_N = 100_000


def _total_op(label, mode, s, source, asg) -> Op:
    def run(tr):
        if tr is None:
            return engine.total_probability(s, source, asg)
        with tr.span("engine.total_probability"):
            total = engine.total_probability(s, source, asg)
        with tr.span("model.enumerate_paths", separate=True):
            model.enumerate_paths(s)
        return total

    def check(total):
        if mode == "exact":
            return isinstance(total, Rational) and total == 1
        return abs(total - 1.0) <= FLOAT_RTOL

    return Op(f"total_probability.{NAME[label]}.{mode}.L{len(s)}", mode, run, check)


def _sample_op(label, mode, s, source, asg, draw_seed) -> Op:
    repeated = _once(lambda: engine.sample(s, source, asg, SAMPLE_N, draw_seed))

    def run(tr):
        if tr is None:
            return engine.sample(s, source, asg, SAMPLE_N, draw_seed)
        with tr.span("engine.sample"):
            counts = engine.sample(s, source, asg, SAMPLE_N, draw_seed)
        with tr.span("model.enumerate_paths", separate=True):
            model.enumerate_paths(s)
        return counts

    def check(counts):
        return sum(counts.values()) == SAMPLE_N \
            and all(p.results[0] == source for p in counts) \
            and counts == repeated()

    return Op(f"sample.{NAME[label]}.{mode}.L{len(s)}", mode, run, check)


def sum_sequence(gs, length, coarse, rng):
    """A sequence cycling over the grounds, with ``coarse`` evenly spaced
    two-detector steps and atomic steps otherwise, and an atomic source."""
    gseq = inputs.cyclic(length, len(gs), rng)
    where = {1 + k * (length - 2) // coarse for k in range(coarse)}
    p = inputs.build_path(gs, gseq, [2 if j in where else 3 for j in range(length)], rng)
    return p.sequence, p.results[0]


def sum_rules(seed: int, workdir: str) -> Workload:
    """Sum rules and sampling over whole sequences with unitary matrices."""
    rng = random.Random(f"sum_rules:{seed}")
    gs = inputs.grounds("t", 3, 3)

    def unitary_assignment(label, exact):
        raw = {pr: inputs.unitary(label, 3, rng, exact) for pr in inputs.all_pairs(3)}
        return inputs.assignment(label, gs, raw)

    ops, in_scope = [], 0

    def add(make, label, mode, template, *extra):
        nonlocal in_scope
        s, source = sum_sequence(gs, *template, rng)
        in_scope += paths_from_source(s)
        ops.append(make(label, mode, s, source,
                        unitary_assignment(label, mode == "exact"), *extra))

    for template in SUM_TEMPLATES:
        for label in inputs.ASSOCIATIVE:
            add(_total_op, label, "exact", template)
        for label in inputs.POSITIVE:
            add(_total_op, label, "float", template)
            add(_sample_op, label, "float", template, rng.randrange(1 << 32))
    rng.shuffle(ops)
    return Workload(ops, info={"sum_rules.paths_in_scope": in_scope})


def paths_from_source(s) -> int:
    count = 1
    for m in s.steps[1:]:
        count *= len(m.blocks)
    return count


# -- path_algebra ---------------------------------------------------------------------

PA_L = (8, 16, 32)
COARSEN_L = (4, 5, 6)
PARTITION_N = (7, 8, 9)
#: normal_form/classify paths per length, and paths per length for the
#: partial operations.  With these counts p50 falls in the middle of the
#: L = 8 normal forms and p90 in the middle of the L = 32 ones, groups of
#: like cost, so the percentiles hold steady from seed to seed and under
#: other load on the machine.
NF_PATHS = {8: 12, 16: 23, 32: 13}
PARTIAL_PATHS = 4


def redundant_path(gs, length, rng) -> Path:
    """A possible path: a normal core on alternating grounds plus length // 4
    redundant steps, inserted after evenly spaced interior steps.  Every
    other one copies its predecessor (one drop for normal_form); the rest
    are on the same ground with a result that differs from the
    predecessor's in one element each way (two strips, then a drop).  So
    the reduction work is fixed by the length; the contents are random."""
    extra = length // 4
    core = inputs.build_path(gs, inputs.cyclic(length - extra, len(gs), rng),
                             [2 + j % 2 for j in range(length - extra)], rng)
    steps, results = list(core.steps), list(core.results)
    spots = [1 + k * (len(core) - 2) // extra for k in range(extra)]
    for k, j in enumerate(reversed(spots)):  # from the right, so indices hold
        m, r = core.steps[j], core.results[j]
        if k % 2:
            new_m, new_r = m, r
        else:
            elements = m.ground.element_set()
            new_r = (r - {rng.choice(sorted(r))}) | {rng.choice(sorted(elements - r))}
            rest = sorted(elements - new_r)
            new_m = model.measurement(f"x{j}", m.ground,
                                      [sorted(new_r)] + inputs.partition(rest, 2, rng))
        steps.insert(j + 1, new_m)
        results.insert(j + 1, new_r)
    return Path(model.sequence(steps), tuple(results))


def _other_block(p: Path, j: int, rng) -> frozenset:
    return rng.choice([b for b in model.sorted_blocks(p.steps[j].blocks) if b != p.results[j]])


def direct_pair(gs, length, rng):
    a = inputs.build_path(gs, inputs.cyclic(length, len(gs), rng), [2] * length, rng)
    j = rng.randrange(1, length - 1)
    b = Path(a.sequence, a.results[:j] + (_other_block(a, j, rng),) + a.results[j + 1:])
    return a, b, (a, b)


def padded_pair(gs, length, rng):
    """a repeats step j of q with a disjoint result, so a is impossible and
    only q padded at j lines up with it."""
    q = inputs.build_path(gs, inputs.cyclic(length - 1, len(gs), rng), [2] * length, rng)
    j = rng.randrange(1, length - 2)
    steps = q.steps[:j + 1] + (q.steps[j],) + q.steps[j + 1:]
    a = Path(model.sequence(steps), q.results[:j + 1] + (_other_block(q, j, rng),) + q.results[j + 1:])
    padded_q = Path(a.sequence, q.results[:j + 1] + (q.results[j],) + q.results[j + 1:])
    return a, q, (a, padded_q)


def nonaligned_pair(gs, length, rng):
    """Two normal paths differing at two steps: no padding aligns them."""
    a = inputs.build_path(gs, inputs.cyclic(length, len(gs), rng), [2] * length, rng)
    res = list(a.results)
    for j in (1, length - 2):
        res[j] = _other_block(a, j, rng)
    return a, Path(a.sequence, tuple(res)), None


COARSEN_KINDS = (("direct", direct_pair), ("padded", padded_pair),
                 ("nonaligned", nonaligned_pair))


def _model_op(name: str, fn: Callable, args: tuple, check: Callable) -> Op:
    def run(tr):
        if tr is None:
            return fn(*args)
        with tr.span(f"model.{fn.__name__}"):
            return fn(*args)
    return Op(name, None, run, check)


def _coarsen_op(kind, length, a, b, aligned) -> Op:
    def run(tr):
        try:
            if tr is None:
                return model.coarsen(a, b)
            with tr.span("model.coarsen"):
                return model.coarsen(a, b)
        except CoarsenMismatch as exc:
            if aligned is None:
                return exc
            raise

    def check(out):
        if aligned is None:
            return isinstance(out, CoarsenMismatch)
        pa, pb = aligned
        return model.refine(out, pb) == pa and model.refine(out, pa) == pb

    return Op(f"coarsen.{kind}.L{length}", None, run, check)


def _normal_form_check(p: Path) -> Callable:
    return lambda nf: len(nf) <= len(p) and model.normal_form(nf) == nf


def _classify_check(p: Path) -> Callable:
    grounds = [m.element_set() for m in p.steps]
    cyclic = p.steps[0] == p.steps[-1] and p.results[0] == p.results[-1]
    return lambda c: c.possible and c.igps == oracle.impossible_pairs(grounds, p.results) \
        and c.cyclic == cyclic


def _pieces(p: Path, k: int):
    a = Path(model.sequence(p.steps[:k + 1]), p.results[:k + 1])
    b = Path(model.sequence(p.steps[k:]), p.results[k:])
    return a, b


def _chained(factors) -> Path:
    out = factors[0]
    for f in factors[1:]:
        out = model.chain(out, f)
    return out


def path_algebra(seed: int, workdir: str) -> Workload:
    """The model layer alone: normal forms, coarsening and the partial operations."""
    rng = random.Random(f"path_algebra:{seed}")
    six = inputs.grounds("h", 6, 2)
    three = inputs.grounds("k", 3, 2)
    ops = []
    for length in PA_L:
        for _ in range(NF_PATHS[length]):
            p = redundant_path(six, length, rng)
            ops.append(_model_op(f"normal_form.L{length}", model.normal_form, (p,),
                                 _normal_form_check(p)))
            ops.append(_model_op(f"classify.L{length}", model.classify, (p,),
                                 _classify_check(p)))
        for _ in range(PARTIAL_PATHS):
            cut = rng.randrange(1, length - 1)  # atomic, so both pieces are paths
            blocks = [3 if j == cut else 2 + j % 2 for j in range(length)]
            p = inputs.build_path(three, inputs.cyclic(length, 2, rng), blocks, rng)
            a, b = _pieces(p, cut)
            ops.append(_model_op(f"chain.L{length}", model.chain, (a, b),
                                 lambda out, p=p: out == p))
            ops.append(_model_op(f"unchain_left.L{length}", model.unchain_left, (a, p),
                                 lambda out, b=b: out == b))
            ops.append(_model_op(f"unchain_right.L{length}", model.unchain_right, (p, b),
                                 lambda out, a=a: out == a))
            ops.append(_model_op(f"reverse.L{length}", model.reverse, (p,),
                                 lambda out, p=p: out.results == p.results[::-1]
                                 and model.reverse(out) == p))
            ops.append(_model_op(
                f"factorize.L{length}", model.factorize, (p,),
                lambda out, p=p: _chained(out) == p
                and not any(m.is_atomic for f in out for m in f.steps[1:-1])))
            fine, other, _ = direct_pair(three, length, rng)
            coarse = model.coarsen(fine, other)
            ops.append(_model_op(f"refine.L{length}", model.refine, (coarse, other),
                                 lambda out, fine=fine: out == fine))
    for length in COARSEN_L:
        for kind, make in COARSEN_KINDS:
            ops.append(_coarsen_op(kind, length, *make(three, length, rng)))
    for n in PARTITION_N:
        ground = inputs.grounds(f"n{n}g", n, 1)[0]
        ops.append(_model_op(f"enumerate_partitions.n{n}", model.enumerate_partitions,
                             (ground,), lambda out, n=n: len(out) == oracle.bell(n)
                             and len({m.blocks for m in out}) == len(out)))
    rng.shuffle(ops)
    return Workload(ops)


# -- cli ----------------------------------------------------------------------------

#: verify-algebra random samples per axiom (the default is 1000).  Few, so
#: that even the octonion calls stay near the cost of start-up and no small
#: group of slow calls sits at p90.
CLI_SAMPLES = 20


class _Doc:
    """Accumulates a DSL document from model objects, naming each once."""

    def __init__(self):
        self.lines = []
        self.grounds = set()
        self.measurements = {}
        self.sequences = {}

    def ground(self, g) -> str:
        if g.id not in self.grounds:
            self.grounds.add(g.id)
            self.lines.append(f"elements {g.id} = {{{', '.join(g.elements)}}}")
        return g.id

    def measurement(self, m) -> str:
        if m not in self.measurements:
            ground = self.ground(m.ground)
            name = f"m{len(self.measurements)}"
            self.measurements[m] = name
            blocks = ", ".join("{" + ", ".join(sorted(b)) + "}"
                               for b in model.sorted_blocks(m.blocks))
            self.lines.append(f"measurement {name} over {ground} = {{{blocks}}}")
        return self.measurements[m]

    def sequence(self, s) -> str:
        if s not in self.sequences:
            names = [self.measurement(m) for m in s.steps]
            name = f"s{len(self.sequences)}"
            self.sequences[s] = name
            self.lines.append(f"sequence {name} = [{', '.join(names)}]")
        return self.sequences[s]

    def path(self, name: str, p: Path) -> str:
        seq = self.sequence(p.sequence)
        blocks = ", ".join("{" + ", ".join(sorted(r)) + "}" for r in p.results)
        self.lines.append(f"path {name} over {seq} = [{blocks}]")
        return name


def _prob_json(value):
    """A probability as the CLI prints it: a float, an integer or "p/q"."""
    return value if isinstance(value, float) else inputs.coeff_json(Fraction(value))


def _sample_rows(counts: dict, asg) -> list:
    return [[model.path_to_json(p), counts[p],
             str(_prob_json(engine.probability_of(p, asg).probability))]
            for p in sorted(counts, key=model.path_key)]


def _parse_sample_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["path", "count", "probability"]:
        return []
    return [[json.loads(r[0]), int(r[1]), r[2]] for r in rows[1:]]


def cli(seed: int, workdir: str, spawn: Callable = launcher.run) -> Workload:
    """Sequential ``python -m compalg`` subprocesses on a generated workspace.

    ``spawn(argv)`` runs one subprocess and returns (exit code, stdout, peak
    RSS in kB); the benchmark passes a ``launcher.Launcher``'s ``run``."""
    rng = random.Random(f"cli:{seed}")
    os.makedirs(workdir, exist_ok=True)
    doc = _Doc()
    tri = inputs.grounds("c", 3, 3)
    six = inputs.grounds("d", 6, 2)
    pair = inputs.grounds("e", 3, 2)
    atoms = [doc.measurement(model.atomic_measurement(g)) for g in tri]

    s, source = sum_sequence(tri, 6, 2, rng)
    seq = doc.sequence(s)
    for name in ("pS", "pT"):
        doc.path(name, Path(s, tuple(rng.choice(model.sorted_blocks(m.blocks))
                                     for m in s.steps)))
    doc.path("pN", redundant_path(six, 16, rng))
    fine, other, _ = direct_pair(pair, 6, rng)
    doc.path("pA", fine)
    doc.path("pB", other)
    left, right, _ = nonaligned_pair(pair, 4, rng)
    doc.path("pX", left)
    doc.path("pY", right)
    doc.path("pF", inputs.build_path(pair, inputs.cyclic(16, 2, rng),
                                     [2 + j % 2 for j in range(16)], rng))
    doc.ground(inputs.grounds("w", 8, 1)[0])

    files = {"exact": ("ex", "C", True), "float": ("fl", "H", False)}
    for mode, (name, label, exact) in files.items():
        steps = [(atoms[a], atoms[b], inputs.unitary(label, 3, rng, exact))
                 for a, b in inputs.all_pairs(3)]
        with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(inputs.matrix_file(label, steps))
        doc.lines.append(f'assignment {name} over {seq} algebra {label} from "{name}.json"')
    text = "\n".join(doc.lines) + "\n"
    ws_path = os.path.join(workdir, "workspace.dsl")
    with open(ws_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    bad_path = os.path.join(workdir, "broken.dsl")
    with open(bad_path, "w", encoding="utf-8") as fh:
        fh.write("elements g = {a, b\n")
    ws = dsl.parse(text, base_dir=workdir)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    rss_kb = []  # per operation, the peak RSS of each of its subprocesses
    src_arg = "{" + ",".join(sorted(source)) + "}"
    draw_seed = rng.randrange(1 << 32)
    ops = []

    def add(argv, mode, call, expected_code=0, parse=json.loads, workspace=True,
            path=ws_path):
        """One invocation; ``call`` is (span name, in-process equivalent)."""
        sub = argv[0]
        want = _once(call[1]) if call else None
        rss = []
        rss_kb.append(rss)

        def run(tr):
            full = [sys.executable, "-m", "compalg", "-w", path] + argv
            if tr is None:
                out = spawn(full)
            else:
                with tr.span(f"cli.{sub}"):
                    out = spawn(full)
                if workspace:
                    with tr.span("dsl.parse", separate=True):
                        dsl.parse(text, base_dir=workdir)
                if call:
                    with tr.span(call[0], separate=True):
                        call[1]()
            rss.append(out[2])
            return out

        def check(out):
            code, stdout, _ = out
            if code != expected_code:
                return False
            if want is None:
                return stdout == ""
            return parse(stdout) == want()

        name = f"cli.{sub}" if expected_code == 0 else f"cli.{sub}.exit{expected_code}"
        ops.append(Op(name, mode, run, check))

    for mode, (name, _, _) in files.items():
        asg = ws.assignments[name]
        for path_name in ("pS", "pT"):
            add(["prob", path_name, "--assignment", name], mode, (
                "engine.probability_of",
                lambda asg=asg, p=ws.paths[path_name]: engine.probability_of(p, asg).to_json()))
        add(["sum-rule", seq, "--assignment", name, "--source", src_arg], mode, (
            "engine.total_probability",
            lambda asg=asg: {"total_probability": _prob_json(
                engine.total_probability(s, source, asg))}))
        add(["sample", seq, "--assignment", name, "--source", src_arg,
             "-n", str(SAMPLE_N), "--seed", str(draw_seed)], mode, (
            "engine.sample",
            lambda asg=asg: _sample_rows(
                engine.sample(s, source, asg, SAMPLE_N, draw_seed), asg)),
            parse=_parse_sample_csv)
    add(["normalize", "pN"], None, (
        "model.normal_form", lambda: model.path_to_json(model.normal_form(ws.paths["pN"]))))
    add(["classify", "pN"], None, (
        "model.classify", lambda: model.classify(ws.paths["pN"]).to_json()))
    add(["coarsen", "pA", "pB"], None, (
        "model.coarsen",
        lambda: model.path_to_json(model.coarsen(ws.paths["pA"], ws.paths["pB"]))))
    add(["factorize", "pF"], None, (
        "model.factorize",
        lambda: [model.path_to_json(f) for f in model.factorize(ws.paths["pF"])]))
    add(["enumerate", "partitions", "w0", "--count-only"], None, (
        "model.enumerate_partitions",
        lambda: len(model.enumerate_partitions(ws.grounds["w0"]))), parse=int)
    add(["enumerate", "paths", seq, "--count-only"], None, (
        "model.enumerate_paths", lambda: len(model.enumerate_paths(s))), parse=int)
    verify_seed = rng.randrange(1000)
    for label in inputs.ALL_KINDS:
        add(["verify-algebra", label, "--samples", str(CLI_SAMPLES), "--seed", str(verify_seed)],
            None, ("algebra.verify_axioms",
                   lambda label=label: verify_axioms(
                       make_algebra(AlgebraKind.from_label(label)),
                       samples=CLI_SAMPLES, seed=verify_seed).to_json()),
            workspace=False)
    # expected failures: an unknown name and a malformed document (exit 1), a
    # non-aligning coarsen and a chain junction mismatch (exit 2)
    add(["prob", "missing", "--assignment", "ex"], None, None, expected_code=1)
    add(["classify", "pN"], None, None, expected_code=1, path=bad_path)
    add(["coarsen", "pX", "pY"], None, None, expected_code=2)
    add(["chain", "pN", "pA"], None, None, expected_code=2)
    rng.shuffle(ops)
    # the largest child: the operation whose median peak RSS is highest
    return Workload(ops, peak_rss_kb=lambda: max(statistics.median(r) for r in rss_kb if r),
                    info={"text": text, "workdir": workdir, "env": env})


SETUP = {"amplitudes": amplitudes, "sum_rules": sum_rules,
         "path_algebra": path_algebra, "cli": cli}
