#!/usr/bin/env python3
"""compalg benchmark: one closed-loop client over a named workload.

Run from the repository root::

    python3 bench/run.py --workload amplitudes --seed 1 --seconds 45 --trace 0

Workloads are ``amplitudes``, ``sum_rules``, ``path_algebra`` and ``cli``
(see ``bench/NOTES.md``).  Inputs come from ``--seed`` alone.  One client
runs the workload's operations back to back, in whole passes over the
operation list, until ``--seconds`` of pass time have passed and at least
``MIN_OPS`` operations in ``MIN_PASSES`` passes were measured.  Each
operation is then taken at its fastest pass.  Every output is checked.
Timing metrics are given at a reference machine speed: scaled by the
fastest time of a fixed probe during the run against ``REFERENCE_PROBE_S``
(see ``end_to_end``); the unscaled values are printed too.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it runs the workload untraced and then traced for half the time each,
runs the per-layer sweeps, prints the per-layer metrics and writes the
spans to ``.bench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The package runs from source (``PYTHONPATH=src``); without ``src/compalg``
in the working directory the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

MIN_OPS = 100
MIN_PASSES = 5
WARMUP_OPS = 3
SETUP_PROBES = 7
REPIN_S = 1.0
#: About the fastest ``probe_seconds()`` seen on a 2-vCPU VM with Python
#: 3.11.7: the machine speed the timing metrics are given at.
REFERENCE_PROBE_S = 0.004
OUT_DIR = ".bench_out"
WORKLOADS = ("amplitudes", "sum_rules", "path_algebra", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process, measured from the
    # parent's clock reading (ns) taken just before the process was started
    parser.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(nproc: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "blas_threads": nproc, "commit": _commit(),
            "package": "PYTHONPATH=src (not installed)", "clients": 1,
            "sample_workers": 1, "cli_processes_at_once": 1,
            "client_cpus": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else "not pinned"}


def _commit() -> str:
    if not os.path.exists(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_time(args) -> float:
    """Seconds from process start until the workload is ready, in a fresh
    process: interpreter start, imports, inputs, Assignments, workspace."""
    t0 = time.time_ns()
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", str(t0)],
        capture_output=True, text=True, check=True, timeout=120)
    return int(out.stdout.split()[-1]) / 1e9


def run_op(op, tracer):
    """(duration in s, ok): a raise counts as a failed operation."""
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            out = op.run(None)
        else:
            with tracer.span(f"bench.{op.name}"):
                out = op.run(tracer)
    except Exception:
        elapsed = (time.perf_counter_ns() - start) / 1e9
        print(f"operation {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, False
    elapsed = (time.perf_counter_ns() - start) / 1e9
    try:
        ok = bool(op.check(out))
    except Exception:
        print(f"check of {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"operation {op.name}: output check failed", file=sys.stderr)
    return elapsed, ok


#: The probe time on each CPU chosen: the machine's speed through the run.
PROBES = []
_PROBE_OPERANDS = [tuple(Fraction(1 + (i * 7 + k * 3) % 5, 1 + (i + k) % 6) for k in range(4))
                   for i in range(32)]


def probe_seconds(repeats: int = 2) -> float:
    """Fastest of ``repeats`` timings of a few ms of exact quaternion
    arithmetic (``oracle``'s product on Fraction tuples, no compalg code)."""
    import oracle  # numpy; imported late, after the launcher has started
    a = _PROBE_OPERANDS
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for i in range(60):
            oracle.cd_mul(a[i % 32], a[i * 7 % 32], (1, 1))
        best = min(best, time.perf_counter() - start)
    return best


def pin_fastest(cpus: list):
    """Pin this process to the allowed CPU on which the probe runs fastest
    just now, and record that time.  On a shared host each vCPU is slowed
    by other tenants in its own stretches of seconds, often by 1.5x while
    another runs at full speed.  ``cpus == [None]``: probe only."""
    timings = []
    for cpu in cpus:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        timings.append((probe_seconds(), cpu))
    best, cpu = min(timings)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpu})
    PROBES.append(best)


def measure(ops, seconds: float, min_ops: int, min_passes: int = 1, tracer=None,
            passes: int = 0, between=None) -> list:
    """Whole passes over ops until the operation and pass counts are reached
    and the pass boundary nearest to ``seconds`` of pass time (or exactly
    ``passes`` passes); each pass is a list of (op, seconds, ok).
    ``between(pass_time)`` runs after each pass, outside the pass time.
    Operations run pinned to the CPU that was least disturbed at most
    ``REPIN_S`` before they start; the choice is made between operations,
    outside their times."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
    done = []
    spent = 0.0
    pinned = -REPIN_S
    try:
        while True:
            if passes:
                if len(done) == passes:
                    break
            elif len(done) >= min_passes and sum(map(len, done)) >= min_ops \
                    and spent + spent / len(done) / 2 >= seconds:
                break
            start = time.perf_counter()
            record = []
            for index, op in enumerate(ops):
                if time.perf_counter() - pinned >= REPIN_S:
                    pin_fastest(cpus)
                    pinned = time.perf_counter()
                if tracer is not None:
                    tracer.op = len(done) * len(ops) + index
                record.append((op,) + run_op(op, tracer))
            spent += time.perf_counter() - start
            done.append(record)
            if between is not None:
                between(spent)
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return done


def best_times(passes: list) -> list:
    """Per operation of the list, its fastest time over the passes: (op, s).
    Other load on a shared machine slows operations in stretches of
    seconds, so the fastest of several time-separated runs of an operation
    is its cost; a mean or median would carry the stretches."""
    return [(records[0][0], min(r[1] for r in records)) for records in zip(*passes)]


def rate(best: list, mode=None) -> float:
    """Operations per second of their best times.  ``mode`` restricts to
    exact or float operations, when the workload has any."""
    chosen = [b for b in best if b[0].mode == mode] if mode else best
    chosen = chosen or best
    return len(chosen) / sum(b[1] for b in chosen)


def percentile(best: list, decile: int) -> float:
    """The decile of the operations' best times, in ms."""
    return statistics.quantiles([b[1] for b in best], n=10)[decile - 1] * 1e3


def end_to_end(passes: list, setups: list, workload, scale: float) -> dict:
    """Times are multiplied and rates divided by ``scale``: the reference
    probe time over the fastest probe time of the run.  Other tenants of a
    shared host slow both vCPUs together by up to 2x for minutes at a time;
    the probe, exact arithmetic like the operations', slows with them, so
    the scaled values of runs minutes apart can be compared."""
    best = best_times(passes)
    return {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "ops_per_s": (rate(best) / scale, "1/s"),
        "latency_p50_ms": (percentile(best, 5) * scale, "ms"),
        "latency_p90_ms": (percentile(best, 9) * scale, "ms"),
        "exact_ops_per_s": (rate(best, "exact") / scale, "1/s"),
        "float_ops_per_s": (rate(best, "float") / scale, "1/s"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MB"),
    }


def per_layer(args, workload, workdir: str, spawn) -> tuple:
    import sweep
    import workloads
    from spans import Tracer

    half = args.seconds / 2
    plain = measure(workload.ops, half, 0)
    tracer = Tracer()
    traced = measure(workload.ops, half, 0, tracer=tracer, passes=len(plain))
    metrics = {f"{layer}.self_share": (share, "share")
               for layer, share in tracer.self_shares().items()}
    # the calls repeated as separate spans are extra work, not tracing cost
    traced_s = sum(r[1] for p in traced for r in p) - tracer.separate_seconds()
    metrics["trace.overhead_ratio"] = (traced_s / sum(r[1] for p in plain for r in p), "ratio")

    sizes = dict(workload.info)
    for name, setup in (("engine.thread_pairs", workloads.amplitudes),
                        ("sum_rules.paths_in_scope", workloads.sum_rules)):
        if name not in sizes:
            sizes.update(setup(args.seed, workdir).info)
        metrics[name] = (sizes[name], "count")

    cli = workload if args.workload == "cli" else \
        workloads.cli(args.seed, os.path.join(workdir, "sweep"), spawn)
    sweep_tracer = Tracer()
    for name, value in sweep.run(sweep_tracer, args.seed, cli).items():
        metrics[name] = (value, sweep.unit(name))

    with open(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "workload_spans": tracer.to_json(),
                   "sweep_spans": sweep_tracer.to_json()}, fh)
    return plain + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "compalg", "__init__.py")):
        print("error: src/compalg not found; run from the repository root", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    src = os.path.abspath("src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    spawner = None
    try:
        if args.setup_probe is None and (args.workload == "cli" or args.trace):
            # started while this process is still small; see launcher.py
            from launcher import Launcher
            spawner = Launcher(dict(os.environ))
        import workloads
        setup = workloads.SETUP[args.workload]
        if args.setup_probe is not None:
            setup(args.seed, workdir)
            print(time.time_ns() - args.setup_probe)
            return 0
        env = environment(nproc)
        if args.workload == "cli":
            workload = setup(args.seed, workdir, spawner.run)
        else:
            workload = setup(args.seed, workdir)
        warm = measure(workload.ops[:WARMUP_OPS], 0, 0, passes=1)
        unscaled = {}
        if args.trace:
            passes, metrics = per_layer(args, workload, workdir, spawner.run)
        else:
            setups = []

            def between(spent):
                # set-ups spread over the run, so their median does not
                # hang on the machine's state in one stretch of seconds
                if len(setups) < SETUP_PROBES and \
                        spent >= len(setups) * args.seconds / SETUP_PROBES:
                    setups.append(setup_time(args))
            passes = measure(workload.ops, args.seconds, MIN_OPS, MIN_PASSES,
                             between=between)
            while len(setups) < SETUP_PROBES:
                setups.append(setup_time(args))
            scale = REFERENCE_PROBE_S / min(PROBES)
            metrics = end_to_end(passes, setups, workload, scale)
            unscaled = end_to_end(passes, setups, workload, 1.0)
    finally:
        if spawner is not None:
            spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(map(len, passes + warm))
    failed = sum(1 for record in passes + warm for r in record if not r[2])
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(workload.ops)} operations, "
          f"{attempted - len(warm[0])} timed samples, {failed} failed")
    print(f"ops_failed_ratio {failed / attempted:.6f} (failed/attempted)")
    print(f"cpu probe: fastest {min(PROBES) * 1e3:.3f} ms, median "
          f"{statistics.median(PROBES) * 1e3:.3f} ms over {len(PROBES)} choices; "
          f"reference {REFERENCE_PROBE_S * 1e3:g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in unscaled.items():
        print(f"unscaled {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
