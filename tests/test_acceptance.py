"""Acceptance suite: one test per criterion, each prints a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time
import pytest

from compalg.algebra import (
    AlgebraKind,
    make_algebra,
    verify_axioms,
)
from compalg.engine import (
    Assignment,
    amplitude_of,
    check_markov,
    probability_of,
)
from compalg.model import (
    GroundSet,
    Measurement,
    Path,
    atomic_measurement,
    chain,
    coarsen,
    enumerate_partitions,
    factorize,
    is_possible,
    normal_form,
    path,
    path_key,
    refine,
    reverse,
    sequence,
)

from conftest import (
    AM, BM, DM, G3, GM, UM,
    MIX_GROUNDS,
    all_passed,
    amplitude_by_enumeration,
    assignment_for,
    entry,
    fully_coarse_measurement,
    random_row_normalized,
    universe_paths,
)
from oracle import (
    all_reduction_terminals,
    minimal_members,
    mul_by_table,
    quadratic_form_by_table,
    result_signature,
    size_of,
)

C = make_algebra(AlgebraKind.C)
ASSOCIATIVE = [AlgebraKind.R, AlgebraKind.C, AlgebraKind.SPLIT_C,
               AlgebraKind.H, AlgebraKind.SPLIT_H]


def report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_algebra_axiom_suite():
    started = time.perf_counter()
    failures = []
    for kind in ASSOCIATIVE:
        rep = verify_axioms(make_algebra(kind), samples=1000, seed=2024)
        if not all_passed(rep):
            failures.append((kind.label,
                             [c.name for c in rep.checks if not c.passed]))
    for kind in (AlgebraKind.O, AlgebraKind.SPLIT_O):
        rep = verify_axioms(make_algebra(kind), samples=1000, seed=2024)
        assoc = rep.check("associativity")
        if assoc.passed or assoc.witness is None:
            failures.append((kind.label, "missing associativity witness"))
        if not rep.check("composition").passed:
            failures.append((kind.label, "composition failed"))
        others = [c for c in rep.checks
                  if c.name != "associativity" and not c.passed]
        if others:
            failures.append((kind.label, [c.name for c in others]))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    report(1, "algebra axiom suite", ok,
           f"failures={failures} elapsed={elapsed:.2f}s (target <10s)")


def test_criterion_2_worked_example_probabilities():
    asg = Assignment(C, [])
    steps = [AM, BM, GM, AM]
    a = path(steps, [["m1"], ["m", "m1"], ["m1", "m2"], ["m1"]])
    b = path(steps, [["m1"], ["m2"], ["m1", "m2"], ["m1"]])
    c = path(steps, [["m1"], ["m", "m1"], ["m"], ["m"]])
    pa = probability_of(a, asg).probability
    pb = probability_of(b, asg).probability
    pc = probability_of(c, asg).probability
    ok = pa == 1 and pb == 0 and pc == 0
    report(2, "worked-example probabilities", ok,
           f"P(A)={pa} P(B)={pb} P(C)={pc} (exact)")


def test_criterion_3_partition_enumeration():
    found = enumerate_partitions(G3)
    expected_blocks = {m.blocks for m in (AM, BM, GM, DM, UM)}
    ok = len(found) == 5 and {m.blocks for m in found} == expected_blocks
    report(3, "partition enumeration", ok,
           f"count={len(found)} block-by-block match={ok}")


def test_criterion_4_symmetric_bundle_normalization():
    n_ground = GroundSet("NB", ("n1", "n2"))
    an = atomic_measurement(n_ground)
    m_ground = GroundSet("MB", ("w1", "w2", "w3"))
    um = fully_coarse_measurement(m_ground)
    worst_row = 0.0
    worst_unit = 0.0
    for kind in (AlgebraKind.C, AlgebraKind.H):
        algebra = make_algebra(kind)
        for seed in range(20):
            rows = random_row_normalized(kind, (2, 3), seed=seed)
            asg = Assignment(algebra, [(n_ground, m_ground, rows)])
            for x in n_ground.elements:
                total = sum(
                    quadratic_form_by_table(entry(asg, n_ground, m_ground, x, y))
                    for y in m_ground.elements)
                worst_row = max(worst_row, abs(total - 1.0))
                bundle = Path(
                    sequence([an, um, an]),
                    (frozenset({x}), frozenset(m_ground.elements), frozenset({x})))
                amp = amplitude_of(bundle, asg)
                deviation = max(
                    abs(c - (1.0 if idx == 0 else 0.0))
                    for idx, c in enumerate(amp.coeffs))
                worst_unit = max(worst_unit, deviation)
    ok = worst_row <= 1e-12 and worst_unit <= 1e-12
    report(4, "symmetric-bundle normalization", ok,
           f"max row deviation={worst_row:.2e}, "
           f"max unit deviation={worst_unit:.2e} (tol 1e-12)")


@pytest.fixture(scope="module")
def exhaustive_universe():
    paths = universe_paths(MIX_GROUNDS, 4)
    rng = random.Random(77)
    asg = assignment_for(MIX_GROUNDS, C, rng, normalized=True)
    return paths, asg


def test_criterion_5_homomorphism_oracle(exhaustive_universe):
    started = time.perf_counter()
    paths, asg = exhaustive_universe
    cache = {}

    def amp(p):
        key = path_key(p)
        if key not in cache:
            cache[key] = amplitude_of(p, asg)
        return cache[key]

    violations = 0

    # reversal is conjugation
    for p in paths:
        if amp(reverse(p)) != amp(p).conj():
            violations += 1

    # coarsening is amplitude addition
    coarsen_checks = 0
    for a in paths:
        for j in range(1, len(a) - 1):
            for blk in a.steps[j].blocks:
                if blk == a.results[j]:
                    continue
                b = Path(a.sequence, a.results[:j] + (blk,) + a.results[j + 1:])
                c = coarsen(a, b)
                coarsen_checks += 1
                if amplitude_of(c, asg) != amp(a) + amp(b):
                    violations += 1

    # chaining is amplitude multiplication (operands up to length 3,
    # which keeps the exhaustive pair family within the runtime target)
    short = [p for p in paths if len(p) <= 3]
    by_source = {}
    for p in short:
        by_source.setdefault((p.steps[0].blocks, p.results[0]), []).append(p)
    chain_checks = 0
    for a in short:
        partners = by_source.get((a.steps[-1].blocks, a.results[-1]), [])
        for b in partners:
            c = chain(a, b)
            chain_checks += 1
            if amplitude_of(c, asg) != mul_by_table(amp(a), amp(b)):
                violations += 1

    # equivalent paths have identical amplitudes
    groups = {}
    for p in paths:
        if is_possible(p):
            groups.setdefault(path_key(normal_form(p)), []).append(p)
    equiv_checks = 0
    for key, members in groups.items():
        amps = {tuple(amp(p).coeffs) for p in members}
        amps.add(tuple(amplitude_of(normal_form(members[0]), asg).coeffs))
        equiv_checks += len(members)
        if len(amps) != 1:
            violations += 1

    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 60.0
    report(5, "homomorphism oracle", ok,
           f"paths={len(paths)} coarsen={coarsen_checks} chain={chain_checks} "
           f"equivalence={equiv_checks} violations={violations} "
           f"elapsed={elapsed:.1f}s (target <60s)")


def test_criterion_6_closure_and_confluence(exhaustive_universe):
    paths, _ = exhaustive_universe
    violations = 0

    # impossibility closure under coarsening
    coarsen_checks = 0
    for a in paths:
        for j in range(1, len(a) - 1):
            for blk in a.steps[j].blocks:
                if blk == a.results[j]:
                    continue
                b = Path(a.sequence, a.results[:j] + (blk,) + a.results[j + 1:])
                c = coarsen(a, b)
                coarsen_checks += 1
                expected = is_possible(a) or is_possible(b)
                if is_possible(c) != expected:
                    violations += 1

    # impossibility closure under refinement
    refine_checks = 0
    for c in paths:
        for j in range(1, len(c) - 1):
            result = c.results[j]
            if len(result) < 2:
                continue
            elements = sorted(result)
            for size in range(1, len(elements)):
                for combo in itertools.combinations(elements, size):
                    part = frozenset(combo)
                    m = c.steps[j]
                    blocks = (m.blocks - {result}) | {part, result - part}
                    fine = Measurement(m.id, m.ground, blocks)
                    b = Path(sequence(c.steps[:j] + (fine,) + c.steps[j + 1:]),
                             c.results[:j] + (part,) + c.results[j + 1:])
                    a = refine(c, b)
                    refine_checks += 1
                    if is_possible(c) and not is_possible(b) \
                            and not is_possible(a):
                        violations += 1
                    if not is_possible(c) and is_possible(a):
                        violations += 1

    # every reduction order reaches one fixed point, and it agrees with the
    # brute-force reachability minimum
    memo = {}
    seen_class = set()
    confluence_checks = 0
    for p in paths:
        if not is_possible(p):
            continue
        terminals = all_reduction_terminals(p, memo=memo)
        confluence_checks += 1
        nf = normal_form(p)
        if len(terminals) != 1 or terminals[0] != nf:
            violations += 1
            continue
        if path_key(p) in seen_class:
            continue
        minima, members = minimal_members(p)
        signatures = {result_signature(q) for q in minima}
        if len(signatures) != 1 \
                or result_signature(nf) not in signatures \
                or size_of(nf) != size_of(minima[0]):
            violations += 1
        for q in members:
            seen_class.add(path_key(q))
            if not is_possible(q):
                violations += 1

    ok = violations == 0
    report(6, "impossibility closure and normal-form confluence", ok,
           f"coarsen={coarsen_checks} refine={refine_checks} "
           f"confluence={confluence_checks} violations={violations}")


def _random_factorizable_case(kind, rng):
    algebra = make_algebra(kind)
    g_a = GroundSet("MKA", ("p", "q"))
    g_b = GroundSet("MKB", ("r", "s", "t"))
    grounds = [g_a, g_b]
    asg = assignment_for(grounds, algebra, rng, normalized=False)
    parts = {g.id: enumerate_partitions(g) for g in grounds}
    length = rng.choice([3, 4, 5])
    atomic_at = rng.randrange(1, length - 1)
    steps = []
    for j in range(length):
        g = rng.choice(grounds)
        if j in (0, length - 1) or j == atomic_at:
            steps.append(atomic_measurement(g))
        else:
            steps.append(rng.choice(parts[g.id]))
    results = tuple(rng.choice(sorted(m.blocks, key=sorted)) for m in steps)
    return Path(sequence(steps), results), asg


def test_criterion_7_markov_and_born():
    rng = random.Random(13)
    markov_checks = 0
    violations = 0
    for kind in ASSOCIATIVE:
        done = 0
        while done < 500:
            p, asg = _random_factorizable_case(kind, rng)
            if len(factorize(p)) < 2:
                continue
            done += 1
            markov_checks += 1
            if not check_markov(p, asg):
                violations += 1
    born_checks = 0
    for _ in range(100):
        kind = rng.choice(ASSOCIATIVE)
        p, asg = _random_factorizable_case(kind, rng)
        born_checks += 1
        result = probability_of(p, asg)
        independent = amplitude_by_enumeration(p, asg)
        product = mul_by_table(independent, independent.conj())
        if result.amplitude != independent:
            violations += 1
        if any(c != 0 for c in product.coeffs[1:]) \
                or result.probability != product.coeffs[0]:
            violations += 1
    ok = violations == 0
    report(7, "Markov and Born consistency", ok,
           f"markov={markov_checks} born={born_checks} violations={violations} "
           "(exact rational mode)")


def test_criterion_8_monte_carlo():
    from compalg.engine import sample

    started = time.perf_counter()
    s1 = GroundSet("MC1", ("s",))
    g2 = GroundSet("MC2", ("u", "v"))
    r = 1.0 / math.sqrt(2.0)
    rows = [[C.amplitude([r, 0.0]), C.amplitude([0.0, r])]]
    asg = Assignment(C, [(s1, g2, rows)])
    seq = sequence([atomic_measurement(s1), atomic_measurement(g2)])
    n = 100_000
    bound = 474
    hits = 0
    for seed in range(100):
        table = sample(seq, frozenset({"s"}), asg, n, seed=seed)
        counts = sorted(table.values())
        if all(abs(c - n // 2) <= bound for c in counts):
            hits += 1
    elapsed = time.perf_counter() - started
    ok = hits >= 99 and elapsed < 5.0
    report(8, "Monte Carlo two-outcome experiment", ok,
           f"seeds within 3-sigma={hits}/100 (need >=99) "
           f"elapsed={elapsed:.2f}s (target <5s)")


def test_criterion_9_cli_golden_outputs():
    here = os.path.dirname(__file__)
    fig = os.path.join(here, "data", "fig.dsl")
    cases = [
        (["verify-algebra", "O"], "verify_O.golden"),
        (["-w", fig, "classify", "cyc"], "classify_cyc.golden"),
        (["-w", fig, "enumerate", "partitions", "G3", "--count-only"],
         "enumerate_partitions_count.golden"),
    ]
    mismatches = []
    for args, golden_name in cases:
        proc = subprocess.run([sys.executable, "-m", "compalg", *args],
                              capture_output=True, text=True)
        with open(os.path.join(here, "golden", golden_name), "r",
                  encoding="utf-8") as fh:
            expected = fh.read()
        if proc.returncode != 0 or proc.stdout != expected:
            mismatches.append(golden_name)
    ok = not mismatches
    report(9, "CLI golden outputs", ok,
           f"byte-identical={3 - len(mismatches)}/3 mismatches={mismatches}")
