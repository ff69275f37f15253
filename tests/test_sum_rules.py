"""Sum rules by the pair-thread transfer, and the batched table of path
probabilities under sampling, against path enumeration."""

import math
import random
import re
import time
from fractions import Fraction

import pytest

from compalg.algebra import AlgebraKind, make_algebra
from compalg.engine import (
    FLOAT_RTOL,
    MAX_DRAWS,
    Assignment,
    _close,
    amplitude_of,
    path_probabilities,
    probability_of,
    sample,
    total_probability,
    validate_assignment,
)
from compalg.errors import NonScalarProduct, NotADistribution, TooManyPaths
from compalg.model import (
    GroundSet,
    Path,
    atomic_measurement,
    enumerate_partitions,
    enumerate_paths,
    is_possible,
    measurement,
    runs,
    sequence,
)

from conftest import MIX_GROUNDS, assignment_for, converted, entry, skewed_kernel
from oracle import (
    mul_by_table,
    probabilities_by_enumeration,
    quadratic_form_by_table,
    total_by_enumeration,
)

ASSOCIATIVE = [AlgebraKind.R, AlgebraKind.C, AlgebraKind.SPLIT_C,
               AlgebraKind.H, AlgebraKind.SPLIT_H]
PARTITIONS = {g: enumerate_partitions(g) for g in MIX_GROUNDS}


def random_sequence(rng: random.Random, max_len: int = 7):
    """Atomic ends, random partitions between; the ground often repeats, so
    runs span several steps and some paths are impossible."""
    length = rng.randint(2, max_len)
    ground = rng.choice(MIX_GROUNDS)
    steps = []
    for j in range(length):
        if j and rng.random() < 0.6:
            ground = rng.choice(MIX_GROUNDS)
        choices = PARTITIONS[ground]
        if j in (0, length - 1):
            choices = [m for m in choices if m.is_atomic]
        steps.append(rng.choice(choices))
    return sequence(steps)


def cases(seed: int, per_kind: int):
    """(assignment, sequence, source) over every associative kind with
    unnormalized matrices, for every source block."""
    rng = random.Random(seed)
    for kind in ASSOCIATIVE:
        algebra = make_algebra(kind)
        for _ in range(per_kind):
            asg = assignment_for(MIX_GROUNDS, algebra, rng, normalized=False)
            s = random_sequence(rng)
            for source in sorted(s.steps[0].blocks, key=sorted):
                yield asg, s, source


def test_cases_cover_runs_and_impossible_paths():
    kinds, sources = set(), set()
    multi_step_runs = impossible = boundaries = 0
    for asg, s, source in cases(3, 40):
        kinds.add(asg.algebra.kind)
        sources.add((s, source))
        segments = runs(s)
        boundaries += len(segments) - 1
        multi_step_runs += any(hi > lo for lo, hi in segments)
        impossible += any(not is_possible(p) for p in enumerate_paths(s)
                          if p.results[0] == source)
    assert kinds == set(ASSOCIATIVE)
    assert len(sources) > 250
    assert boundaries > 400 and multi_step_runs > 250 and impossible > 200


def test_total_equals_enumeration_exactly():
    for asg, s, source in cases(3, 40):
        total = total_probability(s, source, asg)
        assert total == total_by_enumeration(s, source, asg), (asg, s, source)
        assert isinstance(total, (int, Fraction))


def test_float_total_within_tolerance():
    for asg, s, source in cases(4, 20):
        fasg = converted(asg, float)
        probs = [q for _, q in probabilities_by_enumeration(s, source, fasg)]
        scale = max(sum(abs(float(q)) for q in probs), 1.0)
        total = total_probability(s, source, fasg)
        assert abs(float(total) - float(sum(probs))) <= FLOAT_RTOL * scale


def test_walk_is_bitwise_probability_of():
    for asg, s, source in cases(5, 20):
        for a in (asg, converted(asg, float)):
            walked = path_probabilities(s, source, a)
            listed = [p for p in enumerate_paths(s) if p.results[0] == source]
            assert [p for p, _ in walked] == listed
            for p, q in walked:
                want = probability_of(p, a).probability
                assert type(q) is type(want)
                if isinstance(want, float):
                    assert q.hex() == want.hex()
                else:
                    assert q == want


def test_table_paths_are_checked_paths():
    """The table builds its paths from the measurements' own blocks without
    Path's check; each equals, and hashes as, the checked Path of its
    results, while a path that a user builds is still checked."""
    asg, s, source = next(cases(5, 1))
    for p, _ in path_probabilities(s, source, asg):
        checked = Path(s, p.results)
        assert p == checked and hash(p) == hash(checked) and repr(p) == repr(checked)
    with pytest.raises(ValueError, match="is not a detector of measurement"):
        Path(s, (frozenset({"nowhere"}),) + p.results[1:])


def non_scalar_case():
    return next(
        (a, s, src) for a, s, src in cases(6, 20)
        if a.algebra.kind is AlgebraKind.C and len(runs(s)) > 1
        and total_by_enumeration(s, src, a) != 0)


def test_non_scalar_sum_is_rejected(monkeypatch):
    """A product that adds e_0's coefficient to e_1's, in both modes through
    the algebra's kernel.  Float mode multiplies real block matrices of left
    multiplication built from that kernel, with conjugation as the adjoint
    under the norm form; the skewed product is not associative and that
    identity fails for it, so its total differs from the exact recursion's.
    The float tolerance recursion over entry norms is left as it is.  The
    blocks that the assignment keeps are built again for the kernel swapped
    in, and for the one restored after it."""
    asg, s, source = non_scalar_case()
    floats = converted(asg, float)
    total = total_probability(s, source, floats)
    monkeypatch.setitem(vars(asg.algebra), "kernel", skewed_kernel(asg.algebra))
    with pytest.raises(NonScalarProduct) as exact:
        total_probability(s, source, asg)
    assert str(exact.value) == "summed pair products not scalar: " \
        "Amplitude(C, [Fraction(10, 9), Fraction(19, 9)])"
    with pytest.raises(NonScalarProduct) as numeric:
        total_probability(s, source, floats)
    assert str(numeric.value) == "summed pair products not scalar within " \
        "2.111111111111111e-12: Amplitude(C, [2.111111111111111, 2.111111111111111])"
    (x,) = source
    entries = validate_assignment(s, asg).entries
    (entry,) = [e for e in entries if e.check == "sum_rule" and e.location == f"source {x}"]
    assert not entry.passed and "not scalar" in entry.detail
    # each row normalization is a two-step sum rule through the same kernel
    rows = [e for e in entries if e.check == "row_normalization"]
    assert rows and all(not e.passed and "not scalar" in e.detail for e in rows)
    monkeypatch.undo()
    assert total_probability(s, source, floats) == total


def test_non_scalar_born_product_is_rejected(monkeypatch):
    """The same kernel makes a * conj(a) of every possible path non-scalar:
    the walker's Born leaf and probability_of raise as quadratic_form does,
    in both modes."""
    asg, s, source = non_scalar_case()
    p = next(p for p, q in path_probabilities(s, source, asg) if q != 0)
    monkeypatch.setitem(vars(asg.algebra), "kernel", skewed_kernel(asg.algebra))
    for a, message in ((asg, "a*conj(a) not scalar: Amplitude(C, ["),
                       (converted(asg, float), "a*conj(a) not scalar within ")):
        with pytest.raises(NonScalarProduct, match=re.escape(message)):
            path_probabilities(s, source, a)
        with pytest.raises(NonScalarProduct, match=re.escape(message)):
            probability_of(p, a)


# -- at the scale of the sum_rules benchmark -------------------------------------------

A3 = GroundSet("A3", ("a1", "a2", "a3"))
B3 = GroundSet("B3", ("b1", "b2", "b3"))
C3 = GroundSet("C3", ("c1", "c2", "c3"))


def workload_sequence(rng: random.Random, length: int, coarse: int, full: bool = False):
    """Three 3-element grounds visited cyclically, atomic steps, and
    ``coarse`` interior steps of two detectors, the first of them fully
    coarse when ``full``."""
    grounds = [A3, B3, C3]
    where = sorted(rng.sample(range(1, length - 1), coarse))
    steps = []
    for j in range(length):
        g = grounds[j % 3]
        if full and j == where[0]:
            steps.append(measurement(f"u{j}", g, [g.elements]))
        elif j in where:
            single = rng.choice(g.elements)
            steps.append(measurement(f"h{j}", g, [[x for x in g.elements if x != single],
                                                  [single]]))
        else:
            steps.append(atomic_measurement(g))
    return sequence(steps)


def test_table_is_probability_of_at_workload_scale(monkeypatch):
    """Six- and seven-step sequences with two-detector steps, and one with
    a fully coarse step (three survivors to sum, so a slot order other than
    the walker's would round differently): every table entry is
    probability_of bit for bit, with its type, in float mode (R, C, H, some
    H paths with a nonzero a*conj(a) tail) and equal in exact mode (all
    five kinds).  Under a product that is not scalar, the table raises the
    error of probability_of on the first possible path."""
    rng = random.Random(21)
    source = frozenset({"a1"})
    h_tails = 0
    for kind in ASSOCIATIVE:
        algebra = make_algebra(kind)
        exact = assignment_for([A3, B3, C3], algebra, rng, normalized=False)
        modes = [exact] + [converted(exact, float)] * kind.is_positive_definite
        sequences = [workload_sequence(rng, 6, 2), workload_sequence(rng, 7, 2),
                     workload_sequence(rng, 7, 2, full=True)]
        for asg in modes:
            for s in sequences:
                table = path_probabilities(s, source, asg)
                assert len(table) == math.prod(len(m.blocks) for m in s.steps[1:])
                for p, q in table:
                    want = probability_of(p, asg).probability
                    assert type(q) is type(want), (kind, p)
                    assert (q.hex() == want.hex()) if isinstance(q, float) else q == want
                    if kind is AlgebraKind.H and not asg.is_exact:
                        a = amplitude_of(p, asg).coeffs
                        h_tails += any(algebra.kernel((a,), (algebra.conj(a),))[1:])
        if kind is AlgebraKind.R:
            continue  # the skewed product leaves R as it is
        monkeypatch.setitem(vars(algebra), "kernel", skewed_kernel(algebra))
        for asg in modes:
            s = sequences[0]
            first = next(p for p in enumerate_paths(s)
                         if p.results[0] == source and is_possible(p))
            with pytest.raises(NonScalarProduct) as want:
                probability_of(first, asg)
            with pytest.raises(NonScalarProduct) as got:
                path_probabilities(s, source, asg)
            assert str(got.value) == str(want.value)
    assert h_tails > 100


def test_table_over_a_long_run_of_two_detector_steps():
    """An atomic A3 step, ten two-detector B3 steps and an atomic B3 step:
    3,072 paths from a1 through one A3 -> B3 matrix, and per path in the
    long run one combination of ten blocks out of 1,024 that keeps an
    element alive.  In both modes every table entry is probability_of, with
    its type, and the table sums to total_probability: exactly in exact
    mode, within FLOAT_RTOL in float mode."""
    halves = [[["b1", "b2"], ["b3"]], [["b1"], ["b2", "b3"]], [["b1", "b3"], ["b2"]]]
    s = sequence([atomic_measurement(A3)]
                 + [measurement(f"h{j}", B3, halves[j % 3]) for j in range(10)]
                 + [atomic_measurement(B3)])
    source = frozenset({"a1"})
    exact = assignment_for([A3, B3], make_algebra(AlgebraKind.C), random.Random(22),
                           normalized=False)
    for asg in (exact, converted(exact, float)):
        table = path_probabilities(s, source, asg)
        assert len(table) == 3072
        for p, q in table:
            want = probability_of(p, asg).probability
            assert type(q) is type(want), p
            assert (q.hex() == want.hex()) if isinstance(q, float) else q == want
        mass, total = sum(q for _, q in table), total_probability(s, source, asg)
        if asg.is_exact:
            assert mass == total
        else:
            assert abs(mass - total) <= FLOAT_RTOL * max(abs(total), 1.0)


def test_table_padding_meets_a_non_finite_entry():
    """An entry beyond the float range lowers to an infinity, and the
    two-detector step pads the {a3} rows: inf times a padded zero is NaN,
    which the table must not carry into the next run.  Every value is
    probability_of's by repr, so an infinity and a NaN are told apart."""
    half = measurement("halfA", A3, [["a1", "a2"], ["a3"]])
    s = sequence([atomic_measurement(A3), atomic_measurement(B3), half,
                  atomic_measurement(B3)])
    shown = set()
    for kind in (AlgebraKind.R, AlgebraKind.C):
        algebra = make_algebra(kind)
        rows = [[(10 ** 400 if i == j == 0 else (i + 2 * j + 1) / 8,)
                 + (0.5,) * (algebra.dim - 1) for j in range(3)] for i in range(3)]
        asg = Assignment(algebra, [(A3, B3, rows)])
        assert not asg.is_exact
        for x in A3.elements:
            for p, q in path_probabilities(s, frozenset({x}), asg):
                assert repr(q) == repr(probability_of(p, asg).probability), (kind, p)
                shown.add(repr(q))
    assert {"inf", "nan"} <= shown


# -- beyond the path bound ------------------------------------------------------------

def exact_unitary_c():
    """diag(phases) . O . diag(phases) with O = [[1,2,2],[2,1,-2],[2,-2,1]] / 3."""
    c = make_algebra(AlgebraKind.C)
    rot = [[1, 2, 2], [2, 1, -2], [2, -2, 1]]
    left = [c.amplitude([Fraction(3, 5), Fraction(4, 5)]),
            c.amplitude([Fraction(5, 13), Fraction(-12, 13)]),
            c.unit()]
    right = [c.amplitude([Fraction(8, 17), Fraction(15, 17)]),
             c.unit(),
             c.amplitude([Fraction(-7, 25), Fraction(24, 25)])]
    rows = [[mul_by_table(mul_by_table(left[i], c.scalar(Fraction(rot[i][j], 3))), right[j])
             for j in range(3)] for i in range(3)]
    return Assignment(c, [(A3, B3, rows)])


def test_total_beyond_path_bound_is_exact():
    asg = exact_unitary_c()
    a, b = atomic_measurement(A3), atomic_measurement(B3)
    half = measurement("halfB", B3, [["b1", "b2"], ["b3"]])
    steps = [a] + [b, half, a] * 10
    steps[-1] = b  # atomic end; 2 * 3^20 paths from each source
    s = sequence(steps)
    with pytest.raises(TooManyPaths):
        enumerate_paths(s)
    with pytest.raises(TooManyPaths):
        sample(s, frozenset({"a1"}), asg, 10, seed=0)
    started = time.perf_counter()
    total = total_probability(s, frozenset({"a1"}), asg)
    elapsed = time.perf_counter() - started
    assert total == 1 and isinstance(total, (int, Fraction))
    assert elapsed < 2.0


def test_validation_passes_for_exactly_unitary_matrices():
    # summing amplitudes over the blocks of halfB, as a per-step check
    # would, gives 185/153, 185/153 and 89/153 here
    asg = exact_unitary_c()
    a, b = atomic_measurement(A3), atomic_measurement(B3)
    half = measurement("halfB", B3, [["b1", "b2"], ["b3"]])
    report = validate_assignment(sequence([a, half, a]), asg)
    assert report.ok, report.failures()
    assert [e.location for e in report.entries if e.check == "sum_rule"] \
        == ["source a1", "source a2", "source a3"]
    # no matrix from B3 on: a failed entry, not an exception
    report = validate_assignment(sequence([a, b, atomic_measurement(MIX_GROUNDS[2])]), asg)
    failed = [e for e in report.failures() if e.check == "sum_rule"]
    assert len(failed) == 3 and all("no matrix" in e.detail for e in failed)


def test_row_normalization_is_the_sum_of_quadratic_forms():
    """Every row_normalization entry agrees with the sum over sorted targets
    of Q of the stored (or conjugated reverse) entry: equal in
    exact mode, the same ``_close`` verdict in float mode."""
    rng = random.Random(12)
    verdicts = set()
    for kind in ASSOCIATIVE:
        for normalized in (True, False):
            exact = assignment_for(MIX_GROUNDS, make_algebra(kind), rng, normalized=normalized)
            for _ in range(6):
                s = random_sequence(rng)
                for asg in (exact, converted(exact, float)):
                    for e in validate_assignment(s, asg).entries:
                        if e.check != "row_normalization":
                            continue
                        j, x = int(e.location.split()[1].split("->")[0]), e.location.split()[-1]
                        a, b = s.steps[j], s.steps[j + 1]
                        want = sum(quadratic_form_by_table(entry(asg, a, b, x, y))
                                   for y in sorted(b.element_set()))
                        assert e.passed == _close(want, 1), (e, want)
                        if asg.is_exact and not e.passed:
                            assert e.detail == f"sum of Q over targets is {want}"
                        verdicts.add((kind, asg.is_exact, e.passed))
    # exact_unit_rows are unit for the positive-definite forms only
    assert verdicts == {(kind, exact, passed) for kind in ASSOCIATIVE for exact in (True, False)
                        for passed in (False, kind.is_positive_definite)}


def test_adjoint_consistency_of_two_stored_directions():
    """With both directions stored, the reverse must be the conjugate
    transpose in value: the plain transpose passes only in R, and a halved
    reverse fails although, lowered over its doubled denominator, it has the
    same integer coefficients."""
    rng = random.Random(13)
    s = sequence([atomic_measurement(MIX_GROUNDS[1]), atomic_measurement(MIX_GROUNDS[2])])
    for kind in ASSOCIATIVE:
        algebra = make_algebra(kind)
        one_way = assignment_for(MIX_GROUNDS[1:], algebra, rng, normalized=False)
        a, b = MIX_GROUNDS[1:]
        forward = [[entry(one_way, a, b, x, y) for y in b.elements] for x in a.elements]
        for reverse, consistent in ((lambda e: e.conj(), True),
                                    (lambda e: e, kind is AlgebraKind.R),
                                    (lambda e: e.conj() * Fraction(1, 2), False)):
            both = Assignment(algebra, [(a, b, forward), (b, a, [
                [reverse(e) for e in column] for column in zip(*forward)])])
            for asg in (both, converted(both, float)):
                (check,) = [e for e in validate_assignment(s, asg).entries
                            if e.check == "adjoint_consistency"]
                assert check.passed is consistent, (kind, asg.is_exact)


# -- sources ---------------------------------------------------------------------------

def test_source_that_is_no_detector_is_rejected():
    asg, s, _ = next(cases(7, 1))
    for bad in (frozenset({"zz"}), frozenset(), frozenset(s.steps[0].ground.elements) | {"zz"}):
        with pytest.raises(NotADistribution, match="no paths start"):
            total_probability(s, bad, asg)
        with pytest.raises(NotADistribution, match="no paths start"):
            sample(s, bad, asg, 10, seed=0)


def test_sample_rejects_negative_draws_and_seeds():
    c = make_algebra(AlgebraKind.C)
    asg = Assignment(c, [])
    s = sequence([atomic_measurement(A3), atomic_measurement(A3)])
    with pytest.raises(ValueError):
        sample(s, frozenset({"a1"}), asg, -5, seed=0)
    with pytest.raises(ValueError, match=re.escape("[0, 2**63)")):
        sample(s, frozenset({"a1"}), asg, MAX_DRAWS, seed=0)
    with pytest.raises(ValueError):
        sample(s, frozenset({"a1"}), asg, 5, seed=-1)
