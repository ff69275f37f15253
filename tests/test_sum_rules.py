"""Sum rules by the pair-thread transfer, and the batched table of path
probabilities under sampling, against path enumeration."""

import itertools
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest

from compalg import engine, model
from compalg.algebra import AlgebraKind, make_algebra
from compalg.cli import main
from compalg.engine import (
    FLOAT_RTOL,
    MAX_DRAWS,
    Assignment,
    _close,
    _outcome,
    _source_totals,
    amplitude_of,
    name_non_finite_entry,
    path_probabilities,
    probability_of,
    sample,
    sample_rows,
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
    total_by_full_state,
    validation_by_sum_rules,
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


def dyadic_cases(seed: int, per_kind: int):
    """(exact assignment, sequence, source) as ``cases`` gives them, with
    every coefficient a random quarter in [-1, 1]: over such entries every
    float product and sum of the evaluators here is exact."""
    rng = random.Random(seed)
    for kind in ASSOCIATIVE:
        algebra = make_algebra(kind)
        for _ in range(per_kind):
            asg = Assignment(algebra, [
                (g_from, g_to, [[[Fraction(rng.randint(-4, 4), 4) for _ in range(algebra.dim)]
                                 for _ in g_to.elements] for _ in g_from.elements])
                for g_from, g_to in itertools.combinations(MIX_GROUNDS, 2)])
            s = random_sequence(rng)
            for source in sorted(s.steps[0].blocks, key=sorted):
                yield asg, s, source


def test_float_mode_is_exact_on_dyadic_entries():
    """With dyadic entries the float sum rule and table do no rounding, so
    each float total and table entry is float of the exact one, bit for bit:
    this pins the source's row, the start from the last run and the norm
    form of the split kinds in the block recursion, single runs included."""
    totals = single_runs = 0
    for asg, s, source in dyadic_cases(11, 20):
        floats = converted(asg, float)
        total, want = total_probability(s, source, floats), total_probability(s, source, asg)
        assert float(total).hex() == float(want).hex(), (s, source)
        for (p, got), (_, q) in zip(path_probabilities(s, source, floats),
                                    path_probabilities(s, source, asg)):
            assert float(got).hex() == float(q).hex(), p
        totals += 1
        single_runs += len(runs(s)) == 1
    assert totals > 150 and single_runs > 25


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
    the algebra's kernel.  Exact mode meets it when the Born matrix of the
    last run boundary takes a * conj(a) of its first entry, u -> a = i/3:
    the message shows that square at its true value, 1/9 with the skew's
    1/9 on e_1, over the pair's denominator 3, not as the lowered ints.
    Float mode multiplies real block matrices of left multiplication built
    from that kernel, with conjugation as the adjoint under the norm form;
    the skewed product is not associative and that identity fails for it,
    so its total differs from the exact recursion's.  The float tolerance
    recursion over entry norms is left as it is.  The blocks that the
    assignment keeps are built again for the kernel swapped in, and for the
    one restored after it.  Row normalization takes each pair's Born
    matrix in both modes, so its rows fail there, in float mode with the
    float scalar check of ``algebra.quadratic_form_over``."""
    asg, s, source = non_scalar_case()
    floats = converted(asg, float)
    total = total_probability(s, source, floats)
    monkeypatch.setitem(vars(asg.algebra), "kernel", skewed_kernel(asg.algebra))
    with pytest.raises(NonScalarProduct) as exact:
        total_probability(s, source, asg)
    assert str(exact.value) == "a*conj(a) not scalar: " \
        "Amplitude(C, [Fraction(1, 9), Fraction(1, 9)])"
    with pytest.raises(NonScalarProduct) as numeric:
        total_probability(s, source, floats)
    assert str(numeric.value) == "summed pair products not scalar within " \
        "2.111111111111111e-12: Amplitude(C, [2.111111111111111, 2.111111111111111])"
    (x,) = source
    entries = validate_assignment(s, asg).entries
    (entry,) = [e for e in entries if e.check == "sum_rule" and e.location == f"source {x}"]
    assert not entry.passed and "not scalar" in entry.detail
    # each row normalization is a row sum of a Born matrix through the same kernel
    rows = [e for e in entries if e.check == "row_normalization"]
    assert rows and all(not e.passed and "not scalar" in e.detail for e in rows)
    # in float mode too, through the same Born matrices, with the float scalar check
    rows = [e for e in validate_assignment(s, floats).entries if e.check == "row_normalization"]
    assert rows and all(not e.passed and e.detail.startswith("a*conj(a) not scalar within ")
                        for e in rows)
    a, b = s.plan.grounds[:2]
    with pytest.raises(NonScalarProduct, match=re.escape("a*conj(a) not scalar within ")):
        floats.born_rows(a, b)
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


def test_table_makes_one_array_product_per_run_boundary(monkeypatch):
    """One table makes one call of the kernel's array product per run
    boundary and one more for the Born leaf, and no scalar kernel call, in
    both modes, on sequences with two-detector steps and a fully coarse one
    (three slots summed in one call): no product falls back to
    per-coefficient calls.  Counted through a kernel installed as the swap
    tests install one."""
    rng = random.Random(23)
    algebra = make_algebra(AlgebraKind.H)
    exact = assignment_for([A3, B3, C3], algebra, rng, normalized=False)
    modes = (exact, converted(exact, float))
    kernel, calls = algebra.kernel, []

    def counted(lefts, rights):
        calls.append("kernel")
        return kernel(lefts, rights)

    def counted_columns(lefts, rights):
        calls.append("columns")
        return kernel.columns(lefts, rights)
    counted_columns.gather = kernel.columns.gather
    counted.columns = counted_columns
    monkeypatch.setitem(vars(algebra), "kernel", counted)
    for s in (workload_sequence(rng, 7, 2), workload_sequence(rng, 7, 2, full=True)):
        for asg in modes:
            calls.clear()
            path_probabilities(s, frozenset({"a1"}), asg)
            assert calls.count("columns") == len(runs(s)) and calls.count("kernel") == 0


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


# -- what the table and the float sum rule keep between calls ----------------------------

def bits_of(value):
    """A value as its type and its bits: ``float.hex`` for a float, the
    value itself otherwise, item by item through tuples and lists, an error
    as its type and message."""
    if isinstance(value, (tuple, list)):
        return [bits_of(v) for v in value]
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def outcome(compute):
    """compute(), or the NotADistribution or NonScalarProduct it raises."""
    try:
        return compute()
    except (NotADistribution, NonScalarProduct) as exc:
        return exc


def test_kept_layout_and_blocks_give_the_bits_of_a_fresh_build():
    """A second table, sample and total on one (sequence, source,
    assignment), which read the layout kept with the sequence and the
    blocks kept in the assignment, equal the first, and so do those of a
    fresh copy of the sequence and of the assignment, which build their
    own: bit for bit (``float.hex``) and in type, exact and float, over
    the five kinds, on a sequence with two-detector steps and one with a
    fully coarse step."""
    rng = random.Random(41)
    for kind in ASSOCIATIVE:
        seed = rng.randrange(1 << 30)

        def built(convert):
            exact = assignment_for([A3, B3, C3], make_algebra(kind), random.Random(seed),
                                   normalized=False)
            return converted(exact, convert)
        for s in (workload_sequence(rng, 7, 2), workload_sequence(rng, 8, 3, full=True)):
            for convert in (lambda c: c, float):
                asg, fresh_asg = built(convert), built(convert)

                def evaluated(s, asg):
                    return bits_of([
                        path_probabilities(s, frozenset({"a2"}), asg),
                        outcome(lambda: total_probability(s, frozenset({"a2"}), asg)),
                        outcome(lambda: sample_rows(s, frozenset({"a2"}), asg, 1000, 3))])
                first = evaluated(s, asg)
                assert "_layout" in vars(s) and asg._built is not None
                assert evaluated(s, asg) == first
                fresh_s = sequence(s.steps)
                assert "_layout" not in vars(fresh_s) and fresh_asg._built is None
                assert evaluated(fresh_s, fresh_asg) == first, (kind, asg.is_exact)


def test_sources_over_one_sequence_get_their_own_tables():
    """Tables from every source of one sequence, in turn and then again,
    share the sequence's layout and the assignment's blocks: each holds
    its own source's paths, in ``enumerate_paths`` order, each entry
    probability_of bit for bit, and its float total is its own."""
    rng = random.Random(42)
    s = workload_sequence(rng, 7, 3)
    exact = assignment_for([A3, B3, C3], make_algebra(AlgebraKind.H), rng, normalized=False)
    for asg in (exact, converted(exact, float)):
        totals = {}
        for source in [frozenset({x}) for x in ("a3", "a1", "a2")] * 2:
            table = path_probabilities(s, source, asg)
            assert [p for p, _ in table] == [p for p in enumerate_paths(s)
                                             if p.results[0] == source]
            for p, q in table:
                want = probability_of(p, asg).probability
                assert bits_of(q) == bits_of(want), (source, p)
            total = bits_of(total_probability(s, source, asg))
            assert totals.setdefault(source, total) == total
        assert len(set(map(str, totals.values()))) == 3


def test_a_kernel_swapped_in_after_a_first_table_makes_every_product(monkeypatch):
    """After a first table and total, a kernel put in the algebra's place
    makes every product of the next ones: the blocks kept in the assignment
    are built again by it (its ``columns.gather`` for each ground pair the
    table crosses, its kernel for the float sum rule's real blocks), the
    table makes one array product per run boundary and one for the Born
    leaf through it, and the values are the first ones' bits.  A second
    table gathers only its Born leaf."""
    rng = random.Random(43)
    algebra = make_algebra(AlgebraKind.C)
    exact = assignment_for([A3, B3, C3], algebra, rng, normalized=False)
    s, source = workload_sequence(rng, 7, 2), frozenset({"a1"})
    modes = (exact, converted(exact, float))
    first = [bits_of([path_probabilities(s, source, asg), total_probability(s, source, asg)])
             for asg in modes]
    kernel, calls = algebra.kernel, []
    swapped = counted(calls, "kernel", kernel)
    swapped.columns = counted(calls, "columns", kernel.columns)
    swapped.columns.gather = counted(calls, "gather", kernel.columns.gather)
    monkeypatch.setitem(vars(algebra), "kernel", swapped)
    pairs = len(set(zip(s.plan.grounds, s.plan.grounds[1:])))
    for asg, want in zip(modes, first):
        calls.clear()
        table = path_probabilities(s, source, asg)
        assert calls.count("columns") == len(runs(s)) and calls.count("gather") == pairs + 1
        calls.clear()
        assert bits_of([table, total_probability(s, source, asg)]) == want
        assert calls.count("kernel") > 0 or asg.is_exact
        calls.clear()
        path_probabilities(s, source, asg)
        assert calls.count("columns") == len(runs(s)) and calls.count("gather") == 1


def test_what_is_kept_does_not_grow_with_the_path_count():
    """Two sequences that differ only in length, 4 and 13 runs, 12 and
    6,144 paths from a source: after a table and a float total on each,
    each keeps one run layout per run, every array of it at most the
    (n + 1)^2 entries of its n-element ground, and the assignment keeps
    one block per ground pair crossed, the same three for both."""
    halves = {g: measurement(f"half{g.id}", g, [g.elements[:2], g.elements[2:]])
              for g in (A3, B3, C3)}
    grounds = [A3, B3, C3]

    def cyclic(length):
        return sequence([atomic_measurement(grounds[j % 3]) if j in (0, length - 1)
                         else halves[grounds[j % 3]] for j in range(length)])
    exact = assignment_for(grounds, make_algebra(AlgebraKind.C), random.Random(44),
                           normalized=False)
    asg, source = converted(exact, float), frozenset({"a1"})
    kept = set()
    for length, paths in ((4, 12), (13, 3 * 2 ** 11)):
        s = cyclic(length)
        assert math.prod(len(m.blocks) for m in s.steps[1:]) == paths
        assert len(path_probabilities(s, source, asg)) == paths
        total_probability(s, source, asg)
        layout = vars(s)["_layout"]
        assert len(layout) == len(runs(s)) == length
        for run in layout:
            arrays = [run.slots, run.index, run.same_class, *(run.padding or ())]
            assert all(array.size <= 4 ** 2 for array in arrays)
        kept.add(frozenset(asg._built[1]))
    (keys,) = kept
    assert sorted(kind for kind, *_ in keys if kind in ("padded", "real")) \
        == ["padded"] * 3 + ["real"] * 3


# -- the exact pair recursion against the full-state oracle -----------------------------

HALVES = [[["b1", "b2"], ["b3"]], [["b1"], ["b2", "b3"]], [["b1", "b3"], ["b2"]]]


def differential_sequences(rng: random.Random):
    """Sequences over A3, B3 and C3 of every shape the exact recursion
    tells apart, each with at most 81 paths from a source: an atomic chain,
    two-detector steps, a fully coarse step, a long run of two-detector
    steps over one ground, and single runs, one of them with a two-detector
    step inside."""
    grounds = [A3, B3, C3]
    yield sequence([atomic_measurement(grounds[j % 3]) for j in range(5)])
    yield workload_sequence(rng, 5, 2)
    yield workload_sequence(rng, 6, 3)
    yield workload_sequence(rng, 6, 2, full=True)
    yield sequence([atomic_measurement(A3)]
                   + [measurement(f"h{j}", B3, HALVES[j % 3]) for j in range(4)]
                   + [atomic_measurement(B3)])
    yield sequence([atomic_measurement(B3), measurement("h", B3, HALVES[0]),
                    atomic_measurement(B3)])
    yield sequence([atomic_measurement(C3), atomic_measurement(C3)])


def test_pair_transfer_equals_the_full_state_oracle():
    """The exact sum rule, which carries a real diagonal and one triangle,
    equals the recursion on the full pair state exactly, for all five kinds,
    unnormalized matrices and every source, and both equal the enumerated
    sum of path probabilities from the first source; so does validation's
    total from every source, all from one recursion.  On a sequence beyond
    the path bound the two recursions are equal too."""
    rng = random.Random(24)
    checked = 0
    for kind in ASSOCIATIVE:
        asg = assignment_for([A3, B3, C3], make_algebra(kind), rng, normalized=False)
        for s in differential_sequences(rng):
            sources = sorted(s.steps[0].blocks, key=sorted)
            for source in sources:
                total = total_probability(s, source, asg)
                assert isinstance(total, (int, Fraction))
                assert total == total_by_full_state(s, source, asg), (kind, s, source)
                if source == sources[0]:
                    assert total == total_by_enumeration(s, source, asg), (kind, s, source)
                checked += 1
            # validation's one recursion from every source at once
            assert _source_totals(s, sorted(s.steps[0].element_set()), asg) \
                == {x: total_by_full_state(s, {x}, asg) for (x,) in sources}, (kind, s)
        s = workload_sequence(rng, 16, 8)
        with pytest.raises(TooManyPaths):
            enumerate_paths(s)
        assert total_probability(s, frozenset({"a1"}), asg) \
            == total_by_full_state(s, frozenset({"a1"}), asg)
    assert checked == 5 * 7 * 3


def test_exact_sum_rule_kernel_calls(monkeypatch):
    """An exact sum rule over atomic steps makes no kernel call once its
    Born matrices are built: each boundary is a product of ints.  Over
    steps split in two halves, at n = 8, it makes fewer kernel calls than
    the full-state recursion, Born matrices included: O(n^3) products per
    boundary, one triangle of each class.  Counted through a kernel
    installed as the swap tests install one."""
    grounds = [GroundSet(g, tuple(f"{g.lower()}{i}" for i in range(8))) for g in "PQR"]
    algebra = make_algebra(AlgebraKind.H)
    kernel, calls = algebra.kernel, []

    def counted(lefts, rights):
        calls.append(1)
        return kernel(lefts, rights)
    counted.columns = kernel.columns
    monkeypatch.setitem(vars(algebra), "kernel", counted)
    def halved(j):
        g = grounds[j % 3]
        return measurement(f"h{j}", g, [g.elements[:4], g.elements[4:]])
    atomic = sequence([atomic_measurement(grounds[j % 3]) for j in range(8)])
    halves = sequence([atomic_measurement(grounds[0])] + [halved(j) for j in range(1, 7)]
                      + [atomic_measurement(grounds[1])])
    source = frozenset({"p0"})
    asg = assignment_for(grounds, algebra, random.Random(25), normalized=False)
    total = total_probability(atomic, source, asg)
    calls.clear()
    assert total_probability(atomic, source, asg) == total
    assert len(calls) == 0
    asg = assignment_for(grounds, algebra, random.Random(25), normalized=False)
    calls.clear()
    total = total_probability(halves, source, asg)
    engine_calls = len(calls)
    calls.clear()
    assert total_by_full_state(halves, source, asg) == total
    assert 0 < engine_calls < len(calls)


# -- validation: one pair recursion for every source, Born row sums for every row -------

def validation_cases(seed: int):
    """Each (assignment, sequence) of ``cases(seed, 20)`` once."""
    last = None
    for asg, s, _ in cases(seed, 20):
        if last is None or last[0] is not asg or last[1] is not s:
            last = (asg, s)
            yield last


def test_validation_equals_whole_sum_rules():
    """validate_assignment against ``validation_by_sum_rules``, which runs
    a whole total_probability per source and per row: in exact mode the
    canonical JSON of the two reports is equal byte for byte.  In float
    mode the checks, locations and verdicts are equal, every sum-rule
    entry is equal with its detail, and each source's total, or its
    error, has total_probability's bits; only a failing row's digits may
    differ, a Born row sum here and a block product in the oracle."""
    reports = 0
    for seed in (5, 6, 7, 8):
        for asg, s in validation_cases(seed):
            report, want = validate_assignment(s, asg), validation_by_sum_rules(s, asg)
            assert json.dumps(report.to_json(), sort_keys=True) \
                == json.dumps(want.to_json(), sort_keys=True), s
            floats = converted(asg, float)
            report, want = validate_assignment(s, floats), validation_by_sum_rules(s, floats)
            assert [(e.check, e.location, e.passed) for e in report.entries] \
                == [(e.check, e.location, e.passed) for e in want.entries], s
            assert [e for e in report.entries if e.check == "sum_rule"] \
                == [e for e in want.entries if e.check == "sum_rule"], s
            sources = sorted(s.steps[0].element_set())
            totals = _source_totals(s, sources, floats)
            for x in sources:
                expected = _outcome(lambda: total_probability(s, frozenset({x}), floats))
                assert bits_of(totals[x]) == bits_of(expected), (s, x)
            reports += 1
    assert reports > 350


def grid_sequence(grounds, halves: bool):
    """Eight steps visiting the grounds cyclically, atomic at both ends;
    each interior step atomic, or split into the two halves of its sorted
    ground."""
    steps = []
    for j in range(8):
        g = grounds[j % len(grounds)]
        if halves and 0 < j < 7:
            elements = sorted(g.elements)
            half = len(elements) // 2
            steps.append(measurement(f"half{j}", g, [elements[:half], elements[half:]]))
        else:
            steps.append(atomic_measurement(g))
    return sequence(steps)


def test_validation_totals_are_the_bits_of_total_probability():
    """Each source's float sum-rule total from validation, one block
    product for every source (``_source_totals``), has the bits of
    total_probability from that source alone: over R, C and H, grounds of
    4, 8 and 16 elements, atomic and halved steps."""
    compared = 0
    for kind in (AlgebraKind.R, AlgebraKind.C, AlgebraKind.H):
        for n in (4, 8, 16):
            grounds = [GroundSet(f"G{i}", tuple(f"g{i}e{k:02d}" for k in range(n)))
                       for i in range(3)]
            floats = converted(assignment_for(grounds, make_algebra(kind),
                                              random.Random(f"{kind.label}{n}"),
                                              normalized=False), float)
            for halves in (False, True):
                s = grid_sequence(grounds, halves)
                sources = sorted(s.steps[0].element_set())
                totals = _source_totals(s, sources, floats)
                for x in sources:
                    alone = _outcome(lambda: total_probability(s, frozenset({x}), floats))
                    assert bits_of(totals[x]) == bits_of(alone), (kind, n, halves, x)
                    compared += 1
    assert compared == 168


def counted(calls, name, function):
    """function, with each call's name appended to calls."""
    def count(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)
    return count


def test_validation_makes_one_pair_recursion_call(monkeypatch):
    """One validate_assignment makes exactly one pair-recursion call for
    all its sources (``_pair_transfer`` in exact mode and on a single run,
    ``_block_transfer`` otherwise) and no total_probability call, on every
    sequence shape of the full-state test, in both modes: its rows are row
    sums of the Born matrices."""
    calls = []
    for name in ("_pair_transfer", "_block_transfer", "total_probability"):
        monkeypatch.setattr(engine, name, counted(calls, name, getattr(engine, name)))
    rng = random.Random(26)
    exact = assignment_for([A3, B3, C3], make_algebra(AlgebraKind.H), rng, normalized=False)
    for s in differential_sequences(rng):
        for asg in (exact, converted(exact, float)):
            calls.clear()
            report = validate_assignment(s, asg)
            assert len([e for e in report.entries if e.check == "sum_rule"]) == 3
            single = asg.is_exact or len(runs(s)) == 1
            assert calls == ["_pair_transfer" if single else "_block_transfer"], (s, asg)


def test_sampling_names_a_non_finite_entry_without_another_evaluator(monkeypatch):
    """A float sample whose mass is not finite names the entry from the
    rows its table read, and runs no sum rule to do so: neither
    total_probability nor ``_block_transfer`` is called."""
    calls = []
    for name in ("total_probability", "_block_transfer"):
        monkeypatch.setattr(engine, name, counted(calls, name, getattr(engine, name)))
    c = make_algebra(AlgebraKind.C)
    rows = [[(math.inf if i == j == 0 else 0.5, 0.25) for j in range(3)] for i in range(3)]
    asg = Assignment(c, [(A3, B3, rows)])
    a, b = atomic_measurement(A3), atomic_measurement(B3)
    for steps, source, entry_named in (([a, b], "a1", "a1 -> b1"), ([b, a, b], "b1", "b1 -> a1"),
                                       ([b, a, b], "b2", "a1 -> b1")):
        with pytest.raises(NotADistribution, match=f"^entry {entry_named} is not finite$"):
            sample_rows(sequence(steps), frozenset({source}), asg, 10, 1)
    assert calls == []


def test_plan_is_built_once_per_sequence(monkeypatch):
    """Repeated totals, samples, tables, walks and validation on one
    sequence, in both modes, build its plan once: ``model.runs`` is called
    once and ``_same_block_classes`` once per run, and neither again.  The
    walk of one path builds the frame alone, the runs and their grounds,
    so a path over a fresh sequence pays for no classes."""
    calls = []
    for name in ("runs", "_same_block_classes"):
        monkeypatch.setattr(model, name, counted(calls, name, getattr(model, name)))
    a, b = atomic_measurement(A3), atomic_measurement(B3)
    half = measurement("halfB", B3, [["b1", "b2"], ["b3"]])
    s = sequence([a, half, b, a, b])
    exact = exact_unitary_c()
    probability_of(enumerate_paths(s)[0], exact)
    assert calls == ["runs"] and "plan" not in vars(s)
    for _ in range(2):
        for asg in (exact, converted(exact, float)):
            assert _close(total_probability(s, frozenset({"a1"}), asg), 1)
            assert sum(sample(s, frozenset({"a2"}), asg, 100, seed=1).values()) == 100
            for p, q in path_probabilities(s, frozenset({"a3"}), asg):
                assert probability_of(p, asg).probability == q
                assert name_non_finite_entry(p, asg) is None
            assert validate_assignment(s, asg).ok
    assert calls == ["runs"] + ["_same_block_classes"] * 4


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


def test_adjoint_consistency_is_compared_once_per_ground_pair(monkeypatch):
    """A sequence that crosses a ground pair stored both ways five times,
    in both directions, compares the two directions once: the verdict is
    kept per unordered ground pair in the assignment, and a second
    validation compares nothing.  Every crossing still reports its own
    entry, with that verdict, consistent or not, and the report is that of
    validation without the kept verdict (``validation_by_sum_rules``)."""
    calls = []
    monkeypatch.setattr(engine, "_adjoint_consistent",
                        counted(calls, "compare", engine._adjoint_consistent))
    rng = random.Random(14)
    a, b = MIX_GROUNDS[1:]
    s = sequence([atomic_measurement(a), atomic_measurement(b)] * 3)
    algebra = make_algebra(AlgebraKind.H)
    one_way = assignment_for(MIX_GROUNDS[1:], algebra, rng, normalized=False)
    forward = [[entry(one_way, a, b, x, y) for y in b.elements] for x in a.elements]
    for reverse, consistent in ((lambda e: e.conj(), True), (lambda e: e, False)):
        both = Assignment(algebra, [(a, b, forward), (b, a, [
            [reverse(e) for e in column] for column in zip(*forward)])])
        for asg in (both, converted(both, float)):
            calls.clear()
            report = validate_assignment(s, asg)
            checks = [e for e in report.entries if e.check == "adjoint_consistency"]
            assert [e.location for e in checks] == [f"steps {j}->{j + 1}" for j in range(5)]
            assert all(e.passed is consistent for e in checks)
            assert calls == ["compare"]
            assert json.dumps(report.to_json()) == json.dumps(validate_assignment(s, asg).to_json())
            assert calls == ["compare"]
            assert report.to_json() == validation_by_sum_rules(s, asg).to_json()


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


NEGATIVE_DSL = """\
elements N = {n1, n2}
measurement aN over N = {{n1}, {n2}}
elements M = {m1, m2}
measurement aM over M = {{m1}, {m2}}
sequence two = [aN, aM]
assignment amp over two algebra C' from "amp.json"
"""


def test_exact_sample_rejects_a_tiny_negative_probability(tmp_path, capsys):
    """In C' a j-entry of 1/10**7 gives the path to m2 probability
    -1/10**14, while the mass, 1 - 1/10**14, is within DISTRIBUTION_TOL:
    an exact probability is compared with 0 exactly, not as a float."""
    (tmp_path / "amp.dsl").write_text(NEGATIVE_DSL)
    (tmp_path / "amp.json").write_text(
        '{"steps": [{"from": "aN", "to": "aM", "matrix": '
        '[[[1, 0], [0, "1/10000000"]], [[0, "1/10000000"], [1, 0]]]}]}')
    argv = ["-w", str(tmp_path / "amp.dsl"), "sample", "two", "--assignment", "amp",
            "--source", "{n1}", "-n", "10", "--seed", "1"]
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", "validation error: negative probability -1/100000000000000 for Path([{n1},{m2}])\n")
