"""Probability engine: evaluation, validation, Markov, insertion, sampling."""

import math
import random
import time
from fractions import Fraction

import pytest

from compalg import model
from compalg.algebra import AlgebraKind, make_algebra, mul, quadratic_form
from compalg.engine import (
    MAX_DRAWS,
    Assignment,
    _close,
    amplitude_of,
    assignment_from_rows,
    check_certain_insertion,
    check_markov,
    probability_of,
    random_row_normalized,
    sample,
    total_probability,
    validate_assignment,
)
from compalg.errors import (
    NonAssociativeAlgebra,
    NotADistribution,
    SequenceMismatch,
)
from compalg.model import (
    GroundSet,
    atomic_measurement,
    classify,
    enumerate_paths,
    fully_coarse_measurement,
    normal_form,
    path,
    reverse,
    sequence,
)

from conftest import (
    AM, BM, DM, G3, GM, UM,
    amplitude_by_enumeration,
    assignment_for,
    converted,
    entry,
)

C = make_algebra(AlgebraKind.C)
H = make_algebra(AlgebraKind.H)

N = GroundSet("N", ("n1", "n2"))
AN = atomic_measurement(N, "aN")
S1 = GroundSet("S1", ("s",))
AS = atomic_measurement(S1, "aS")


def c_assignment(rows, g_from=N, g_to=G3):
    wrapped = [[C.amplitude(entry) for entry in row] for row in rows]
    return assignment_from_rows(C, [(g_from, g_to, wrapped)])


@pytest.fixture
def unit_row_assignment():
    rng = random.Random(11)
    return assignment_for([N, G3], C, rng, normalized=True)


def test_octonions_rejected():
    with pytest.raises(NonAssociativeAlgebra):
        Assignment(make_algebra(AlgebraKind.O), {})


def test_same_ground_matrix_rejected():
    with pytest.raises(ValueError):
        Assignment(C, {(G3, G3): {}})


def test_identity_forced_between_weakly_equivalent_steps():
    asg = Assignment(C, {})
    assert entry(asg, AM, BM, "m", "m") == C.unit()
    assert entry(asg, AM, BM, "m", "m1") == C.zero()


def test_missing_matrix_detected():
    asg = Assignment(C, {})
    p = path([AN, AM], [["n1"], ["m"]])
    with pytest.raises(SequenceMismatch):
        amplitude_of(p, asg)


def test_two_step_amplitude_is_single_entry():
    asg = c_assignment([
        [[Fraction(3, 5), 0], [0, Fraction(4, 5)], [0, 0]],
        [[Fraction(5, 13), 0], [0, Fraction(12, 13)], [0, 0]],
    ])
    p = path([AN, AM], [["n1"], ["m1"]])
    assert amplitude_of(p, asg) == C.amplitude([0, Fraction(4, 5)])
    assert probability_of(p, asg).probability == Fraction(16, 25)


def test_coarse_result_expands_distributively():
    asg = c_assignment([
        [[Fraction(3, 5), 0], [0, Fraction(4, 5)], [0, 0]],
        [[Fraction(5, 13), 0], [0, Fraction(12, 13)], [0, 0]],
    ])
    p = path([AN, BM, AN], [["n1"], ["m", "m1"], ["n1"]])
    a_m = entry(asg, N, G3, "n1", "m")
    a_m1 = entry(asg, N, G3, "n1", "m1")
    back_m = entry(asg, G3, N, "m", "n1")
    back_m1 = entry(asg, G3, N, "m1", "n1")
    expected = mul(a_m, back_m) + mul(a_m1, back_m1)
    assert amplitude_of(p, asg) == expected


def test_fully_coarse_bundle_has_unit_amplitude(unit_row_assignment):
    bundle = path([AN, UM, AN], [["n1"], G3.elements, ["n1"]])
    amp = amplitude_of(bundle, unit_row_assignment)
    assert amp == C.unit()


def test_worked_example_probabilities_are_exact():
    asg = Assignment(C, {})
    steps = [AM, BM, GM, AM]
    a = path(steps, [["m1"], ["m", "m1"], ["m1", "m2"], ["m1"]])
    b = path(steps, [["m1"], ["m2"], ["m1", "m2"], ["m1"]])
    c = path(steps, [["m1"], ["m", "m1"], ["m"], ["m"]])
    assert probability_of(a, asg).probability == 1
    assert probability_of(b, asg).probability == 0
    assert probability_of(c, asg).probability == 0
    assert amplitude_of(b, asg).is_zero()


def test_symmetric_path_amplitude_is_q_of_leg(unit_row_assignment):
    p = path([AN, AM, AN], [["n1"], ["m2"], ["n1"]])
    leg = entry(unit_row_assignment, N, G3, "n1", "m2")
    q = quadratic_form(leg)
    result = probability_of(p, unit_row_assignment)
    assert result.amplitude == C.scalar(q)
    assert result.probability == q * q


def test_symmetric_paths_have_scalar_amplitudes(unit_row_assignment):
    for mid in (["m"], ["m1"], ["m", "m1"], G3.elements):
        for mid_m in (AM, BM, GM, DM, UM):
            if frozenset(mid) not in mid_m.blocks:
                continue
            p = path([AN, mid_m, AN], [["n1"], mid, ["n1"]])
            assert classify(p).symmetric
            amp = amplitude_of(p, unit_row_assignment)
            assert amp.conj() == amp
            assert all(c == 0 for c in amp.coeffs[1:])


def test_reversal_conjugates_amplitudes(unit_row_assignment):
    p = path([AN, GM, AN, BM, AN],
             [["n1"], ["m1", "m2"], ["n2"], ["m", "m1"], ["n1"]])
    assert amplitude_of(reverse(p), unit_row_assignment) \
        == amplitude_of(p, unit_row_assignment).conj()


def test_amplitude_equals_enumeration_oracle(unit_row_assignment):
    rng = random.Random(5)
    s = sequence([AN, BM, GM, AN])
    for p in enumerate_paths(s):
        assert amplitude_of(p, unit_row_assignment) \
            == amplitude_by_enumeration(p, unit_row_assignment)


def test_normal_form_preserves_amplitude(unit_row_assignment):
    p = path([AN, AM, AM, UM, AN], [["n1"], ["m"], ["m"], G3.elements, ["n2"]])
    assert amplitude_of(p, unit_row_assignment) \
        == amplitude_of(normal_form(p), unit_row_assignment)


def test_probability_scales_quadratically():
    rows = [
        [[Fraction(3, 5), 0], [0, Fraction(4, 5)], [0, 0]],
        [[0, 1], [0, 0], [0, 0]],
    ]
    nu = Fraction(2, 3)
    scaled = [[[nu * c for c in entry] for entry in row] for row in rows]
    p = path([AN, AM], [["n1"], ["m"]])
    base = probability_of(p, c_assignment(rows)).probability
    boosted = probability_of(p, c_assignment(scaled)).probability
    assert boosted == nu * nu * base


# -- validation -----------------------------------------------------------------

def test_validation_passes_for_unit_rows(unit_row_assignment):
    report = validate_assignment(sequence([AN, AM]), unit_row_assignment)
    assert report.ok, report.failures()


def test_validation_identity_pairs_pass():
    report = validate_assignment(sequence([AM, BM, AM]), Assignment(C, {}))
    assert report.ok
    assert any(e.check == "repeatability_identity" for e in report.entries)


def test_validation_float_rows():
    r = 1 / math.sqrt(2)
    asg = c_assignment([[[r, 0.0], [0.0, r], [0.0, 0.0]],
                        [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])
    report = validate_assignment(sequence([AN, AM]), asg)
    assert report.ok


def test_validation_reports_bad_row():
    asg = c_assignment([[[1, 0], [0, 1], [0, 0]],
                        [[0, 1], [0, 0], [0, 0]]])
    report = validate_assignment(sequence([AN, AM]), asg)
    bad = [e for e in report.entries if not e.passed]
    assert bad and any(e.check == "row_normalization" and "n1" in e.location
                       for e in bad)


def test_validation_sum_rule_sensitive_to_coarse_blocks():
    # rows are unit but the coarse detector {m, m1} picks up interference
    asg = c_assignment([
        [[Fraction(3, 5), 0], [Fraction(4, 5), 0], [0, 0]],
        [[0, 1], [0, 0], [0, 0]],
    ])
    report = validate_assignment(sequence([AN, BM, AN]), asg)
    sums = [e for e in report.entries if e.check == "sum_rule"]
    assert any(not e.passed for e in sums)
    rows_entries = [e for e in report.entries
                    if e.check == "row_normalization" and "0->1" in e.location]
    assert all(e.passed for e in rows_entries)


@pytest.mark.parametrize("rows, message", [
    ([[[1, 0]] * 3] * 3, "matrix row count does not match source ground"),
    ([[[1, 0]] * 4] * 2, "matrix column count does not match target ground"),
    ([[[1, 0]] * 3, [[1, 0]] * 2], "matrix column count does not match target ground"),
], ids=["extra row", "extra column", "short row"])
def test_assignment_from_rows_rejects_misshaped_matrix(rows, message):
    with pytest.raises(ValueError) as exc:
        c_assignment(rows)
    assert str(exc.value) == message


def adjoint_report(perturb):
    """validate_assignment over [aN, aM] with both directions of the pair
    stored, the reverse the conjugate transpose plus perturb at (m, n1)."""
    forward = {(x, y): C.amplitude([Fraction(1, 2), 0]) for x in N.elements
               for y in G3.elements}
    backward = {(y, x): amp.conj() for (x, y), amp in forward.items()}
    backward[("m", "n1")] = backward[("m", "n1")] + C.amplitude(perturb)
    asg = Assignment(C, {(N, G3): forward, (G3, N): backward})
    (check,) = [e for e in validate_assignment(sequence([AN, AM]), asg).entries
                if e.check == "adjoint_consistency"]
    return check


def test_validation_adjoint_consistency():
    consistent = adjoint_report([0, 0])
    assert consistent.passed and consistent.detail == ""
    assert consistent.to_json() == {
        "check": "adjoint_consistency", "location": "steps 0->1", "passed": True}
    skewed = adjoint_report([0, 1])
    assert not skewed.passed
    assert skewed.to_json() == {
        "check": "adjoint_consistency", "location": "steps 0->1", "passed": False,
        "detail": "reverse matrix is not the conjugate transpose"}


def test_validation_float_mode_compares_as_floats():
    # a row of rationals in a float assignment is compared within FLOAT_RTOL
    asg = c_assignment([[[1, 0], [0, Fraction(1, 10 ** 6)], [0, 0]],
                        [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])
    rows = [e for e in validate_assignment(sequence([AN, AM]), asg).entries
            if e.check == "row_normalization"]
    assert [e.passed for e in rows] == [True, True]


def test_validation_overflowing_row_fails():
    asg = c_assignment([[[1e200, 0.0], [0.0, 0.0], [0.0, 0.0]],
                        [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])
    (bad,) = [e for e in validate_assignment(sequence([AN, AM]), asg).entries
              if e.check == "row_normalization" and not e.passed]
    assert bad.detail == "sum of Q over targets is inf"


def test_validation_int_beyond_the_float_range_fails_in_float_mode():
    """An int entry beyond the float range lowers to an infinity in a float
    assignment; times the unit's zero coefficient it gives nan, and the row
    is reported as failed rather than raising OverflowError."""
    asg = c_assignment([[[10 ** 400, 0], [0.0, 0.0], [0.0, 0.0]],
                        [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])
    report = validate_assignment(sequence([AN, AM]), asg)
    rows = [e for e in report.entries if e.check == "row_normalization"]
    assert [(e.location, e.passed) for e in rows] \
        == [("steps 0->1 source n1", False), ("steps 0->1 source n2", True)]
    assert rows[0].detail == "sum of Q over targets is nan"


def test_close_rule():
    assert _close(Fraction(1, 3), Fraction(1, 3)) and not _close(Fraction(1, 3), 1)
    assert _close(1 / 3, Fraction(1, 3)) and _close(1 + 1e-10, 1)
    assert not _close(1 + 1e-8, 1) and _close(1e6 * (1 + 1e-10), 1e6)
    assert not any(_close(a, b) for a, b in [(math.inf, 1.0), (1.0, -math.inf),
                                              (math.inf, math.inf), (math.nan, 1.0)])


def test_total_probability_two_step(unit_row_assignment):
    total = total_probability(sequence([AN, AM]), frozenset({"n1"}),
                              unit_row_assignment)
    assert total == 1


# -- Markov and certain insertion ---------------------------------------------------

def test_markov_three_factor(unit_row_assignment, monkeypatch):
    p = path([AN, AM, AN, AM, AN],
             [["n1"], ["m"], ["n2"], ["m2"], ["n1"]])
    modes = [converted(unit_row_assignment, convert) for convert in (Fraction, float)]
    for asg, numeric in zip(modes, (False, True)):
        probability = probability_of(p, asg).probability
        assert isinstance(probability, float) is numeric and 0 < probability < 1
        assert check_markov(p, asg)
    # a factorization that repeats the path squares its probability
    monkeypatch.setattr(model, "factorize", lambda p: [p, p])
    assert not any(check_markov(p, asg) for asg in modes)


def test_markov_undecomposable(unit_row_assignment):
    p = path([AN, BM, GM, AN], [["n1"], ["m", "m1"], ["m1", "m2"], ["n2"]])
    assert check_markov(p, unit_row_assignment)


def test_certain_insertion_preserves_probability():
    # direct step n -> m scaled by a phase through the inserted stage:
    # amplitudes differ, probabilities match
    base_rows = [[[Fraction(3, 5), 0], [0, Fraction(4, 5)], [0, 0]],
                 [[0, 1], [0, 0], [0, 0]]]
    asg = c_assignment(base_rows)
    phase_rows = [[[0, Fraction(3, 5)], [Fraction(-4, 5), 0], [0, 0]],
                  [[0, 1], [0, 0], [0, 0]]]
    W = GroundSet("W", ("w",))
    AW = fully_coarse_measurement(W, "aW")
    stage = {
        (N, W): {("n1", "w"): C.amplitude([0, 1]),
                 ("n2", "w"): C.amplitude([0, 1])},
        (W, G3): {("w", "m"): C.amplitude([Fraction(3, 5), 0]).scale(1),
                  ("w", "m1"): C.amplitude([0, Fraction(4, 5)]),
                  ("w", "m2"): C.amplitude([0, 0])},
    }
    # build extended assignment: n -> w is a phase i, w -> m the base row
    asg_ext = Assignment(C, stage)
    p = path([AN, AM], [["n1"], ["m"]])
    for convert in (Fraction, float):
        assert check_certain_insertion(p, 1, AW, converted(asg, convert),
                                       converted(asg_ext, convert))
    amp_direct = amplitude_of(p, asg)
    extended = None
    from compalg.model import insert_measurement
    grown = insert_measurement(p, 1, AW, ["w"])
    amp_grown = amplitude_of(grown, asg_ext)
    assert amp_grown != amp_direct  # phase shifted
    assert quadratic_form(amp_grown) == quadratic_form(amp_direct)


def test_certain_insertion_identity_keeps_amplitude():
    asg = Assignment(C, {})
    p = path([AM, BM, AM], [["m1"], ["m", "m1"], ["m1"]])
    grown_asg = Assignment(C, {})
    assert check_certain_insertion(p, 1, UM, asg, grown_asg)
    from compalg.model import insert_measurement
    grown = insert_measurement(p, 1, UM, G3.elements)
    assert amplitude_of(grown, grown_asg) == amplitude_of(p, asg)


def test_certain_insertion_detects_unnormalized_extension():
    rows = [[[1, 0], [0, 0], [0, 0]], [[0, 1], [0, 0], [0, 0]]]
    asg = c_assignment(rows)
    W = GroundSet("W2", ("w",))
    AW = fully_coarse_measurement(W, "aW2")
    stage = {
        (N, W): {("n1", "w"): C.amplitude([2, 0]),
                 ("n2", "w"): C.amplitude([1, 0])},
        (W, G3): {("w", "m"): C.amplitude([1, 0]),
                  ("w", "m1"): C.amplitude([0, 0]),
                  ("w", "m2"): C.amplitude([0, 0])},
    }
    asg_ext = Assignment(C, stage)
    p = path([AN, AM], [["n1"], ["m"]])
    for convert in (Fraction, float):
        assert not check_certain_insertion(p, 1, AW, converted(asg, convert),
                                           converted(asg_ext, convert))


# -- sampling -------------------------------------------------------------------------

def fair_coin_assignment():
    r = 1 / math.sqrt(2)
    rows = [[[r, 0.0], [0.0, r]]]
    wrapped = [[C.amplitude(entry) for entry in row] for row in rows]
    return assignment_from_rows(C, [(S1, N, wrapped)])


def test_sample_deterministic_one_draw():
    asg = fair_coin_assignment()
    s = sequence([AS, AN])
    n = (1 << 17) + 5
    t1 = sample(s, frozenset({"s"}), asg, n, seed=42)
    assert t1 == sample(s, frozenset({"s"}), asg, n, seed=42)
    # pinned: any change to the draw or its seed [seed, 0] shows here
    assert {min(p.results[1]): c for p, c in t1.items()} == {"n1": 65202, "n2": 65875}


@pytest.mark.parametrize("n", [10 ** 12, MAX_DRAWS - 1])
def test_sample_huge_n_is_one_draw(n):
    """The run time does not grow with n: one multinomial draw over the paths."""
    started = time.perf_counter()
    table = sample(sequence([AS, AN]), frozenset({"s"}), fair_coin_assignment(), n, seed=7)
    assert time.perf_counter() - started < 5.0
    assert sum(table.values()) == n and all(c > n // 3 for c in table.values())


def test_sample_deterministic_experiment():
    asg = Assignment(C, {})
    s = sequence([AM, AM])
    table = sample(s, frozenset({"m"}), asg, 1000, seed=1)
    winners = [p for p, c in table.items() if c > 0]
    assert len(winners) == 1
    assert table[winners[0]] == 1000


def test_sample_rejects_non_distribution():
    split = make_algebra(AlgebraKind.SPLIT_C)
    rows = [[[Fraction(5, 4), Fraction(3, 4)], [Fraction(1), Fraction(1)]]]
    wrapped = [[split.amplitude(entry) for entry in row] for row in rows]
    asg = assignment_from_rows(split, [(S1, N, wrapped)])
    # Q over the row: (25-9)/16 = 1 and 0: sums to 1, all nonnegative: fine
    table = sample(sequence([AS, AN]), frozenset({"s"}), asg, 10, seed=0)
    assert sum(table.values()) == 10
    bad_rows = [[[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]]
    wrapped = [[split.amplitude(entry) for entry in row] for row in bad_rows]
    bad = assignment_from_rows(split, [(S1, N, wrapped)])
    with pytest.raises(NotADistribution):
        sample(sequence([AS, AN]), frozenset({"s"}), bad, 10, seed=0)


def test_random_row_normalized_properties():
    rows = random_row_normalized(AlgebraKind.C, (2, 2), seed=7)
    for row in rows:
        assert abs(sum(quadratic_form(a) for a in row) - 1.0) < 1e-12
    single = random_row_normalized(AlgebraKind.R, (1, 1), seed=3)
    assert abs(abs(single[0][0].coeffs[0]) - 1.0) < 1e-12
    rows = random_row_normalized(AlgebraKind.H, (3, 3), seed=9)
    for row in rows:
        assert abs(sum(quadratic_form(a) for a in row) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        random_row_normalized(AlgebraKind.SPLIT_C, (1, 1), seed=0)


def test_longer_sequence_total_is_reported_not_asserted(unit_row_assignment):
    # interference cross-terms mean the three-step total need not be one;
    # the checker just reports the number
    total = total_probability(sequence([AN, BM, AN]), frozenset({"n1"}),
                              unit_row_assignment)
    assert isinstance(total, (int, Fraction, float))


def test_extended_coarsen_homomorphism(unit_row_assignment):
    from compalg.model import coarsen
    a = path([AN, AM, AM, AN], [["n1"], ["m"], ["m"], ["n1"]])
    b = path([AN, AM, AN], [["n1"], ["m1"], ["n1"]])
    merged = coarsen(a, b)  # aligns after removing the duplicated step
    assert amplitude_of(merged, unit_row_assignment) == \
        amplitude_of(a, unit_row_assignment) + amplitude_of(b, unit_row_assignment)
