"""Probability engine: evaluation, validation, Markov, insertion, sampling."""

import functools
import math
import operator
import random
import time
from decimal import Decimal
from fractions import Fraction

import numpy
import pytest

from compalg import engine, model
from compalg.algebra import AlgebraKind, make_algebra
from compalg.engine import (
    MAX_DRAWS,
    Assignment,
    _close,
    amplitude_of,
    check_certain_insertion,
    check_markov,
    probability_of,
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
    random_row_normalized,
)
from oracle import mul_by_table, path_probabilities, quadratic_form_by_table, rows_of

C = make_algebra(AlgebraKind.C)
H = make_algebra(AlgebraKind.H)

N = GroundSet("N", ("n1", "n2"))
AN = atomic_measurement(N, "aN")
S1 = GroundSet("S1", ("s",))
AS = atomic_measurement(S1, "aS")


def c_assignment(rows, g_from=N, g_to=G3):
    return Assignment(C, [(g_from, g_to, rows)])


@pytest.fixture
def unit_row_assignment():
    rng = random.Random(11)
    return assignment_for([N, G3], C, rng, normalized=True)


def test_octonions_rejected():
    with pytest.raises(NonAssociativeAlgebra):
        Assignment(make_algebra(AlgebraKind.O), [])


def test_same_ground_matrix_rejected():
    with pytest.raises(ValueError, match="forced identity"):
        Assignment(C, [(G3, G3, [[C.unit()] * 3] * 3)])


def test_identity_forced_between_weakly_equivalent_steps():
    asg = Assignment(C, [])
    assert entry(asg, AM, BM, "m", "m") == C.unit()
    assert entry(asg, AM, BM, "m", "m1") == C.zero()


def test_missing_matrix_detected():
    asg = Assignment(C, [])
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
    expected = mul_by_table(a_m, back_m) + mul_by_table(a_m1, back_m1)
    assert amplitude_of(p, asg) == expected


def test_fully_coarse_bundle_has_unit_amplitude(unit_row_assignment):
    bundle = path([AN, UM, AN], [["n1"], G3.elements, ["n1"]])
    amp = amplitude_of(bundle, unit_row_assignment)
    assert amp == C.unit()


def test_worked_example_probabilities_are_exact():
    asg = Assignment(C, [])
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
    q = quadratic_form_by_table(leg)
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
    report = validate_assignment(sequence([AM, BM, AM]), Assignment(C, []))
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


TRIPLE = "(GroundSet, GroundSet, rows)"


@pytest.mark.parametrize("kind, blocks, error, message", [
    ("C", [(N, G3, [[[1, 0]] * 3] * 3)], ValueError,
     "matrix row count does not match source ground"),
    ("C", [(N, G3, [[[1, 0]] * 4] * 2)], ValueError,
     "matrix column count does not match target ground"),
    ("C", [(N, G3, [[[1, 0]] * 3, [[1, 0]] * 2])], ValueError,
     "matrix column count does not match target ground"),
    ("C", [(N, G3, [[[1, 0]] * 3, [[1, 0], H.unit(), [1, 0]]])], ValueError,
     "matrix entry algebra mismatch"),
    ("C", [(N, G3, [[[1, 0]] * 3, [[1, 0], [1, 0, 0], [1, 0]]])], ValueError,
     "expected 2 coefficients, got 3"),
    ("C", [(G3, G3, [[[1, 0]] * 4] * 2)], ValueError,
     "transitions within one ground set are the forced identity and cannot be assigned"),
    ("O", [(N, G3, [[[1, 0]] * 4] * 2)], NonAssociativeAlgebra,
     "assignments require an associative algebra, got O"),
    ("C", [(N, G3)], ValueError,
     f"each block must be a {TRIPLE} triple, got (GroundSet, GroundSet)"),
    ("C", [N], ValueError, f"each block must be a {TRIPLE} triple, got GroundSet"),
    ("C", [(AN, G3, [[[1, 0]] * 3] * 2)], ValueError,
     f"each block must be a {TRIPLE} triple, got (Measurement, GroundSet, list)"),
    ("C", {(N, G3): [[[1, 0]] * 3] * 2}, ValueError,
     f"blocks must be {TRIPLE} triples, got a mapping"),
    ("R", [(N, G3, [[[1], "1", [1]], [[1]] * 3])], ValueError,
     "matrix entry must be a sequence of reals, got str"),
    ("R", [(N, G3, [[1, 0, 0], [0, 1, 0]])], ValueError,
     "matrix entry must be a sequence of reals, got int"),
    ("C", [(N, G3, [[[1, 0]] * 3, [[1, 0], (1, "0"), [1, 0]]])], ValueError,
     "matrix coefficient must be a real number, got str"),
    ("C", [(N, G3, [[[1, 0], [None, 0], [1, 0]], [[1, 0]] * 3])], ValueError,
     "matrix coefficient must be a real number, got NoneType"),
    ("C", [(N, G3, [[[1, 0], [Decimal(1), 0], [1, 0]], [[1, 0]] * 3])], ValueError,
     "matrix coefficient must be a real number, got Decimal"),
], ids=["extra row", "extra column", "short row", "other algebra", "long entry",
        "same ground", "octonions", "pair", "bare ground", "measurement", "mapping",
        "string entry", "number entry", "string coefficient", "None coefficient",
        "Decimal coefficient"])
def test_assignment_from_rows_rejects_misshaped_matrix(kind, blocks, error, message):
    """Each check names the first fault in the order algebra, block shape,
    ground pair, row count, column count, entries, so a matrix that also
    has the wrong shape still reports the same ground or the octonions.
    An entry is a sequence of real numbers: a string is not read as its
    characters, nor does a string coefficient put the matrix in float mode."""
    with pytest.raises(error) as exc:
        Assignment(make_algebra(AlgebraKind.from_label(kind)), blocks)
    assert str(exc.value) == message


@pytest.mark.parametrize("coefficient", [
    math.inf, -math.inf, math.nan, 10 ** 400, Fraction(10 ** 400, 3), numpy.float64("inf"),
], ids=["inf", "-inf", "nan", "int", "Fraction", "numpy"])
def test_float_mode_coefficient_must_be_finite(coefficient):
    """In float mode every coefficient must be finite as a float: each
    spelling of one that is not raises ValueError where the assignment is
    built, naming the first such entry in the order of the triples, rows
    and columns.  An exact int beyond the float range stays exact."""
    later = [[[0.0, 0], [0, 0], [0, 0]], [[0, math.inf], [0, 0], [0, 0]]]
    rows = [[[0.5, 0], [0, 0], [0, 0]], [[0, 0], [0, coefficient], [0, -math.inf]]]
    with pytest.raises(ValueError, match="^non-finite coefficient in entry n2 -> m1$"):
        Assignment(C, [(N, G3, rows), (G3, N, list(zip(*later)))])
    exact = c_assignment([[[10 ** 400, 0], [0, 0], [0, 0]], [[0, 1], [0, 0], [0, 0]]])
    assert exact.is_exact and rows_of(exact, N, G3)[0]["n1"]["m"] == (10 ** 400, 0)


def test_assignment_accepts_numpy_reals_in_float_mode():
    asg = c_assignment([[[numpy.int64(1), numpy.float64(0.5)], [0, 0], [0, 0]],
                        [[0, 1], [0, 0], [0, 0]]])
    assert not asg.is_exact
    assert total_probability(sequence([AN, AM]), frozenset({"n1"}), asg) == 1.25


def adjoint_report(perturb):
    """validate_assignment over [aN, aM] with both directions of the pair
    stored, the reverse the conjugate transpose plus perturb at (m, n1)."""
    forward = [[C.amplitude([Fraction(1, 2), 0])] * 3] * 2
    backward = [[amp.conj() for amp in column] for column in zip(*forward)]
    backward[0][0] = backward[0][0] + C.amplitude(perturb)  # (m, n1)
    asg = Assignment(C, [(N, G3, forward), (G3, N, backward)])
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
    """An int entry beyond the float range is not finite as a float: a
    float assignment holding one is rejected where it is built, with the
    entry named, not by raising OverflowError.  An int within the range
    whose Q overflows is a float like any other: its row fails with the
    sum of inf."""
    def rows(first):
        return [[[first, 0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]]

    with pytest.raises(ValueError, match="^non-finite coefficient in entry n1 -> m$"):
        c_assignment(rows(10 ** 400))
    report = validate_assignment(sequence([AN, AM]), c_assignment(rows(10 ** 300)))
    assert [(e.location, e.passed, e.detail) for e in report.entries
            if e.check == "row_normalization"] \
        == [("steps 0->1 source n1", False, "sum of Q over targets is inf"),
            ("steps 0->1 source n2", True, "")]


def test_validation_sum_rule_names_the_non_finite_entry():
    """An infinity in a float assignment is named where the assignment is
    built, so no sum rule reads one.  The exact twin reports its totals in
    full, as before."""
    rows = [[[10 ** 400, 0], [0, 0], [0, 0]], [[0, 1], [0, 0], [0, 0]]]
    with pytest.raises(ValueError, match="^non-finite coefficient in entry n1 -> m$"):
        c_assignment([[[c if abs(c) > 10 ** 300 else float(c) for c in entry]
                       for entry in row] for row in rows])
    huge = f"total probability over paths is 1{'0' * 800}"
    sums = [(e.location, e.passed, e.detail)
            for e in validate_assignment(sequence([AN, AM]), c_assignment(rows)).entries
            if e.check == "sum_rule"]
    assert sums == [("source n1", False, huge), ("source n2", True, "")]


def test_total_probability_overflow_and_an_unread_row():
    """A finite entry whose square overflows makes the total from its
    source inf, and from a source whose later boundary reads it (here
    m -> n1 of the derived reverse) nan, where the block products meet inf
    times zero; the sampling mass is inf from both.  The sum rule and the
    sampler read the source's row alone at the first boundary, so a table
    from another source does not depend on the entry."""
    def c_rows(first):
        return c_assignment([[[first, 0.0], [0.0, 0.0], [0.0, 0.0]],
                             [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])

    overflow = c_rows(1e200)
    for steps, source, total in (([AN, AM], "n1", "inf"), ([AN, AM, AN], "n2", "nan")):
        assert repr(total_probability(sequence(steps), frozenset({source}), overflow)) == total
        with pytest.raises(NotADistribution, match=r"^path probabilities sum to inf, not 1$"):
            sample(sequence(steps), frozenset({source}), overflow, 10, 1)
    assert total_probability(sequence([AN, AM]), frozenset({"n2"}), overflow) == 1.0
    tables = [[(p, q.hex()) for p, q in path_probabilities(
        sequence([AN, AM]), frozenset({"n2"}), asg)] for asg in (overflow, c_rows(2.0))]
    assert tables[0] == tables[1] and len(tables[0]) == 3


def test_finite_float_totals_gather_no_rows(monkeypatch):
    """Float totals read the real blocks alone: finite totals, alone and in
    validation, and a total that overflows make no ``_boundary_rows``
    call."""
    calls = []
    boundary_rows = engine._boundary_rows
    monkeypatch.setattr(engine, "_boundary_rows",
                        lambda *args: calls.append(args) or boundary_rows(*args))

    def c_rows(first):
        return c_assignment([[[first, 0.0], [0.0, 0.0], [0.0, 0.0]],
                             [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])

    s, finite = sequence([AN, AM, AN]), c_rows(2.0)
    assert total_probability(s, frozenset({"n1"}), finite) == 20.0
    sums = [e for e in validate_assignment(s, finite).entries if e.check == "sum_rule"]
    assert [(e.location, e.detail) for e in sums] \
        == [("source n1", "total probability over paths is 20.0"),
            ("source n2", "total probability over paths is 5.0")]
    assert math.isnan(total_probability(s, frozenset({"n1"}), c_rows(1e200)))
    assert calls == []


def test_validation_names_the_non_finite_entry_of_the_derived_reverse():
    """A one-way pair's infinity is named in the direction it is stored,
    where the float assignment is built (the derived reverse would read it
    as m2 -> n1); the exact twin of the assignment reports the reverse's
    row sum in full, as before."""
    exact = c_assignment([[[0, 0], [1, 0], [0, -10 ** 400]], [[0, 1], [0, 0], [0, 0]]])
    with pytest.raises(ValueError, match="^non-finite coefficient in entry n1 -> m2$"):
        converted(exact, lambda c: c if abs(c) > 10 ** 300 else float(c))
    rows = [e for e in validate_assignment(sequence([AM, AN]), exact).entries
            if e.check == "row_normalization"]
    assert [(e.location, e.passed, e.detail) for e in rows] \
        == [("steps 0->1 source m", True, ""), ("steps 0->1 source m1", True, ""),
            ("steps 0->1 source m2", False, f"sum of Q over targets is 1{'0' * 800}")]


def test_validation_reports_a_total_beyond_the_digit_limit():
    """A failing exact total too long for str (4,801 digits here, beyond
    Python's 4,300-digit limit) is described by its size, not raised;
    the 1,601-digit row totals still print in full."""
    a, b = GroundSet("A", ("a",)), GroundSet("B", ("b",))
    asg = Assignment(C, [(a, b, [[[10 ** 800, 0]]])])
    steps = [atomic_measurement(g) for g in (a, b, a, b)]
    report = validate_assignment(sequence(steps), asg)
    (total,) = [e for e in report.entries if e.check == "sum_rule"]
    assert not total.passed
    assert total.detail == "total probability over paths is an integer of 4801 digits"
    rows = [e for e in report.entries if e.check == "row_normalization"]
    assert len(rows) == 3 and all(
        e.detail == f"sum of Q over targets is 1{'0' * 1600}" for e in rows)


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
    stage = [(N, W, [[[0, 1]], [[0, 1]]]),
             (W, G3, [[[Fraction(3, 5), 0], [0, Fraction(4, 5)], [0, 0]]])]
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
    assert quadratic_form_by_table(amp_grown) == quadratic_form_by_table(amp_direct)


def test_certain_insertion_identity_keeps_amplitude():
    asg = Assignment(C, [])
    p = path([AM, BM, AM], [["m1"], ["m", "m1"], ["m1"]])
    grown_asg = Assignment(C, [])
    assert check_certain_insertion(p, 1, UM, asg, grown_asg)
    from compalg.model import insert_measurement
    grown = insert_measurement(p, 1, UM, G3.elements)
    assert amplitude_of(grown, grown_asg) == amplitude_of(p, asg)


def test_certain_insertion_detects_unnormalized_extension():
    rows = [[[1, 0], [0, 0], [0, 0]], [[0, 1], [0, 0], [0, 0]]]
    asg = c_assignment(rows)
    W = GroundSet("W2", ("w",))
    AW = fully_coarse_measurement(W, "aW2")
    stage = [(N, W, [[[2, 0]], [[1, 0]]]),
             (W, G3, [[[1, 0], [0, 0], [0, 0]]])]
    asg_ext = Assignment(C, stage)
    p = path([AN, AM], [["n1"], ["m"]])
    for convert in (Fraction, float):
        assert not check_certain_insertion(p, 1, AW, converted(asg, convert),
                                           converted(asg_ext, convert))


# -- sampling -------------------------------------------------------------------------

def fair_coin_assignment():
    r = 1 / math.sqrt(2)
    return Assignment(C, [(S1, N, [[[r, 0.0], [0.0, r]]])])


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
    asg = Assignment(C, [])
    s = sequence([AM, AM])
    table = sample(s, frozenset({"m"}), asg, 1000, seed=1)
    winners = [p for p, c in table.items() if c > 0]
    assert len(winners) == 1
    assert table[winners[0]] == 1000


def test_sample_rejects_non_distribution():
    split = make_algebra(AlgebraKind.SPLIT_C)
    rows = [[[Fraction(5, 4), Fraction(3, 4)], [Fraction(1), Fraction(1)]]]
    asg = Assignment(split, [(S1, N, rows)])
    # Q over the row: (25-9)/16 = 1 and 0: sums to 1, all nonnegative: fine
    table = sample(sequence([AS, AN]), frozenset({"s"}), asg, 10, seed=0)
    assert sum(table.values()) == 10
    bad_rows = [[[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]]
    bad = Assignment(split, [(S1, N, bad_rows)])
    with pytest.raises(NotADistribution):
        sample(sequence([AS, AN]), frozenset({"s"}), bad, 10, seed=0)


def test_sample_mass_is_added_left_to_right():
    """The mass adds the probabilities left to right, as ``algebra.summed``
    adds, so the digits of the message are the same on every Python
    version: from 3.12 on the built-in ``sum`` compensates float rounding.
    Here the order counts, as the correctly rounded sum differs."""
    rows = [[[0.7, 0.7], [0.1, 0.5], [0.9, 0.8]], [[0.7, 0.5], [0.8, 0.6], [0.4, 0.9]]]
    s, source = sequence([AN, AM, AN]), frozenset({"n1"})
    asg = c_assignment(rows)
    probabilities = [q for _, q in path_probabilities(s, source, asg)]
    assert functools.reduce(operator.add, probabilities, 0) == 5.522200000000001
    assert math.fsum(probabilities) == 5.5222
    with pytest.raises(NotADistribution) as exc:
        sample(s, source, asg, 10, 1)
    assert str(exc.value) == "path probabilities sum to 5.522200000000001, not 1"


def test_random_row_normalized_properties():
    rows = random_row_normalized(AlgebraKind.C, (2, 2), seed=7)
    for row in rows:
        assert abs(sum(quadratic_form_by_table(a) for a in row) - 1.0) < 1e-12
    single = random_row_normalized(AlgebraKind.R, (1, 1), seed=3)
    assert abs(abs(single[0][0].coeffs[0]) - 1.0) < 1e-12
    rows = random_row_normalized(AlgebraKind.H, (3, 3), seed=9)
    for row in rows:
        assert abs(sum(quadratic_form_by_table(a) for a in row) - 1.0) < 1e-12
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
