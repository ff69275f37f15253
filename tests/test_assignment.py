"""The assignment's one representation: each matrix stored as rows, each
ground pair lowered on first use to columns (the conjugate transpose of a
one-way pair built from the stored rows), read back as rows here through
``oracle.rows_of``, and the run-by-run walker that evaluates paths over
them."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from compalg.algebra import AlgebraKind, make_algebra
from compalg.engine import Assignment, amplitude_of
from compalg.errors import SequenceMismatch
from compalg.model import (
    GroundSet,
    Path,
    atomic_measurement,
    path,
    sequence,
)

from conftest import (
    MIX_GROUNDS,
    amplitude_by_enumeration,
    assignment_for,
    entry,
    fully_coarse_measurement,
)
from oracle import rows_of

ASSOCIATIVE = [AlgebraKind.R, AlgebraKind.C, AlgebraKind.SPLIT_C,
               AlgebraKind.H, AlgebraKind.SPLIT_H]
C = make_algebra(AlgebraKind.C)
X = GroundSet("X", ("x1", "x2"))
Y = GroundSet("Y", ("y",))


def unit_rows(g_from, g_to, algebra=C):
    return [[algebra.unit() for _ in g_to.elements] for _ in g_from.elements]


@pytest.mark.parametrize("kind", ASSOCIATIVE, ids=lambda k: k.label)
def test_reverse_is_the_conjugate_transpose_of_the_stored_matrix(kind):
    algebra = make_algebra(kind)
    asg = assignment_for(MIX_GROUNDS, algebra, random.Random(3), normalized=False)
    for a, b in itertools.combinations(MIX_GROUNDS, 2):
        forward = asg.stored(a, b)
        assert asg.stored(b, a) is None
        rows, den = rows_of(asg, b, a)
        for x in a.elements:
            for y in b.elements:
                assert entry(asg, a, b, x, y) == forward[(x, y)]
                assert entry(asg, b, a, y, x) == forward[(x, y)].conj()
                assert tuple(Fraction(c, den) for c in rows[y][x]) \
                    == forward[(x, y)].conj().coeffs


def test_transpose_is_built_once_and_kept():
    asg = Assignment(C, [(X, Y, unit_rows(X, Y))])
    assert asg.pair(Y, X) is asg.pair(Y, X)
    assert asg.pair(X, Y) is asg.pair(X, Y)


def test_pair_stored_both_ways_returns_the_stored_reverse():
    # the reverse is deliberately not the conjugate transpose of the forward
    forward = [[C.amplitude([0, 1])], [C.amplitude([2, 0])]]
    backward = [[C.amplitude([5, 7]), C.amplitude([-3, 1])]]
    asg = Assignment(C, [(X, Y, forward), (Y, X, backward)])
    assert rows_of(asg, Y, X) == ({"y": {"x1": (5, 7), "x2": (-3, 1)}}, 1)
    assert entry(asg, Y, X, "y", "x2") == C.amplitude([-3, 1])
    assert entry(asg, X, Y, "x1", "y") == C.amplitude([0, 1])


def test_missing_pair_raises_sequence_mismatch():
    asg = Assignment(C, [(X, Y, unit_rows(X, Y))])
    with pytest.raises(SequenceMismatch, match="no matrix"):
        asg.pair(X, MIX_GROUNDS[2])
    with pytest.raises(SequenceMismatch, match="no matrix"):
        entry(asg, MIX_GROUNDS[2], X, "x", "x1")


def test_missing_pair_raises_also_for_an_impossible_path():
    ax, ay, az = (atomic_measurement(g) for g in (X, Y, MIX_GROUNDS[2]))
    asg = Assignment(C, [(X, Y, unit_rows(X, Y))])
    # run 1 over X dies out ({x1} then {x2}); the Y -> Z matrix is still missing
    dead = path([ay, ax, ax, az], [["y"], ["x1"], ["x2"], ["x"]])
    with pytest.raises(SequenceMismatch, match="no matrix"):
        amplitude_of(dead, asg)
    assert amplitude_of(path([ax, ax, ay], [["x1"], ["x2"], ["y"]]), asg).is_zero()


def test_second_matrix_for_one_ordered_ground_pair_rejected():
    # two ground sets over the same elements are one ground pair
    y_again = GroundSet("Y2", ("y",))
    with pytest.raises(ValueError, match="second matrix"):
        Assignment(C, [(X, Y, unit_rows(X, Y)), (X, y_again, unit_rows(X, Y))])
    with pytest.raises(ValueError, match="second matrix"):
        Assignment(C, [(X, Y, unit_rows(X, Y)), (X, Y, unit_rows(X, Y))])
    # the two directions of one pair are two ordered pairs
    assert len(Assignment(
        C, [(X, Y, unit_rows(X, Y)), (Y, X, unit_rows(Y, X))]).pairs()) == 2


def test_long_alternating_path_matches_enumeration():
    """L = 4096 runs of one step each: the walker keeps no recursion, and
    two fully coarse steps give nine threads for the oracle to list."""
    rng = random.Random(5)
    g2, g3 = MIX_GROUNDS[1], MIX_GROUNDS[2]
    rows = [[C.amplitude([rng.choice([-1, 1]), rng.choice([-1, 1])]) for _ in g3.elements]
            for _ in g2.elements]
    asg = Assignment(C, [(g2, g3, rows)])
    steps, results = [], []
    for j in range(4096):
        g = g2 if j % 2 == 0 else g3
        m = fully_coarse_measurement(g) if j in (1365, 2731) else atomic_measurement(g)
        steps.append(m)
        results.append(rng.choice(sorted(m.blocks, key=sorted)))
    p = Path(sequence(steps), tuple(results))
    started = time.perf_counter()
    amplitude = amplitude_of(p, asg)
    elapsed = time.perf_counter() - started
    assert not amplitude.is_zero()
    assert amplitude == amplitude_by_enumeration(p, asg)
    assert elapsed < 2.0

