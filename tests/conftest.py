"""Shared builders: ground sets, partition universes, exact assignments."""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction

import pytest

import compalg
from compalg.algebra import Algebra, Amplitude, mul
from compalg.engine import Assignment
from compalg.model import (
    GroundSet,
    Path,
    atomic_measurement,
    enumerate_partitions,
    enumerate_paths,
    fully_coarse_measurement,
    measurement,
    sequence,
)


@pytest.fixture(scope="session", autouse=True)
def child_processes_import_this_package():
    """``python -m compalg`` subprocesses import the package under test,
    also from a checkout that is not installed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(compalg.__file__)),
                  prepend=os.pathsep)
        yield


# -- the worked three-element example -------------------------------------------

G3 = GroundSet("G3", ("m", "m1", "m2"))
AM = atomic_measurement(G3, "aM")
BM = measurement("bM", G3, [["m", "m1"], ["m2"]])
GM = measurement("gM", G3, [["m"], ["m1", "m2"]])
DM = measurement("dM", G3, [["m", "m2"], ["m1"]])
UM = fully_coarse_measurement(G3, "uM")
FIVE_PARTITIONS = [AM, BM, GM, DM, UM]


# -- universes -------------------------------------------------------------------

def universe_sequences(grounds, max_len):
    """All sequences with atomic endpoints over partitions of the grounds."""
    partitions = []
    atomics = []
    for g in grounds:
        parts = enumerate_partitions(g)
        partitions.extend(parts)
        atomics.extend(m for m in parts if m.is_atomic)
    out = []
    for length in range(2, max_len + 1):
        interior = length - 2
        for first in atomics:
            for mids in itertools.product(partitions, repeat=interior):
                for last in atomics:
                    out.append(sequence((first,) + mids + (last,)))
    return out


def universe_paths(grounds, max_len):
    out = []
    for s in universe_sequences(grounds, max_len):
        out.extend(enumerate_paths(s))
    return out


@pytest.fixture(scope="session")
def single_ground_universe():
    """All paths over one 3-element ground set, lengths 2..4."""
    return universe_paths([G3], 4)


MIX_G1 = GroundSet("U1", ("u",))
MIX_G2 = GroundSet("U2", ("a", "b"))
MIX_G3 = GroundSet("U3", ("x", "y", "z"))
MIX_GROUNDS = [MIX_G1, MIX_G2, MIX_G3]


@pytest.fixture(scope="session")
def mixed_universe_paths():
    """All paths over sequences mixing grounds of 1..3 elements, lengths 2..4."""
    return universe_paths(MIX_GROUNDS, 4)


# -- exact rational material -------------------------------------------------------

# Integer tuples whose squares sum to a perfect square; padded with zeros,
# permuted, and sign-flipped they give exact unit rows for Q on R, C, H.
_PYTHAGOREAN = {
    1: [(1,)],
    2: [(3, 4), (5, 12), (8, 15), (20, 21), (7, 24), (1, 0)],
    3: [(1, 2, 2), (2, 3, 6), (1, 4, 8), (4, 4, 7), (2, 6, 9)],
    4: [(1, 1, 1, 1), (1, 2, 2, 4), (2, 4, 5, 6), (1, 2, 8, 10), (3, 4, 0, 0)],
}


def exact_unit_vector(total_len: int, rng: random.Random):
    """An exact rational vector of the given length with sum of squares 1."""
    base_len = max(k for k in _PYTHAGOREAN if k <= total_len)
    tup = rng.choice(_PYTHAGOREAN[base_len])
    norm = sum(v * v for v in tup)
    root = int(norm ** 0.5 + 0.5)
    assert root * root == norm
    values = [Fraction(v, root) for v in tup] + [Fraction(0)] * (total_len - base_len)
    rng.shuffle(values)
    return [v if rng.random() < 0.5 else -v for v in values]


def exact_unit_rows(algebra: Algebra, rows: int, cols: int, rng: random.Random):
    """Row-normalized exact matrices: each row's quadratic forms sum to 1."""
    out = []
    for _ in range(rows):
        flat = exact_unit_vector(cols * algebra.dim, rng)
        out.append([algebra.amplitude(flat[c * algebra.dim:(c + 1) * algebra.dim])
                    for c in range(cols)])
    return out


def random_exact_rows(algebra: Algebra, rows: int, cols: int, rng: random.Random):
    """Arbitrary (unnormalized) exact rational matrices."""
    return [
        [algebra.amplitude(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(algebra.dim))
         for _ in range(cols)]
        for _ in range(rows)
    ]


def assignment_for(grounds, algebra: Algebra, rng: random.Random,
                   normalized: bool = True) -> Assignment:
    """One matrix per unordered pair of distinct grounds, forward direction
    stored, reverse derived as the conjugate transpose."""
    matrices = {}
    for g_from, g_to in itertools.combinations(grounds, 2):
        rows = len(g_from.elements)
        cols = len(g_to.elements)
        maker = exact_unit_rows if normalized else random_exact_rows
        entries = maker(algebra, rows, cols, rng)
        table = {}
        for i, x in enumerate(g_from.elements):
            for j, y in enumerate(g_to.elements):
                table[(x, y)] = entries[i][j]
        matrices[(g_from, g_to)] = table
    return Assignment(algebra, matrices)


# -- independent amplitude oracle ---------------------------------------------------

def amplitude_by_enumeration(p: Path, asg: Assignment) -> Amplitude:
    """Literal thread enumeration: one element per weak-equivalence run,
    product of matrix entries left to right, summed over all choices."""
    from compalg.model import runs

    supports = []
    for lo, hi in runs(p):
        alive = p.results[lo]
        for j in range(lo + 1, hi + 1):
            alive = alive & p.results[j]
        supports.append((p.steps[lo].element_set(), sorted(alive)))
    if any(not alive for _, alive in supports):
        return asg.algebra.zero()
    total = asg.algebra.zero()
    for combo in itertools.product(*(alive for _, alive in supports)):
        term = asg.algebra.unit()
        for i in range(len(combo) - 1):
            term = mul(term, asg.entry(supports[i][0], supports[i + 1][0],
                                       combo[i], combo[i + 1]))
        total = total + term
    return total
