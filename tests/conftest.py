"""Shared builders: ground sets, partition universes, exact assignments."""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from typing import Optional

import pytest

import compalg
from compalg.algebra import Algebra, AlgebraKind, Amplitude, make_algebra
from compalg.engine import Assignment
from compalg.errors import SequenceMismatch
from compalg.model import (
    GroundSet,
    Measurement,
    Path,
    atomic_measurement,
    enumerate_partitions,
    enumerate_paths,
    measurement,
    sequence,
)

from oracle import mul_by_table


@pytest.fixture(scope="session", autouse=True)
def child_processes_import_this_package():
    """``python -m compalg`` subprocesses import the package under test,
    also from a checkout that is not installed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(compalg.__file__)),
                  prepend=os.pathsep)
        yield


def fully_coarse_measurement(ground: GroundSet, id: Optional[str] = None) -> Measurement:
    """The measurement with one detector, the whole ground."""
    return measurement(id or f"{ground.id}.coarse", ground, [ground.elements])


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
    maker = exact_unit_rows if normalized else random_exact_rows
    return Assignment(algebra, [
        (g_from, g_to, maker(algebra, len(g_from.elements), len(g_to.elements), rng))
        for g_from, g_to in itertools.combinations(grounds, 2)])


def mapped(asg: Assignment, entry_map) -> Assignment:
    """asg with each stored entry E(x, y) from ground a to ground b (element
    sets) replaced by entry_map(a, x, E, b, y), an Amplitude or coefficients."""
    blocks = []
    for a, b in asg.pairs():
        stored = asg.stored(a, b)
        g_from, g_to = (GroundSet("", tuple(sorted(g))) for g in (a, b))
        blocks.append((g_from, g_to, [
            [entry_map(a, x, stored[x, y], b, y) for y in g_to.elements]
            for x in g_from.elements]))
    return Assignment(asg.algebra, blocks)


def converted(asg: Assignment, convert) -> Assignment:
    """asg with every stored coefficient c replaced by convert(c)."""
    return mapped(asg, lambda a, x, e, b, y: tuple(map(convert, e.coeffs)))


def random_row_normalized(kind: AlgebraKind, shape, seed: int) -> tuple:
    """Rows of float amplitudes drawn uniformly from the unit sphere of Q.

    Only positive-definite kinds (R, C, H) have a compact unit sphere to
    draw from.  Each row's quadratic forms sum to one up to float error.
    """
    if not kind.is_positive_definite:
        raise ValueError(f"{kind.label} is not positive definite")
    import numpy as np

    algebra = make_algebra(kind)
    rows, cols = shape
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rows):
        vec = rng.standard_normal(cols * algebra.dim)
        vec = vec / np.linalg.norm(vec)
        out.append(tuple(algebra.amplitude(
            float(v) for v in vec[c * algebra.dim:(c + 1) * algebra.dim]) for c in range(cols)))
    return tuple(out)


# -- independent amplitude oracle ---------------------------------------------------

def _elements(g) -> frozenset:
    return g if isinstance(g, frozenset) else g.element_set()


def entry(asg: Assignment, g_from, g_to, x: str, y: str) -> Amplitude:
    """Transition amplitude x -> y between grounds (ground sets, measurements
    or element sets): the identity within a ground set, else the stored
    entry, else the conjugate of the stored reverse entry."""
    a, b = _elements(g_from), _elements(g_to)
    if a == b:
        return asg.algebra.unit() if x == y else asg.algebra.zero()
    forward = asg.stored(a, b)
    if forward is not None:
        return forward[(x, y)]
    backward = asg.stored(b, a)
    if backward is None:
        raise SequenceMismatch(
            f"assignment has no matrix between grounds {sorted(a)} and {sorted(b)}")
    return backward[(y, x)].conj()


def amplitude_by_enumeration(p: Path, asg: Assignment) -> Amplitude:
    """Literal thread enumeration: one element per weak-equivalence run,
    product of matrix entries left to right (``oracle.mul_by_table``),
    summed over all choices coefficient by coefficient, without the
    algebra's own sum."""
    from compalg.model import runs

    supports = []
    for lo, hi in runs(p):
        alive = p.results[lo]
        for j in range(lo + 1, hi + 1):
            alive = alive & p.results[j]
        supports.append((p.steps[lo].element_set(), sorted(alive)))
    if any(not alive for _, alive in supports):
        return asg.algebra.zero()
    total = asg.algebra.zero().coeffs
    for combo in itertools.product(*(alive for _, alive in supports)):
        term = asg.algebra.unit()
        for i in range(len(combo) - 1):
            term = mul_by_table(term, entry(asg, supports[i][0], supports[i + 1][0],
                                            combo[i], combo[i + 1]))
        total = tuple(t + c for t, c in zip(total, term.coeffs))
    return asg.algebra.amplitude(total)


# -- a broken product ---------------------------------------------------------------

def skewed_kernel(algebra):
    """The product kernel, with e_0's coefficient of every sum of products
    added to e_1's (unchanged in R, which has no e_1), and its array twin
    ``columns``, which does the same to the sums of the kernel's array
    product and gathers its right operands as that product does."""
    kernel = algebra.kernel

    def skewed(lefts, rights):
        out = kernel(lefts, rights)
        return out if len(out) == 1 else (out[0], out[1] + out[0]) + out[2:]

    def skewed_columns(lefts, rights):
        out = kernel.columns(lefts, rights)
        if len(out) > 1:
            out[1] += out[0]
        return out
    skewed_columns.gather = kernel.columns.gather
    skewed.columns = skewed_columns
    return skewed


# -- reports --------------------------------------------------------------------------

def all_passed(report) -> bool:
    """Whether every check of an ``AxiomReport`` passed."""
    return all(c.passed for c in report.checks)
