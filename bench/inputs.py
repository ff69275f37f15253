"""Seeded input generators.

Everything here is derived from a ``random.Random`` the caller seeds, so
the same seed gives the same inputs.  Matrices are kept twice: as raw
coefficient tuples, which the reference evaluators in ``oracle`` read,
and as the package's ``Assignment``, which the workloads time.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from compalg import model
from compalg.algebra import AlgebraKind, make_algebra
from compalg.engine import assignment_from_rows
from compalg.model import GroundSet, Path

from oracle import GAMMAS, cd_mul, conj, quadratic_form

#: The associative kinds an assignment accepts, by package label.
ASSOCIATIVE = ("R", "C", "C'", "H", "H'")
ALL_KINDS = ASSOCIATIVE + ("O", "O'")
#: Kinds with a positive-definite form, the only ones ``sample`` accepts.
POSITIVE = ("R", "C", "H")
#: Metric-name spelling of each label ("'" is not allowed in names).
NAME = {"R": "R", "C": "C", "C'": "Cs", "H": "H", "H'": "Hs", "O": "O", "O'": "Os"}


def dim(label: str) -> int:
    return 1 << len(GAMMAS[label])


def grounds(tag: str, n: int, count: int) -> list:
    return [GroundSet(f"{tag}{i}", tuple(f"{tag}{i}e{k}" for k in range(n)))
            for i in range(count)]


def partition(elements, nblocks: int, rng) -> list:
    """A random partition into nblocks blocks whose sizes differ by at most
    one, so thread counts depend on the block count, not on luck."""
    items = list(elements)
    rng.shuffle(items)
    return [items[k::nblocks] for k in range(nblocks)]


def cyclic(length: int, count: int, rng) -> list:
    """Ground indices 0, 1, .., count-1, 0, .. from a random start: no two
    neighbours are equal, and the share of transitions read through the
    stored matrix rather than its conjugate transpose is fixed."""
    start = rng.randrange(count)
    return [(start + j) % count for j in range(length)]


def build_path(gs: list, ground_seq: list, block_counts: list, rng,
               dead_at: int = -1) -> Path:
    """A path over the given grounds; steps 0 and L-1 are atomic.

    ``block_counts[j]`` is the number of detectors of interior step j, and
    each result is a largest detector, so the thread counts follow from
    the block counts.  With ``dead_at = j`` the step j+1 repeats the ground
    of step j with a result disjoint from step j's: the path is impossible.
    """
    length = len(ground_seq)
    steps, results = [], []
    for j, g in enumerate(ground_seq):
        ground = gs[g]
        if j in (0, length - 1):
            blocks = [[e] for e in ground.elements]
        elif j == dead_at + 1:
            rest = [e for e in ground.elements if e not in results[-1]]
            blocks = [sorted(results[-1])] + partition(rest, min(len(rest), 2), rng)
        else:
            blocks = partition(ground.elements, block_counts[j], rng)
        steps.append(model.measurement(f"s{j}", ground, blocks))
        choices = blocks[1:] if j == dead_at + 1 else blocks
        largest = max(map(len, choices))
        result = frozenset(rng.choice([b for b in choices if len(b) == largest]))
        results.append(result)
    return Path(model.sequence(steps), tuple(results))


# -- matrices -------------------------------------------------------------------------


def dense_exact(label: str, rows: int, cols: int, rng) -> list:
    """Every coefficient a nonzero rational with denominator up to 6."""
    return [[tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 6))
                   for _ in range(dim(label)))
             for _ in range(cols)] for _ in range(rows)]


def dense_float(label: str, rows: int, cols: int, rng) -> list:
    scale = 1.0 / math.sqrt(cols * dim(label))
    return [[tuple(rng.uniform(-1.0, 1.0) * scale for _ in range(dim(label)))
             for _ in range(cols)] for _ in range(rows)]


def _matmul(a: list, b: list, gammas: tuple) -> list:
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            total = None
            for k, x in enumerate(row):
                term = cd_mul(x, b[k][j], gammas)
                total = term if total is None else tuple(s + t for s, t in zip(total, term))
            out_row.append(total)
        out.append(out_row)
    return out


def householder(label: str, size: int, rng, exact: bool) -> list:
    """I - 2 v v^dagger / Q(v): self-adjoint and its own inverse, so unitary."""
    d, gammas = dim(label), GAMMAS[label]
    while True:
        if exact:
            # fixed magnitudes, random signs: Q(v), and so the denominators,
            # are the same for every seed
            flat = [rng.choice((-1, 1)) * (1 + k % 4) for k in range(size * d)]
            v = [tuple(flat[i * d:(i + 1) * d]) for i in range(size)]
        else:
            v = [tuple(rng.gauss(0.0, 1.0) for _ in range(d)) for _ in range(size)]
        q = sum(quadratic_form(x, label) for x in v)
        if abs(q) > 0.5:
            break
    factor = Fraction(-2, q) if exact else -2.0 / q
    unit = 1 if exact else 1.0
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            entry = tuple(factor * c for c in cd_mul(v[i], conj(v[j]), gammas))
            if i == j:
                entry = (entry[0] + unit,) + entry[1:]
            row.append(entry)
        out.append(row)
    return out


def unitary(label: str, size: int, rng, exact: bool) -> list:
    """A product of two Householder reflections: exactly unitary, and
    redrawn until dense (two equal reflections would give the identity)."""
    while True:
        out = _matmul(householder(label, size, rng, exact),
                      householder(label, size, rng, exact), GAMMAS[label])
        if all(c != 0 for row in out for e in row for c in e):
            return out


def assignment(label: str, gs: list, raw: dict):
    """The package's Assignment for raw matrices keyed by ground-index pairs."""
    alg = make_algebra(AlgebraKind.from_label(label))
    return assignment_from_rows(
        alg, [(gs[a], gs[b], rows) for (a, b), rows in raw.items()])


def all_pairs(count: int) -> list:
    return list(itertools.combinations(range(count), 2))


# -- serialization for the CLI workspace ------------------------------------------------


def coeff_json(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else c.numerator
    return c


def matrix_file(label: str, steps: list) -> str:
    """The matrix JSON format read by ``assignment ... from``."""
    return json.dumps({"algebra": label, "steps": [
        {"from": m_from, "to": m_to,
         "matrix": [[[coeff_json(c) for c in e] for e in row] for row in rows]}
        for m_from, m_to, rows in steps]})
