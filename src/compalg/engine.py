"""Transition-amplitude assignments, path evaluation, and sampling.

An assignment attaches to every ordered pair of distinct ground sets a
matrix of transition amplitudes between their atomic elements, over one
of the associative algebras (R, C, C', H, H').  Two consecutive
measurements over the same ground set always carry the identity: the
underlying element is preserved, which is what makes repeated
measurements repeatable.  The matrix for the reversed pair is the
conjugate transpose of the forward one unless supplied explicitly.

A path evaluates to the sum over threads: one surviving element per
weak-equivalence run, multiplied through the cross-ground matrices left
to right.  The probability of a path is the quadratic form of its
amplitude; impossible paths evaluate to the zero amplitude directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .algebra import Algebra, AlgebraKind, Amplitude, make_algebra, mul, quadratic_form
from .errors import (
    NonAssociativeAlgebra,
    NotADistribution,
    SequenceMismatch,
)
from . import model
from .model import GroundSet, Measurement, MeasurementSequence, Path

#: Relative tolerance for float-mode probability comparisons.
FLOAT_RTOL = 1e-9

#: Tolerance on the total probability mass required for sampling.
DISTRIBUTION_TOL = 1e-6

#: Number of draws handled per derived-seed chunk; fixed so that sampling
#: results do not depend on how chunks are spread over workers.
SAMPLE_CHUNK = 1 << 16

def _ground_key(g) -> frozenset:
    if isinstance(g, GroundSet):
        return g.element_set()
    if isinstance(g, Measurement):
        return g.element_set()
    return frozenset(g)


class Assignment:
    """Per-ground-pair transition amplitude matrices.

    ``matrices`` maps an ordered pair of ground element-sets to a dict
    from (source element, target element) to an Amplitude.  Same-ground
    transitions are never stored: they are the identity by construction.
    """

    def __init__(self, algebra: Algebra, matrices: Mapping) -> None:
        if not algebra.kind.is_associative:
            raise NonAssociativeAlgebra(
                f"assignments require an associative algebra, got {algebra.kind.label}")
        self.algebra = algebra
        clean: Dict[Tuple[frozenset, frozenset], Dict[Tuple[str, str], Amplitude]] = {}
        for (g_from, g_to), entries in matrices.items():
            key = (_ground_key(g_from), _ground_key(g_to))
            if key[0] == key[1]:
                raise ValueError(
                    "transitions within one ground set are the forced identity "
                    "and cannot be assigned")
            table = {}
            for (x, y), amp in entries.items():
                if amp.algebra != algebra:
                    raise ValueError("matrix entry algebra mismatch")
                table[(x, y)] = amp
            for x in key[0]:
                for y in key[1]:
                    if (x, y) not in table:
                        raise ValueError(f"missing entry for transition {x!r} -> {y!r}")
            clean[key] = table
        self._matrices = clean

    def pairs(self):
        return self._matrices.keys()

    def has_pair(self, g_from, g_to) -> bool:
        a, b = _ground_key(g_from), _ground_key(g_to)
        return a == b or (a, b) in self._matrices or (b, a) in self._matrices

    def stored(self, g_from, g_to) -> Optional[Mapping]:
        return self._matrices.get((_ground_key(g_from), _ground_key(g_to)))

    def entry(self, g_from, g_to, x: str, y: str) -> Amplitude:
        """Transition amplitude x -> y; identity within a ground set,
        conjugate transpose when only the reversed matrix is stored."""
        a, b = _ground_key(g_from), _ground_key(g_to)
        if a == b:
            return self.algebra.unit() if x == y else self.algebra.zero()
        direct = self._matrices.get((a, b))
        if direct is not None:
            return direct[(x, y)]
        reversed_ = self._matrices.get((b, a))
        if reversed_ is not None:
            return reversed_[(y, x)].conj()
        raise SequenceMismatch(
            f"assignment has no matrix between grounds {sorted(a)} and {sorted(b)}")

    def __eq__(self, other):
        return isinstance(other, Assignment) \
            and self.algebra == other.algebra \
            and self._matrices == other._matrices

    def __repr__(self):
        return f"Assignment({self.algebra.kind.label}, {len(self._matrices)} matrices)"


def assignment_from_rows(algebra: Algebra, blocks: Iterable) -> Assignment:
    """Build an assignment from (ground_from, ground_to, rows) triples.

    ``rows[i][j]`` is the amplitude from the i-th element of ground_from
    to the j-th element of ground_to, both in declared element order.
    Entries may be Amplitudes or plain coefficient sequences.
    """
    matrices = {}
    for g_from, g_to, rows in blocks:
        table = {}
        for i, x in enumerate(g_from.elements):
            for j, y in enumerate(g_to.elements):
                entry = rows[i][j]
                if not isinstance(entry, Amplitude):
                    entry = algebra.amplitude(entry)
                table[(x, y)] = entry
        matrices[(g_from, g_to)] = table
    return Assignment(algebra, matrices)


@dataclass(frozen=True)
class ProbabilityResult:
    amplitude: Amplitude
    probability: object

    def to_json(self) -> dict:
        return {
            "amplitude": [coeff_json(c) for c in self.amplitude.coeffs],
            "probability": coeff_json(self.probability),
        }


def coeff_json(value):
    """A coefficient in canonical JSON: floats as is, rationals as int or "p/q"."""
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return int(value)


# -- evaluation ----------------------------------------------------------------

def _thread_supports(p: Path) -> Optional[List[Tuple[frozenset, frozenset]]]:
    """Per-run (ground, surviving elements); None when some run dies out."""
    out = []
    for lo, hi in model.runs(p):
        alive = p.results[lo]
        for j in range(lo + 1, hi + 1):
            alive = alive & p.results[j]
            if not alive:
                return None
        out.append((p.steps[lo].element_set(), alive))
    return out


def _check_coverage(p: Path, asg: Assignment) -> None:
    segments = model.runs(p)
    for (lo1, _), (lo2, _) in zip(segments, segments[1:]):
        if not asg.has_pair(p.steps[lo1], p.steps[lo2]):
            raise SequenceMismatch(
                f"no matrix between grounds of steps {lo1} and {lo2}")


def amplitude_of(p: Path, asg: Assignment) -> Amplitude:
    """Sum over threads of the left-to-right product of step amplitudes.

    A thread picks one surviving element per weak-equivalence run; the
    element is constant across consecutive weakly equivalent steps, so
    coarse results expand distributively and duplicated steps contribute
    the forced identity.  Impossible paths are the zero amplitude.
    """
    _check_coverage(p, asg)
    supports = _thread_supports(p)
    if supports is None:
        return asg.algebra.zero()
    # element iteration is sorted so float-mode sums are byte-stable
    ground0, alive0 = supports[0]
    partial = {x: asg.algebra.unit() for x in sorted(alive0)}
    prev_ground = ground0
    for ground, alive in supports[1:]:
        nxt = {}
        for y in sorted(alive):
            total = asg.algebra.zero()
            for x, acc in partial.items():
                total = total + mul(acc, asg.entry(prev_ground, ground, x, y))
            nxt[y] = total
        partial = nxt
        prev_ground = ground
    total = asg.algebra.zero()
    for acc in partial.values():
        total = total + acc
    return total


def probability_of(p: Path, asg: Assignment) -> ProbabilityResult:
    """The generalized Born rule: probability = Q(amplitude)."""
    amp = amplitude_of(p, asg)
    return ProbabilityResult(amplitude=amp, probability=quadratic_form(amp))


def _close(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    scale = max(abs(float(a)), abs(float(b)), 1.0)
    return abs(float(a) - float(b)) <= FLOAT_RTOL * scale


def check_markov(p: Path, asg: Assignment) -> bool:
    """probability(p) equals the product over its undecomposable factors."""
    result = probability_of(p, asg)
    product = 1
    exact = isinstance(result.probability, Rational)
    for factor in model.factorize(p):
        piece = probability_of(factor, asg).probability
        exact = exact and isinstance(piece, Rational)
        product = product * piece
    return _close(result.probability, product, exact)


def check_certain_insertion(p: Path, j: int, inserted: Measurement,
                            asg: Assignment, asg_extended: Assignment) -> bool:
    """Inserting a certain (single-detector) measurement preserves probability.

    The amplitudes may differ; only the probabilities are compared.
    """
    if not inserted.is_fully_coarse:
        raise ValueError("inserted measurement must be fully coarse-grained")
    (block,) = inserted.blocks
    before = probability_of(p, asg).probability
    extended = model.insert_measurement(p, j, inserted, block)
    after = probability_of(extended, asg_extended).probability
    exact = isinstance(before, Rational) and isinstance(after, Rational)
    return _close(before, after, exact)


# -- validation -----------------------------------------------------------------

@dataclass(frozen=True)
class ValidationEntry:
    check: str
    location: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        out = {"check": self.check, "location": self.location, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.passed]

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [e.to_json() for e in self.entries]}


def validate_assignment(s: MeasurementSequence, asg: Assignment) -> ValidationReport:
    """Check the assignment invariants along a sequence, report per check.

    Weakly equivalent consecutive pairs carry the forced identity (always
    satisfied by construction).  For every cross-ground pair the matrix
    must exist; every row must have quadratic forms summing to one; when
    both directions are stored they must be mutual conjugate transposes;
    and for every source element the probabilities of the target
    measurement's detector results must sum to one.
    """
    entries = []
    exact_mode = all(
        amp.is_exact
        for table in (asg.stored(a, b) for a, b in asg.pairs())
        for amp in table.values()
    )

    def close_to_one(value) -> bool:
        if exact_mode and isinstance(value, Rational):
            return value == 1
        return abs(float(value) - 1.0) <= FLOAT_RTOL

    entries.append(ValidationEntry(
        "associative_algebra", asg.algebra.kind.label,
        asg.algebra.kind.is_associative))

    for j in range(len(s.steps) - 1):
        m_from, m_to = s.steps[j], s.steps[j + 1]
        loc = f"steps {j}->{j + 1}"
        a, b = m_from.element_set(), m_to.element_set()
        if a == b:
            entries.append(ValidationEntry("repeatability_identity", loc, True))
            continue
        if not asg.has_pair(m_from, m_to):
            entries.append(ValidationEntry(
                "matrix_present", loc, False, "no matrix for this ground pair"))
            continue
        entries.append(ValidationEntry("matrix_present", loc, True))

        forward = asg.stored(m_from, m_to)
        backward = asg.stored(m_to, m_from)
        if forward is not None and backward is not None:
            adjoint_ok = all(
                backward[(y, x)] == forward[(x, y)].conj()
                for x in a for y in b)
            entries.append(ValidationEntry(
                "adjoint_consistency", loc, adjoint_ok,
                "" if adjoint_ok else "reverse matrix is not the conjugate transpose"))

        for x in sorted(a):
            row_sum = sum(
                quadratic_form(asg.entry(m_from, m_to, x, y))
                for y in sorted(b))
            ok = close_to_one(row_sum)
            entries.append(ValidationEntry(
                "row_normalization", f"{loc} source {x}", ok,
                "" if ok else f"sum of Q over targets is {row_sum}"))

        for x in sorted(a):
            total = 0
            for block in model.sorted_blocks(m_to.blocks):
                block_amp = asg.algebra.zero()
                for y in sorted(block):
                    block_amp = block_amp + asg.entry(m_from, m_to, x, y)
                total = total + quadratic_form(block_amp)
            ok = close_to_one(total)
            entries.append(ValidationEntry(
                "two_measurement_sum_rule", f"{loc} source {x}", ok,
                "" if ok else f"sum over detector results is {total}"))

    return ValidationReport(tuple(entries))


def total_probability(s: MeasurementSequence, source: frozenset,
                      asg: Assignment) -> object:
    """Sum of path probabilities over all paths starting from the source result."""
    source = frozenset(source)
    total = 0
    for p in model.enumerate_paths(s):
        if p.results[0] == source:
            total = total + probability_of(p, asg).probability
    return total


# -- sampling --------------------------------------------------------------------

def sample(s: MeasurementSequence, source: frozenset, asg: Assignment,
           n: int, seed: int, workers: int = 1) -> Dict[Path, int]:
    """Draw n paths from the exact path distribution, reproducibly.

    Draws are split into fixed-size chunks, each with a seed derived from
    (seed, chunk index), so the counts are identical however the chunks
    are spread over workers.
    """
    source = frozenset(source)
    paths = [p for p in model.enumerate_paths(s) if p.results[0] == source]
    if not paths:
        raise NotADistribution("no paths start at the given source result")
    paths.sort(key=model.path_key)
    probs = []
    for p in paths:
        q = probability_of(p, asg).probability
        value = float(q)
        if value < -1e-12:
            raise NotADistribution(f"negative probability {q} for {p!r}")
        probs.append(max(value, 0.0))
    mass = sum(probs)
    if abs(mass - 1.0) > DISTRIBUTION_TOL:
        raise NotADistribution(f"path probabilities sum to {mass}, not 1")
    weights = np.asarray(probs, dtype=float)
    weights = weights / weights.sum()

    chunks = []
    start = 0
    index = 0
    while start < n:
        size = min(SAMPLE_CHUNK, n - start)
        chunks.append((index, size))
        start += size
        index += 1

    def draw(chunk):
        chunk_index, size = chunk
        rng = np.random.default_rng([seed & 0xFFFFFFFF, chunk_index])
        return rng.multinomial(size, weights)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(draw, chunks))
    else:
        results = [draw(c) for c in chunks]

    counts = np.zeros(len(paths), dtype=np.int64)
    for r in results:
        counts += r
    return {p: int(c) for p, c in zip(paths, counts)}


def random_row_normalized(kind: AlgebraKind, shape: Tuple[int, int],
                          seed: int) -> tuple:
    """Rows of float amplitudes drawn uniformly from the unit sphere of Q.

    Only positive-definite kinds (R, C, H) have a compact unit sphere to
    draw from.  Each row's quadratic forms sum to one up to float error.
    """
    if not kind.is_positive_definite:
        raise ValueError(f"{kind.label} is not positive definite")
    algebra = make_algebra(kind)
    rows, cols = shape
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rows):
        vec = rng.standard_normal(cols * algebra.dim)
        vec = vec / np.linalg.norm(vec)
        row = []
        for c in range(cols):
            row.append(algebra.amplitude(
                float(v) for v in vec[c * algebra.dim:(c + 1) * algebra.dim]))
        out.append(tuple(row))
    return tuple(out)
