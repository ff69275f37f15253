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

Sum rules are computed without listing paths, by a backward recursion
over pairs of threads that share a detector at every step.  Sampling
lists every path from the source once, sharing the partial thread sums
of common prefixes, and is bounded by ``model.DEFAULT_PATH_BOUND``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .algebra import (
    SCALAR_RTOL, Algebra, AlgebraKind, Amplitude, make_algebra, mul, quadratic_form,
)
from .errors import (
    NonAssociativeAlgebra,
    NonScalarProduct,
    NotADistribution,
    SequenceMismatch,
)
from . import model
from .model import GroundSet, Measurement, MeasurementSequence, Path

#: Relative tolerance for float-mode probability comparisons.
FLOAT_RTOL = 1e-9

#: Tolerance on the total probability mass required for sampling.
DISTRIBUTION_TOL = 1e-6

#: Number of draws handled per derived-seed chunk; fixed, because the
#: counts for a given (seed, n) depend on it.
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


def _check_coverage(p, asg: Assignment) -> None:
    segments = model.runs(p)
    for (lo1, _), (lo2, _) in zip(segments, segments[1:]):
        if not asg.has_pair(p.steps[lo1], p.steps[lo2]):
            raise SequenceMismatch(
                f"no matrix between grounds of steps {lo1} and {lo2}")


def _advance(partial: Dict[str, Amplitude], asg: Assignment, prev_ground: frozenset,
             ground: frozenset, alive: frozenset) -> Dict[str, Amplitude]:
    """Carry the partial thread sums across one run boundary onto the
    surviving elements of the next run."""
    # element iteration is sorted so float-mode sums are byte-stable
    nxt = {}
    for y in sorted(alive):
        total = asg.algebra.zero()
        for x, acc in partial.items():
            total = total + mul(acc, asg.entry(prev_ground, ground, x, y))
        nxt[y] = total
    return nxt


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
    ground0, alive0 = supports[0]
    partial = {x: asg.algebra.unit() for x in sorted(alive0)}
    prev_ground = ground0
    for ground, alive in supports[1:]:
        partial = _advance(partial, asg, prev_ground, ground, alive)
        prev_ground = ground
    return sum(partial.values(), asg.algebra.zero())


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
    must exist; every row must have quadratic forms summing to one; and
    when both directions are stored they must be mutual conjugate
    transposes.  For every source element the probabilities of all paths
    of the sequence, by ``total_probability``, must sum to one; a missing
    matrix or a non-scalar sum fails that check with the error as detail.
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

    for x in sorted(s.steps[0].element_set()):
        try:
            total = total_probability(s, frozenset({x}), asg)
        except (SequenceMismatch, NonScalarProduct) as exc:
            entries.append(ValidationEntry("sum_rule", f"source {x}", False, str(exc)))
            continue
        ok = close_to_one(total)
        entries.append(ValidationEntry(
            "sum_rule", f"source {x}", ok,
            "" if ok else f"total probability over paths is {total}"))

    return ValidationReport(tuple(entries))


def _same_block_classes(steps, elements) -> List[List[str]]:
    """The elements grouped by the detector holding them at every step.

    Two elements share a class exactly when some path's run over these
    steps keeps both alive: the same-block mask D of the pair recursion.
    """
    classes: Dict[tuple, List[str]] = {}
    for x in sorted(elements):
        classes.setdefault(tuple(m.block_containing(x) for m in steps), []).append(x)
    return list(classes.values())


def _pair_transfer(classes, forward, backward, unit, zero, product):
    """Sum of S_0 over same-class pairs of run 0, by the backward recursion

        S_last(x, x') = unit
        S_k(x, x')    = sum_y' (sum_y forward_k[x][y] S_k+1(y, y')) backward_k[x'][y']

    with S_k(x, x') defined only for x, x' in one class of run k.
    ``forward_k`` and ``backward_k`` map a run-k element to a dict over the
    run-(k+1) elements; ``product`` is the (associative) multiplication.
    """
    pairs = {(x, x2): unit for cls in classes[-1] for x in cls for x2 in cls}
    for k in range(len(classes) - 2, -1, -1):
        left = {}
        for x, row in forward[k].items():
            for cls in classes[k + 1]:
                for y2 in cls:
                    acc = zero
                    for y in cls:
                        acc = acc + product(row[y], pairs[y, y2])
                    left[x, y2] = acc
        pairs = {}
        for cls in classes[k]:
            for x in cls:
                for x2 in cls:
                    acc = zero
                    for y2, adjoint in backward[k][x2].items():
                        acc = acc + product(left[x, y2], adjoint)
                    pairs[x, x2] = acc
    return sum(pairs.values(), zero)


def _norm(a: Amplitude) -> float:
    return math.sqrt(sum(float(c) * float(c) for c in a.coeffs))


def _check_source(s: MeasurementSequence, source: frozenset) -> None:
    if source not in s.steps[0].blocks:
        raise NotADistribution("no paths start at the given source result")


def total_probability(s: MeasurementSequence, source: frozenset,
                      asg: Assignment) -> object:
    """Sum of path probabilities over all paths starting from the source result.

    Sum_paths Q(Sum_threads a_t) = e0 of Sum a_t conj(a_t') over the thread
    pairs (t, t') that share a detector at every step, since such a pair
    lies on exactly one path and any other pair on none.  With associativity
    the pair sum nests into a backward recursion over the weak-equivalence
    runs k, with E_k the matrix from run k to run k+1:

        S_last(x, x') = D_last(x, x')
        S_k(x, x')    = D_k(x, x') Sum_y' (Sum_y E_k(x, y) S_k+1(y, y')) conj(E_k(x', y'))

    where D_k(x, x') holds when x and x' lie in one block at every step of
    run k, and run 0 is restricted to the source.  The total is the e0
    coefficient of Sum S_0.  This costs O(L n^3) algebra products for L
    runs over grounds of at most n elements, and needs no path bound.

    The summed imaginary tail must vanish, exactly in exact mode; in float
    mode within SCALAR_RTOL times the same recursion over entry norms,
    which bounds the magnitude of every term summed.  Otherwise
    NonScalarProduct is raised, as quadratic_form does for one amplitude.
    """
    source = frozenset(source)
    _check_source(s, source)
    _check_coverage(s, asg)
    steps = s.steps
    segments = model.runs(s)
    classes = [_same_block_classes(steps[lo:hi + 1],
                                   source if lo == 0 else steps[lo].element_set())
               for lo, hi in segments]
    grounds = [steps[lo].element_set() for lo, _ in segments]
    forward, backward = [], []
    for k in range(len(segments) - 1):
        targets = [y for cls in classes[k + 1] for y in cls]
        rows = {x: {y: asg.entry(grounds[k], grounds[k + 1], x, y) for y in targets}
                for cls in classes[k] for x in cls}
        forward.append(rows)
        backward.append({x: {y: a.conj() for y, a in row.items()} for x, row in rows.items()})
    algebra = asg.algebra
    total = _pair_transfer(classes, forward, backward, algebra.unit(), algebra.zero(), mul)
    tail = total.coeffs[1:]
    if any(c != 0 for c in tail):
        if total.is_exact:
            raise NonScalarProduct(f"summed pair products not scalar: {total!r}")
        norms = [{x: {y: _norm(a) for y, a in row.items()} for x, row in rows.items()}
                 for rows in forward]
        tol = SCALAR_RTOL * _pair_transfer(classes, norms, norms, 1.0, 0.0, operator.mul)
        if any(abs(float(c)) > tol for c in tail):
            raise NonScalarProduct(
                f"summed pair products not scalar within {tol}: {total!r}")
    return total.coeffs[0]


# -- sampling --------------------------------------------------------------------

def path_probabilities(s: MeasurementSequence, source: frozenset,
                       asg: Assignment) -> List[Tuple[Path, object]]:
    """Every path from the source result with its probability, in
    ``enumerate_paths`` order (``path_key`` order within the sequence).

    One walk over the result combinations keeps, per step, the surviving
    elements of the current run and the partial thread sums of the runs
    before it, and recomputes only the steps after the first changed
    result.  The partial sums are carried by the same per-run helper as
    ``amplitude_of``, in the same order, so every probability equals
    ``probability_of(p, asg).probability`` bit for bit.  Bounded by
    DEFAULT_PATH_BOUND through ``model.check_path_bound``.
    """
    source = frozenset(source)
    model.check_path_bound(s)
    _check_source(s, source)
    _check_coverage(s, asg)
    algebra = asg.algebra
    steps = s.steps
    grounds = [m.element_set() for m in steps]
    starts, ends, prev_ground = set(), set(), {}
    for k, (lo, hi) in enumerate(model.runs(s)):
        starts.add(lo)
        ends.add(hi)
        prev_ground[hi] = grounds[lo - 1] if k else None
    choices = [[source]] + [model.sorted_blocks(m.blocks) for m in steps[1:]]
    impossible = quadratic_form(algebra.zero())
    last = len(steps) - 1
    # states[j]: (alive in the current run, partial sums of finished runs)
    # after step j, or None once some run has died out
    states: List[Optional[tuple]] = [None] * len(steps)
    out = []
    previous = None
    for combo in itertools.product(*choices):
        j = 0
        if previous is not None:
            while combo[j] is previous[j]:
                j += 1
        for j in range(j, len(steps)):
            before = states[j - 1] if j else (None, None)
            if before is None:
                states[j] = None
                continue
            alive, partial = before
            alive = combo[j] if j in starts else alive & combo[j]
            if not alive:
                states[j] = None
                continue
            if j in ends:
                if prev_ground[j] is None:
                    partial = {x: algebra.unit() for x in sorted(alive)}
                else:
                    partial = _advance(partial, asg, prev_ground[j], grounds[j], alive)
            states[j] = (alive, partial)
        previous = combo
        final = states[last]
        if final is None:
            out.append((Path(s, combo), impossible))
        else:
            amplitude = sum(final[1].values(), algebra.zero())
            out.append((Path(s, combo), quadratic_form(amplitude)))
    return out


def sample_rows(s: MeasurementSequence, source: frozenset, asg: Assignment,
                n: int, seed: int) -> List[Tuple[Path, int, object]]:
    """Draw n paths from the exact path distribution, reproducibly.

    Returns one (path, count, probability) row per path from the source
    result, in ``path_key`` order, with the probabilities of
    ``path_probabilities`` and its path bound.  Draws are split into
    chunks of SAMPLE_CHUNK, each drawn with the seed [seed, chunk index],
    so the counts depend on (seed, n) alone.
    """
    if n < 0:
        raise ValueError(f"number of draws must be non-negative, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    table = path_probabilities(s, source, asg)
    probs = []
    for p, q in table:
        value = float(q)
        if value < -1e-12:
            raise NotADistribution(f"negative probability {q} for {p!r}")
        probs.append(max(value, 0.0))
    mass = sum(probs)
    if abs(mass - 1.0) > DISTRIBUTION_TOL:
        raise NotADistribution(f"path probabilities sum to {mass}, not 1")
    weights = np.asarray(probs, dtype=float)
    weights = weights / weights.sum()

    counts = np.zeros(len(table), dtype=np.int64)
    for index, start in enumerate(range(0, n, SAMPLE_CHUNK)):
        rng = np.random.default_rng([seed, index])
        counts += rng.multinomial(min(SAMPLE_CHUNK, n - start), weights)
    return [(p, int(c), q) for (p, q), c in zip(table, counts)]


def sample(s: MeasurementSequence, source: frozenset, asg: Assignment,
           n: int, seed: int) -> Dict[Path, int]:
    """The counts of ``sample_rows``, keyed by path."""
    return {p: c for p, c, _ in sample_rows(s, source, asg, n, seed)}


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
