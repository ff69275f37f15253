"""Transition-amplitude assignments, path evaluation, and sampling.

An assignment attaches to every ordered pair of distinct ground sets a
matrix of transition amplitudes between their atomic elements, over one
of the associative algebras (R, C, C', H, H').  Two consecutive
measurements over the same ground set always carry the identity: the
underlying element is preserved, which is what makes repeated
measurements repeatable.  The matrix for the reversed pair is the
conjugate transpose of the forward one unless supplied explicitly.

Every evaluator reads one representation: each ground pair lowered once,
on first use, to rows x -> {y: coefficient tuple} over one denominator,
looked up once per run boundary and never per entry.  Every product goes
through ``Algebra.kernel``, a straight-line function generated from the
algebra's product plan (its ``mul`` table regrouped by output, in
``mul``'s term order) on first use and kept on the algebra.  In exact mode,
when every coefficient is rational, the coefficients are Python integers
over the lcm of the entry denominators, and each result is rebuilt as a
rational once, at the end.  Otherwise (float mode) every coefficient is
converted to a float over denominator 1, so float-mode results are
floats, summed left to right in a fixed order.

A path evaluates to the sum over threads: one surviving element per
weak-equivalence run, multiplied through the cross-ground matrices left
to right.  The probability of a path is the quadratic form of its
amplitude, taken on the summed coefficient tuple through the same kernel
(the e0 coefficient of a * conj(a)); impossible paths evaluate to the
zero amplitude, of probability 0, directly.
One run-by-run walker evaluates every path: ``amplitude_of`` walks one
path, and sampling walks every path from the source once, sharing the
partial thread sums of common prefixes, bounded by
``model.DEFAULT_PATH_BOUND``, then makes one multinomial draw.

Sum rules are computed without listing paths, by a backward recursion
over pairs of threads that share a detector at every step, reading the
same lowered rows in place and conjugating the right-hand factor.  Row
normalization is the sum rule of a two-step experiment.

Exact and float mode differ in two rules, each written once: a value that
must be scalar goes through ``algebra.scalar_part`` (exact, or within
SCALAR_RTOL of a magnitude), and two values are compared by ``_close``
(equal when both are rational, else within FLOAT_RTOL relative).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from numbers import Rational
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .algebra import (
    Algebra, AlgebraKind, Amplitude, make_algebra, scalar_part, squared_norm,
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

#: Exclusive bound on the number of draws: numpy's multinomial counts are int64.
MAX_DRAWS = 1 << 63


def _ground_key(g) -> frozenset:
    return g.element_set() if isinstance(g, (GroundSet, Measurement)) else frozenset(g)


Rows = Dict[str, Dict[str, Amplitude]]
#: A lowered matrix: rows x -> {y: coefficient tuple}.
CoeffRows = Dict[str, Dict[str, tuple]]


def _to_float(c) -> float:
    """c as a float; one beyond the float range as an infinity of its sign."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


class Assignment:
    """Per-ground-pair transition amplitude matrices.

    ``matrices`` maps an ordered pair of grounds to a dict from (source
    element, target element) to an Amplitude; it may also be an iterable
    of such (pair, dict) items.  Each ordered pair of ground element-sets
    takes at most one matrix, with an entry for every element pair of the
    two grounds and for nothing else.  Same-ground transitions are never
    stored: they are the identity by construction.

    A matrix is held as rows x -> {y: amplitude}.  The evaluators read
    ``lowered``: each pair as coefficient tuples over one denominator, ints
    in exact mode (every coefficient rational) and floats otherwise, with
    the conjugate transpose of a pair stored in one direction only built
    from the stored rows.  Each pair is lowered on first use and kept.
    """

    def __init__(self, algebra: Algebra, matrices) -> None:
        if not algebra.kind.is_associative:
            raise NonAssociativeAlgebra(
                f"assignments require an associative algebra, got {algebra.kind.label}")
        self.algebra = algebra
        self._rows: Dict[Tuple[frozenset, frozenset], Rows] = {}
        self._lowered: Dict[Tuple[frozenset, frozenset], Tuple[CoeffRows, int]] = {}
        items = matrices.items() if isinstance(matrices, Mapping) else matrices
        for (g_from, g_to), entries in items:
            key = (_ground_key(g_from), _ground_key(g_to))
            if key[0] == key[1]:
                raise ValueError(
                    "transitions within one ground set are the forced identity "
                    "and cannot be assigned")
            if key in self._rows:
                raise ValueError(
                    f"second matrix from ground {sorted(key[0])} to {sorted(key[1])}")
            rows: Rows = {x: {} for x in sorted(key[0])}
            for (x, y), amp in entries.items():
                if x not in rows or y not in key[1]:
                    raise ValueError(
                        f"entry for transition {x!r} -> {y!r} lies outside the grounds "
                        f"{sorted(key[0])} and {sorted(key[1])}")
                if amp.algebra != algebra:
                    raise ValueError("matrix entry algebra mismatch")
                rows[x][y] = amp
            for x, row in rows.items():
                for y in sorted(key[1]):
                    if y not in row:
                        raise ValueError(f"missing entry for transition {x!r} -> {y!r}")
            self._rows[key] = rows

    def pairs(self):
        """The ordered ground pairs with a stored matrix."""
        return self._rows.keys()

    def stored(self, g_from, g_to) -> Optional[Mapping]:
        """The stored matrix as (x, y) -> amplitude, or None."""
        rows = self._rows.get((_ground_key(g_from), _ground_key(g_to)))
        if rows is None:
            return None
        return {(x, y): amp for x, row in rows.items() for y, amp in row.items()}

    @cached_property
    def is_exact(self) -> bool:
        """True when every coefficient is rational: exact mode."""
        return all(amp.is_exact for rows in self._rows.values()
                   for row in rows.values() for amp in row.values())

    def lowered(self, g_from, g_to) -> Tuple[CoeffRows, int]:
        """The matrix from one ground to another as rows x -> {y: d
        coefficients} over one denominator D: the stored matrix, else the
        conjugate transpose of the stored reverse, built from the stored
        rows with the algebra's conjugation signs.

        In exact mode the coefficients are ints and D is the lcm of the
        entry denominators; in float mode they are floats and D is 1.  Each
        pair is lowered on first use and kept; a pair stored in neither
        direction raises SequenceMismatch.
        """
        key = (_ground_key(g_from), _ground_key(g_to))
        hit = self._lowered.get(key)
        if hit is not None:
            return hit
        reversed_ = key not in self._rows
        rows = self._rows.get((key[1], key[0]) if reversed_ else key)
        if rows is None:
            raise SequenceMismatch(
                f"assignment has no matrix between grounds {sorted(key[0])} "
                f"and {sorted(key[1])}")
        if self.is_exact:
            den = math.lcm(*(c.denominator for row in rows.values()
                             for amp in row.values() for c in amp.coeffs))

            def lower(c):
                return c.numerator * (den // c.denominator)
        else:
            den, lower = 1, _to_float
        lowered = {x: {} for x in sorted(key[0])}
        for x, row in rows.items():
            for y, amp in row.items():
                coeffs = tuple(map(lower, amp.coeffs))
                if reversed_:
                    lowered[y][x] = tuple(map(operator.mul, self.algebra.conj_signs, coeffs))
                else:
                    lowered[x][y] = coeffs
        hit = self._lowered[key] = (lowered, den)
        return hit

    def __eq__(self, other):
        return isinstance(other, Assignment) \
            and self.algebra == other.algebra \
            and self._rows == other._rows

    def __repr__(self):
        return f"Assignment({self.algebra.kind.label}, {len(self._rows)} matrices)"


def assignment_from_rows(algebra: Algebra, blocks: Iterable) -> Assignment:
    """Build an assignment from (ground_from, ground_to, rows) triples.

    ``rows[i][j]`` is the amplitude from the i-th element of ground_from
    to the j-th element of ground_to, both in declared element order.
    Entries may be Amplitudes or plain coefficient sequences.  A matrix
    whose shape does not match the two grounds raises ValueError.
    """
    matrices = []
    for g_from, g_to, rows in blocks:
        if len(rows) != len(g_from.elements):
            raise ValueError("matrix row count does not match source ground")
        if any(len(row) != len(g_to.elements) for row in rows):
            raise ValueError("matrix column count does not match target ground")
        table = {}
        for i, x in enumerate(g_from.elements):
            for j, y in enumerate(g_to.elements):
                entry = rows[i][j]
                if not isinstance(entry, Amplitude):
                    entry = algebra.amplitude(entry)
                table[(x, y)] = entry
        matrices.append(((g_from, g_to), table))
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

def _rational(numerator: int, denominator: int):
    """numerator / denominator as an int when it is one, else a Fraction."""
    return Fraction(numerator, denominator) if numerator % denominator \
        else numerator // denominator


def _summed(values, dim: int) -> tuple:
    """The sum of coefficient tuples, added left to right from zero
    (``reduce``: from Python 3.12 on ``sum`` compensates float rounding)."""
    return tuple(reduce(operator.add, c) for c in zip((0,) * dim, *values))


def _result(asg: Assignment, sums: Optional[tuple], denominator: int) -> Amplitude:
    """The Amplitude of the coefficient tuple sums over denominator: in exact
    mode each coefficient is rebuilt as a rational, in float mode
    (denominator 1) it is the sum; None (an impossible path) is zero."""
    if sums is None:
        return asg.algebra.zero()
    if asg.is_exact:
        sums = (_rational(c, denominator) for c in sums)
    return asg.algebra.amplitude(sums)


def _born(asg: Assignment, sums: Optional[tuple], denominator: int):
    """Q of the amplitude ``_result(asg, sums, denominator)``, as
    ``quadratic_form`` gives it: the e0 coefficient of sums * conj(sums)
    through the algebra's kernel, over the squared denominator; 0 for None.

    A nonzero tail goes through ``algebra.scalar_part`` as quadratic_form's
    does, with its lazy squared norm, so it raises or passes alike.
    """
    if sums is None:
        return 0
    conj = tuple(map(operator.mul, asg.algebra.conj_signs, sums))
    square, scale = asg.algebra.kernel((sums,), (conj,)), denominator * denominator
    if any(square[1:]):
        return scalar_part(_result(asg, square, scale), asg.is_exact,
                           lambda: squared_norm(sums), "a*conj(a)")
    return _rational(square[0], scale) if asg.is_exact else square[0]


def _boundary_rows(s, asg: Assignment, segments) -> Tuple[list, list]:
    """The lowered matrix from each weak-equivalence run to the next and its
    denominator; raises SequenceMismatch when the assignment lacks one."""
    grounds = [s.steps[lo].element_set() for lo, _ in segments]
    boundaries = [asg.lowered(a, b) for a, b in zip(grounds, grounds[1:])]
    return [rows for rows, _ in boundaries], [den for _, den in boundaries]


def _thread_sums(s, choices, asg: Assignment):
    """Yield (results, sums or None, denominator) for every pick of one
    result per step from ``choices``, in ``itertools.product`` order.

    A thread picks one surviving element per weak-equivalence run: the
    element is constant across weakly equivalent steps, so coarse results
    expand distributively and duplicated steps contribute the forced
    identity.  ``sums`` is the sum over threads of the left-to-right
    product of the matrix entries between consecutive runs, a coefficient
    tuple over the product of the boundary denominators (``_result``
    rebuilds the amplitude); it is None when some run has no surviving
    element (an impossible path).

    The run-boundary matrices are looked up once, before the first pick,
    and the algebra's kernel forms every product.
    One dict of partial thread sums is kept per run, and each pick
    recomputes only the runs from the first one whose results changed.
    Elements are taken in sorted order, so float sums are byte-stable.
    """
    dim, kernel = asg.algebra.dim, asg.algebra.kernel
    unit = asg.algebra.unit().coeffs
    segments = model.runs(s)
    matrices, dens = _boundary_rows(s, asg, segments)
    denominator = math.prod(dens)
    run_of = [k for k, (lo, hi) in enumerate(segments) for _ in range(lo, hi + 1)]
    # partials[k]: thread sums onto the surviving elements of run k, or None
    # once run k or an earlier run has none
    partials: List[Optional[dict]] = [None] * len(segments)
    previous = None
    for combo in itertools.product(*choices):
        first = 0
        if previous is not None:
            j = 0
            while combo[j] is previous[j]:
                j += 1
            first = run_of[j]
        previous = combo
        partial = partials[first - 1] if first else None
        for k in range(first, len(segments)):
            lo, hi = segments[k]
            alive = combo[lo].intersection(*combo[lo + 1:hi + 1])
            if not alive or (k and partial is None):
                partial = None
            elif k == 0:
                partial = {x: unit for x in sorted(alive)}
            else:
                rows, accs = matrices[k - 1], partial.values()
                partial = {y: kernel(accs, [rows[x][y] for x in partial])
                           for y in sorted(alive)}
            partials[k] = partial
        yield combo, None if partial is None else _summed(partial.values(), dim), denominator


def _path_sums(p: Path, asg: Assignment) -> Tuple[Optional[tuple], int]:
    """The thread sums of one path and their denominator (see ``_thread_sums``)."""
    ((_, sums, denominator),) = _thread_sums(p.sequence, [[r] for r in p.results], asg)
    return sums, denominator


def amplitude_of(p: Path, asg: Assignment) -> Amplitude:
    """Sum over threads of the left-to-right product of step amplitudes
    (see ``_thread_sums``); impossible paths are the zero amplitude."""
    return _result(asg, *_path_sums(p, asg))


def probability_of(p: Path, asg: Assignment) -> ProbabilityResult:
    """The generalized Born rule: probability = Q(amplitude)."""
    sums, denominator = _path_sums(p, asg)
    return ProbabilityResult(amplitude=_result(asg, sums, denominator),
                             probability=_born(asg, sums, denominator))


def _close(a, b) -> bool:
    """a == b when both are rational; otherwise |a - b| within FLOAT_RTOL
    times the larger magnitude (at least 1), and never for an infinity."""
    if isinstance(a, Rational) and isinstance(b, Rational):
        return a == b
    a, b = float(a), float(b)
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b), 1.0) < math.inf


def check_markov(p: Path, asg: Assignment) -> bool:
    """probability(p) equals the product over its undecomposable factors."""
    probability = probability_of(p, asg).probability
    product = 1
    for factor in model.factorize(p):
        product = product * probability_of(factor, asg).probability
    return _close(probability, product)


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
    return _close(before, after)


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
    must exist, the lowered rows of two stored directions must be mutual
    conjugate transposes, and each row x must be normalized: the sum rule
    of the two atomic measurements of the pair from {x} is one.  So is the
    sum rule of the sequence from every source element.  A sum rule fails
    on a missing matrix or a non-scalar sum, with the error as detail.
    """
    entries = [ValidationEntry("associative_algebra", asg.algebra.kind.label,
                               asg.algebra.kind.is_associative)]

    def sum_rule(check, location, steps, x, what):
        try:
            total = total_probability(steps, frozenset({x}), asg)
            ok, detail = _close(total, 1), f"{what} is {total}"
        except (SequenceMismatch, NonScalarProduct) as exc:
            ok, detail = False, str(exc)
        entries.append(ValidationEntry(check, location, ok, "" if ok else detail))

    stored = asg.pairs()
    for j in range(len(s.steps) - 1):
        m_from, m_to = s.steps[j], s.steps[j + 1]
        loc = f"steps {j}->{j + 1}"
        a, b = m_from.element_set(), m_to.element_set()
        if a == b:
            entries.append(ValidationEntry("repeatability_identity", loc, True))
            continue
        present = (a, b) in stored or (b, a) in stored
        entries.append(ValidationEntry("matrix_present", loc, present,
                                       "" if present else "no matrix for this ground pair"))
        if not present:
            continue

        if (a, b) in stored and (b, a) in stored:
            (forward, d_forward), (backward, d_backward) = asg.lowered(a, b), asg.lowered(b, a)
            adjoint_ok = all([c * d_backward for c in forward[x][y]] == [
                sign * c * d_forward for sign, c in zip(asg.algebra.conj_signs, backward[y][x])]
                for x in a for y in b)
            entries.append(ValidationEntry(
                "adjoint_consistency", loc, adjoint_ok,
                "" if adjoint_ok else "reverse matrix is not the conjugate transpose"))

        pair = model.sequence([model.atomic_measurement(m.ground) for m in (m_from, m_to)])
        for x in sorted(a):
            sum_rule("row_normalization", f"{loc} source {x}", pair, x, "sum of Q over targets")

    for x in sorted(s.steps[0].element_set()):
        sum_rule("sum_rule", f"source {x}", s, x, "total probability over paths")

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


def _pair_transfer(classes, matrices, algebra: Algebra) -> list:
    """S_0 over the same-class pairs (x, x') of run 0, in the order of the
    classes, then x, then x', by the backward recursion

        S_last(x, x') = 1
        S_k(x, x')    = sum_y' (sum_y E_k[x][y] S_k+1(y, y')) conj(E_k[x'][y'])

    with S_k(x, x') defined only for x, x' in one class of run k.  ``E_k =
    matrices[k]`` maps a run-k element to a dict over the run-(k+1)
    elements of coefficient tuples over the (associative) algebra, read in
    class order and multiplied by the algebra's kernel.
    """
    kernel, signs, unit = algebra.kernel, algebra.conj_signs, algebra.unit().coeffs
    # columns[x'][x] = S(x, x'), x running over the class of x' in order
    columns = {x2: {x: unit for x in cls} for cls in classes[-1] for x2 in cls}
    for k in range(len(classes) - 2, -1, -1):
        rows, later, columns = matrices[k], columns, {}
        targets = [y for cls in classes[k + 1] for y in cls]
        for cls in classes[k]:
            left = {}  # left[x] = [sum_y E_k[x][y] S_k+1(y, y') for y' in targets]
            for x in cls:
                row, left[x] = rows[x], []
                for later_cls in classes[k + 1]:
                    entries = [row[y] for y in later_cls]
                    left[x] += [kernel(entries, later[y2].values()) for y2 in later_cls]
            for x2 in cls:
                conj = [tuple(map(operator.mul, signs, rows[x2][y])) for y in targets]
                columns[x2] = {x: kernel(left[x], conj) for x in cls}
    return [columns[x2][x] for cls in classes[0] for x in cls for x2 in cls]


def _norm(coeffs: tuple) -> Tuple[float]:
    """The Euclidean norm of a coefficient tuple, as an element of R."""
    return (math.sqrt(squared_norm(coeffs)),)


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
    runs k, with E_k the lowered matrix from run k to run k+1:

        S_last(x, x') = D_last(x, x')
        S_k(x, x')    = D_k(x, x') Sum_y' (Sum_y E_k(x, y) S_k+1(y, y')) conj(E_k(x', y'))

    where D_k(x, x') holds when x and x' lie in one block at every step of
    run k, and run 0 is restricted to the source.  The total is the e0
    coefficient of Sum S_0.  This costs O(L n^3) algebra products for L
    runs over grounds of at most n elements, and needs no path bound.  E_k
    is lowered over its denominator q_k (1 in float mode), so in exact mode
    the recursion runs over integers, S_k carrying q_k^2 ... q_last^2, and
    the total is divided by the product of the q_k^2 once.

    The summed imaginary tail must vanish, by ``algebra.scalar_part`` as
    for quadratic_form: exactly in exact mode; in float mode within
    SCALAR_RTOL times the same recursion over entry norms, which bounds the
    magnitude of every term summed and runs only when the tail is nonzero.
    Otherwise NonScalarProduct is raised.
    """
    source = frozenset(source)
    _check_source(s, source)
    steps = s.steps
    segments = model.runs(s)
    matrices, dens = _boundary_rows(s, asg, segments)
    classes = [_same_block_classes(steps[lo:hi + 1],
                                   source if lo == 0 else steps[lo].element_set())
               for lo, hi in segments]
    pairs = _pair_transfer(classes, matrices, asg.algebra)
    total = _result(asg, _summed(pairs, asg.algebra.dim), math.prod(den * den for den in dens))

    def magnitude() -> float:  # over the rows the transfer reads: run 0 from the source
        norms = [{x: {y: _norm(a) for y, a in rows[x].items()} for cls in classes[k] for x in cls}
                 for k, rows in enumerate(matrices)]
        bounds = _pair_transfer(classes, norms, make_algebra(AlgebraKind.R))
        return sum(bound for (bound,) in bounds)

    return scalar_part(total, asg.is_exact, magnitude, "summed pair products")


# -- sampling --------------------------------------------------------------------

def path_probabilities(s: MeasurementSequence, source: frozenset,
                       asg: Assignment) -> List[Tuple[Path, object]]:
    """Every path from the source result with its probability, in
    ``enumerate_paths`` order (``path_key`` order within the sequence).

    One ``_thread_sums`` walk over the result combinations, the evaluator
    of ``amplitude_of``, recomputes only the runs from the first changed
    result on, and each path's thread sums go through the Born leaf of
    ``probability_of``, so every probability equals
    ``probability_of(p, asg).probability`` bit for bit.  Bounded by
    DEFAULT_PATH_BOUND through ``model.check_path_bound``.
    """
    source = frozenset(source)
    model.check_path_bound(s)
    _check_source(s, source)
    choices = [[source]] + [model.sorted_blocks(m.blocks) for m in s.steps[1:]]
    return [(Path(s, combo), _born(asg, sums, denominator))
            for combo, sums, denominator in _thread_sums(s, choices, asg)]


def sample_rows(s: MeasurementSequence, source: frozenset, asg: Assignment,
                n: int, seed: int) -> List[Tuple[Path, int, object]]:
    """Draw n paths from the exact path distribution, reproducibly.

    Returns one (path, count, probability) row per path from the source
    result, in ``path_key`` order, with the probabilities of
    ``path_probabilities`` and its path bound.  The counts are one
    multinomial draw seeded with [seed, 0]: they depend on (seed, n) alone.
    """
    if not 0 <= n < MAX_DRAWS:
        raise ValueError(f"number of draws must lie in [0, 2**63), got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    table = path_probabilities(s, source, asg)
    probs = []
    for p, q in table:
        try:
            value = float(q)
        except OverflowError:
            raise NotADistribution(f"probability of {p!r} exceeds the float range") from None
        if value < -1e-12:
            raise NotADistribution(f"negative probability {q} for {p!r}")
        probs.append(max(value, 0.0))
    mass = sum(probs)
    if abs(mass - 1.0) > DISTRIBUTION_TOL:
        raise NotADistribution(f"path probabilities sum to {mass}, not 1")
    import numpy as np

    weights = np.asarray(probs, dtype=float)
    counts = np.random.default_rng([seed, 0]).multinomial(n, weights / weights.sum())
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
    import numpy as np

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
