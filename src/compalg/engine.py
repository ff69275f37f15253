"""Transition-amplitude assignments, path evaluation, and sampling.

An assignment attaches to every ordered pair of distinct ground sets a
matrix of transition amplitudes between their atomic elements, over one
of the associative algebras (R, C, C', H, H').  Two consecutive
measurements over the same ground set always carry the identity: the
underlying element is preserved, which is what makes repeated
measurements repeatable.  The matrix for the reversed pair is the
conjugate transpose of the forward one unless supplied explicitly.

An assignment, built from (ground_from, ground_to, rows) triples and
checked there only, stores coefficient tuples, and every evaluator reads one
representation: each ground pair lowered once, on first use, to rows x ->
{y: coefficient tuple} by ``algebra.lower`` (ints over one denominator in
exact mode, decided by ``algebra.is_exact``; floats over 1 otherwise).
The engine has no coefficient arithmetic of its own: ``Algebra.kernel``
forms every product, ``Algebra.conj`` every conjugate and
``algebra.summed`` every sum, in a fixed order; ``algebra.lift`` rebuilds
a result once, at the end.

A path evaluates to the sum over threads: one surviving element per
weak-equivalence run, multiplied through the cross-ground matrices left
to right; its probability is Q of that sum (``algebra.quadratic_form_over``),
and an impossible path is zero.  ``amplitude_of`` walks one path run by
run; sampling evaluates every path from the source with the same
operations, one batched pass per run, on numpy arrays over (row, slot):
a row per live prefix, a slot per surviving element, and zero padding past
a row's survivors.  It is bounded by ``model.DEFAULT_PATH_BOUND`` and ends
in one multinomial draw.

Sum rules are computed without listing paths, by a backward recursion
over pairs of threads that share a detector at every step, reading the
same lowered rows in place and conjugating the right-hand factor.  Row
normalization is the sum rule of a two-step experiment.

Exact and float mode differ in two rules, each written once: a value that
must be scalar goes through ``algebra.scalar_part`` (exact, or within
SCALAR_RTOL of a magnitude), and two values are compared by ``_close``
(equal when both are exact, else within FLOAT_RTOL relative).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .algebra import (
    Algebra, AlgebraKind, Amplitude, is_exact, lift, lower, make_algebra,
    quadratic_form_columns, quadratic_form_over, scalar_part, squared_norm, summed,
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


#: A matrix as rows x -> {y: coefficient tuple}.
CoeffRows = Dict[str, Dict[str, tuple]]

_TRIPLE = "(GroundSet, GroundSet, rows)"


def _shape(block) -> str:
    """The type of a block, item by item for a tuple or list."""
    if isinstance(block, (tuple, list)):
        return f"({', '.join(type(b).__name__ for b in block)})"
    return type(block).__name__


class Assignment:
    """Per-ground-pair transition amplitude matrices.

    ``blocks`` holds (ground_from, ground_to, rows) triples of two GroundSets
    and a matrix: ``rows[i][j]``, an Amplitude of this algebra or a sequence
    of its coefficients, is the amplitude from the i-th element of
    ground_from to the j-th of ground_to, in declared element order.  Each
    ordered pair of ground element sets takes at most one matrix, shaped to
    its grounds, else ValueError.  Same-ground transitions are never stored:
    they are the identity by construction.

    A matrix is held as rows x -> {y: coefficient tuple}; the evaluators
    read them over one denominator, from ``lowered``.
    """

    def __init__(self, algebra: Algebra, blocks: Iterable) -> None:
        if not algebra.kind.is_associative:
            raise NonAssociativeAlgebra(
                f"assignments require an associative algebra, got {algebra.kind.label}")
        self.algebra = algebra
        self._rows: Dict[Tuple[frozenset, frozenset], CoeffRows] = {}
        self._lowered: Dict[Tuple[frozenset, frozenset], Tuple[CoeffRows, int]] = {}
        if isinstance(blocks, Mapping):
            raise ValueError(f"blocks must be {_TRIPLE} triples, got a mapping")
        for block in blocks:
            if not (isinstance(block, (tuple, list)) and len(block) == 3
                    and all(isinstance(g, GroundSet) for g in block[:2])):
                raise ValueError(f"each block must be a {_TRIPLE} triple, got {_shape(block)}")
            g_from, g_to, rows = block
            key = (g_from.element_set(), g_to.element_set())
            if key[0] == key[1]:
                raise ValueError(
                    "transitions within one ground set are the forced identity "
                    "and cannot be assigned")
            if key in self._rows:
                raise ValueError(
                    f"second matrix from ground {sorted(key[0])} to {sorted(key[1])}")
            if len(rows) != len(g_from.elements):
                raise ValueError("matrix row count does not match source ground")
            if any(len(row) != len(g_to.elements) for row in rows):
                raise ValueError("matrix column count does not match target ground")
            self._rows[key] = {x: {y: self._coeffs(entry) for y, entry in zip(g_to.elements, row)}
                               for x, row in zip(g_from.elements, rows)}

    def _coeffs(self, entry) -> tuple:
        """The coefficient tuple of one matrix entry, checked against the algebra."""
        amp = entry if isinstance(entry, Amplitude) else self.algebra.amplitude(entry)
        if amp.algebra != self.algebra:
            raise ValueError("matrix entry algebra mismatch")
        return amp.coeffs

    def pairs(self):
        """The ordered ground pairs with a stored matrix."""
        return self._rows.keys()

    def stored(self, g_from, g_to) -> Optional[Mapping]:
        """The stored matrix as (x, y) -> amplitude, or None."""
        rows = self._rows.get((_ground_key(g_from), _ground_key(g_to)))
        if rows is None:
            return None
        return {(x, y): Amplitude(self.algebra, coeffs)
                for x, row in rows.items() for y, coeffs in row.items()}

    @cached_property
    def is_exact(self) -> bool:
        """True when every coefficient is exact (``algebra.is_exact``)."""
        return is_exact(c for rows in self._rows.values() for row in rows.values()
                        for coeffs in row.values() for c in coeffs)

    def lowered(self, g_from, g_to) -> Tuple[CoeffRows, int]:
        """The matrix from one ground to another as rows x -> {y: d
        coefficients} over one denominator D: the stored matrix, else the
        conjugate transpose of the stored reverse, built from the stored
        rows by ``Algebra.conj``.

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
        pairs = [(x, y) for x, row in rows.items() for y in row]
        coeffs, den = lower([rows[x][y] for x, y in pairs], self.is_exact)
        lowered = {x: {} for x in sorted(key[0])}
        for (x, y), c in zip(pairs, coeffs):
            if reversed_:
                lowered[y][x] = self.algebra.conj(c)
            else:
                lowered[x][y] = c
        hit = self._lowered[key] = (lowered, den)
        return hit

    def __eq__(self, other):
        return isinstance(other, Assignment) \
            and self.algebra == other.algebra \
            and self._rows == other._rows

    def __repr__(self):
        return f"Assignment({self.algebra.kind.label}, {len(self._rows)} matrices)"


# Kept for the benchmark, whose files stay fixed: ``bench/inputs.py`` imports this name.
assignment_from_rows = Assignment


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

def _result(asg: Assignment, sums: Optional[tuple], denominator: int) -> Amplitude:
    """The Amplitude of the coefficient tuple sums over denominator: in exact
    mode each coefficient is rebuilt as a rational, in float mode
    (denominator 1) it is the sum; None (an impossible path) is zero."""
    if sums is None:
        return asg.algebra.zero()
    return Amplitude(asg.algebra, lift(sums, denominator, asg.is_exact))


def _born(asg: Assignment, sums: Optional[tuple], denominator: int):
    """Q of ``_result(asg, sums, denominator)``, 0 for None."""
    if sums is None:
        return 0
    return quadratic_form_over(asg.algebra, sums, denominator, asg.is_exact)


def _boundary_rows(s, asg: Assignment, segments) -> Tuple[list, list]:
    """The lowered matrix from each weak-equivalence run to the next and its
    denominator; raises SequenceMismatch when the assignment lacks one."""
    grounds = [s.steps[lo].element_set() for lo, _ in segments]
    boundaries = [asg.lowered(a, b) for a, b in zip(grounds, grounds[1:])]
    return [rows for rows, _ in boundaries], [den for _, den in boundaries]


def _thread_sums(p: Path, asg: Assignment) -> Tuple[Optional[tuple], int]:
    """The thread sums of one path and their denominator.

    A thread picks one surviving element per weak-equivalence run: the
    element is constant across weakly equivalent steps, so coarse results
    expand distributively and duplicated steps contribute the forced
    identity.  The sums are the sum over threads of the left-to-right
    product of the matrix entries between consecutive runs, a coefficient
    tuple over the product of the boundary denominators (``_result``
    rebuilds the amplitude); they are None when some run has no surviving
    element (an impossible path).

    Run by run, the partial thread sums onto each surviving element are
    one kernel call over the previous run's survivors, and the sums add
    the last run's partials.  Elements are taken in sorted order, so float
    sums are byte-stable; ``path_probabilities`` does the same operations
    on arrays over every path.
    """
    kernel, unit = asg.algebra.kernel, asg.algebra.unit().coeffs
    segments = model.runs(p)
    matrices, dens = _boundary_rows(p.sequence, asg, segments)
    partial = None
    for k, (lo, hi) in enumerate(segments):
        alive = p.results[lo].intersection(*p.results[lo + 1:hi + 1])
        if not alive:
            return None, math.prod(dens)
        if k == 0:
            partial = {x: unit for x in sorted(alive)}
        else:
            rows, accs = matrices[k - 1], partial.values()
            partial = {y: kernel(accs, [rows[x][y] for x in partial]) for y in sorted(alive)}
    return summed(partial.values(), asg.algebra.dim), math.prod(dens)


def amplitude_of(p: Path, asg: Assignment) -> Amplitude:
    """Sum over threads of the left-to-right product of step amplitudes
    (see ``_thread_sums``); impossible paths are the zero amplitude."""
    return _result(asg, *_thread_sums(p, asg))


def probability_of(p: Path, asg: Assignment) -> ProbabilityResult:
    """The generalized Born rule: probability = Q(amplitude)."""
    sums, denominator = _thread_sums(p, asg)
    return ProbabilityResult(amplitude=_result(asg, sums, denominator),
                             probability=_born(asg, sums, denominator))


def _close(a, b) -> bool:
    """a == b when both are exact; otherwise |a - b| within FLOAT_RTOL
    times the larger magnitude (at least 1), and never for an infinity."""
    exact = is_exact((a, b))
    ((a, b),), _ = lower([(a, b)], exact)
    return a == b if exact else abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b), 1.0) < math.inf


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


def _digits(n: int) -> int:
    """How many decimal digits n != 0 has; its float log10 is at most one off."""
    n = abs(n)
    k = int(math.log10(n))
    return k - 1 + sum(10 ** j <= n for j in (k - 1, k, k + 1))


def _shown(value) -> str:
    """str(value), or its size past Python's int/str digit limit (left as set)."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, Fraction):
            return f"a fraction of {_digits(value.numerator)}/{_digits(value.denominator)} digits"
        return f"an integer of {_digits(value)} digits"


def validate_assignment(s: MeasurementSequence, asg: Assignment) -> ValidationReport:
    """Check the assignment invariants along a sequence, report per check.

    Weakly equivalent consecutive pairs carry the forced identity (always
    satisfied by construction).  For every cross-ground pair the matrix
    must exist, the lowered rows of two stored directions must be mutual
    conjugate transposes, and each row x must be normalized: the sum rule
    of the two atomic measurements of the pair from {x} is one.  So is the
    sum rule of the sequence from every source element.  A sum rule fails
    on a missing matrix or a non-scalar sum, with the error as detail.  In
    float mode a sum rule, of a row or of the sequence, fails on the first
    entry lowered to an infinity or NaN among the rows its recursion reads,
    named as detail, before its total (an infinity times a zero gives NaN).
    """
    entries = [ValidationEntry("associative_algebra", asg.algebra.kind.label,
                               asg.algebra.kind.is_associative)]

    def sum_rule(check, location, steps, x, what):
        try:
            bad = None if asg.is_exact else _first_non_finite(steps, x, asg)
            if bad is not None:
                ok, detail = False, f"entry {bad[0]} -> {bad[1]} is not finite"
            else:
                total = total_probability(steps, frozenset({x}), asg)
                ok, detail = _close(total, 1), f"{what} is {_shown(total)}"
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
                c * d_forward for c in asg.algebra.conj(backward[y][x])]
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


def _first_non_finite(s: MeasurementSequence, x: str,
                      asg: Assignment) -> Optional[Tuple[str, str]]:
    """The first lowered entry (x', y) that is not finite among the rows the
    sum rule of s from {x} reads: row x of the first run boundary, every row
    of the later ones; in boundary order, then sorted x' and y.  Raises
    SequenceMismatch when the assignment lacks a matrix."""
    matrices, _ = _boundary_rows(s, asg, model.runs(s))
    for k, rows in enumerate(matrices):
        for x2 in [x] if k == 0 else sorted(rows):
            for y in sorted(rows[x2]):
                if not all(map(math.isfinite, rows[x2][y])):
                    return x2, y
    return None


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
    class order, multiplied by the algebra's kernel and conjugated by
    ``Algebra.conj``.
    """
    kernel, conj, unit = algebra.kernel, algebra.conj, algebra.unit().coeffs
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
                right = [conj(rows[x2][y]) for y in targets]
                columns[x2] = {x: kernel(left[x], right) for x in cls}
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
    total = _result(asg, summed(pairs, asg.algebra.dim), math.prod(den * den for den in dens))

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

    Every path is evaluated in one batched pass per weak-equivalence run,
    the walk of ``_thread_sums`` on numpy arrays (float64 in float mode,
    Python ints of object dtype in exact mode).  After run k each of the d
    coefficients is one array over (row, slot).  A row is a live prefix:
    a parent row followed by one of the run's result combinations that
    keep an element, ranked in path order; its paths through a combination
    that keeps none have probability 0.  Slot t holds the row's partial
    thread sum onto its t-th sorted surviving element, and the slots past
    its survivors are padding that holds zeros.  At each run boundary one
    kernel call sums over the parent's slots t, with the lowered matrix
    padded by a zero row and column, so a padded slot meets zeros on both
    sides; the padded slots are then reset to zero, since an infinite entry
    times a padded zero leaves a NaN there.  The padding changes no bit:
    the kernel's accumulator starts as 0 + ..., so it is never -0.0, slot 0
    is never padding, and adding +0.0 leaves any other value as it is.  The
    Born leaf sums each row's slots by ``summed`` and takes
    ``algebra.quadratic_form_columns``.  So every probability equals
    ``probability_of(p, asg).probability`` bit for bit, and the first path
    whose product is not scalar raises that error.  The working arrays are
    freed before the table is built.  Bounded by DEFAULT_PATH_BOUND through
    ``model.check_path_bound``.
    """
    import numpy as np

    source = frozenset(source)
    model.check_path_bound(s)
    _check_source(s, source)
    algebra = asg.algebra
    segments = model.runs(s)
    matrices, dens = _boundary_rows(s, asg, segments)
    choices = [[source]] + [model.sorted_blocks(m.blocks) for m in s.steps[1:]]
    paths = model.paths_over(s, choices)
    probabilities = [0] * len(paths)
    # a single run has no matrix: its sums stay ints, as _thread_sums gives them
    dtype = float if matrices and not asg.is_exact else object
    # rank: each row's rank in path order.  coeffs: arrays over (parent row,
    # live combination, slot), the first two axes together being the rows
    rank = np.zeros(1, np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (lo, hi) in enumerate(segments):
            ground = sorted(s.steps[lo].element_set())
            combos = list(itertools.product(*choices[lo:hi + 1]))
            # each combination's surviving elements, as sorted positions in the ground
            alive = [[i for i, x in enumerate(ground) if all(x in r for r in combo)]
                     for combo in combos]
            live = [c for c, survivors in enumerate(alive) if survivors]
            if not live:
                break
            width = max(map(len, alive))
            # ys[c, t]: the t-th survivor of the c-th live combination, or
            # len(ground), the padding position, past its survivors
            ys = np.array([alive[c] + [len(ground)] * (width - len(alive[c])) for c in live])
            if k == 0:
                coeffs = tuple(np.full((1, *ys.shape), u, dtype) for u in algebra.unit().coeffs)
            else:
                # the lowered matrix [x, y, i], a zero row and column at the padding positions
                block = np.zeros((len(previous) + 1, len(ground) + 1, algebra.dim), dtype)
                block[:-1, :-1] = [[matrices[k - 1][x][y] for y in ground] for x in previous]
                # over (parent row, parent combination, combination, slot), with
                # xs the parent run's ys: one parent slot t at a time
                coeffs = algebra.kernel(
                    (tuple(c[:, :, t, None, None] for c in coeffs) for t in range(xs.shape[1])),
                    (tuple(block[xs[:, t, None, None], ys, i] for i in range(algebra.dim))
                     for t in range(xs.shape[1])))
            # padding back to zero: an infinite entry times a padded zero is NaN
            coeffs = tuple(np.where(ys < len(ground), c, 0).reshape(-1, *ys.shape)
                           for c in coeffs)
            rank = (rank[:, None] * len(combos) + live).ravel()
            previous, xs = ground, ys
        else:
            coeffs = summed([tuple(c[..., t].ravel() for c in coeffs) for t in range(width)],
                            algebra.dim)
            born = quadratic_form_columns(algebra, coeffs, math.prod(dens), asg.is_exact)
            for r, q in zip(rank.tolist(), born):
                probabilities[r] = q
            del coeffs, rank, born  # freed before the table is built
    return list(zip(paths, probabilities))


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
    if not abs(mass - 1.0) <= DISTRIBUTION_TOL:  # a NaN mass fails too
        raise NotADistribution(f"path probabilities sum to {mass}, not 1")
    import numpy as np

    weights = np.asarray(probs, dtype=float)
    counts = np.random.default_rng([seed, 0]).multinomial(n, weights / weights.sum())
    return [(p, int(c), q) for (p, q), c in zip(table, counts)]


def sample(s: MeasurementSequence, source: frozenset, asg: Assignment,
           n: int, seed: int) -> Dict[Path, int]:
    """The counts of ``sample_rows``, keyed by path."""
    return {p: c for p, c, _ in sample_rows(s, source, asg, n, seed)}
