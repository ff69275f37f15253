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
Outside the float sum rule the engine has no coefficient arithmetic of
its own: ``Algebra.kernel`` forms every product, ``Algebra.conj`` every
conjugate and ``algebra.summed`` every sum, in a fixed order;
``algebra.lift`` rebuilds a result once, at the end.

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
over pairs of threads that share a detector at every step.  In exact mode
it reads the same lowered rows in place, through the kernel, conjugating
the right-hand factor.  In float mode it multiplies real block matrices
in numpy: each entry as its d x d matrix of left multiplication, built
from the kernel on basis pairs and kept per ground pair in the
assignment (``Assignment.real_blocks``), its conjugate as the adjoint
under the norm form, with the tolerance bound's recursion over the entry
norms in the same pass.  The sum rule and the sampler start from one
source frame (``_source_rows``): the source, checked against the first
step, the runs, each run's same-block classes, and the rows that a
recursion from the source reads, the source's row at the first run
boundary and every row of the later ones; neither reads any other row.
A run's class is the set of elements that one of its result
combinations keeps alive: the sum rule pairs threads within a class, and
the sampler takes each class as one live combination.  In float mode a
total or a sampling mass that is not finite through one of those entries
names the first such entry (NotADistribution); ``name_non_finite_entry``
does the same over the entries one path's walk reads.  Row normalization
is the sum rule of a two-step experiment.

Exact and float mode differ in two rules, each written once: a value that
must be scalar goes through ``algebra.scalar_part`` (exact, or within
SCALAR_RTOL of a magnitude), and two values are compared by ``_close``
(equal when both are exact, else within FLOAT_RTOL relative).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .algebra import (
    Algebra, Amplitude, is_exact, lift, lower, quadratic_form_columns, quadratic_form_over,
    scalar_part, squared_norm, summed,
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


def _shape(value) -> str:
    """The type name of a value, item by item for a tuple or list."""
    if isinstance(value, (tuple, list)):
        return f"({', '.join(type(b).__name__ for b in value)})"
    return type(value).__name__


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
    read them over one denominator, from ``lowered``, and the float sum
    rule as real block matrices, from ``real_blocks``.
    """

    def __init__(self, algebra: Algebra, blocks: Iterable) -> None:
        if not algebra.kind.is_associative:
            raise NonAssociativeAlgebra(
                f"assignments require an associative algebra, got {algebra.kind.label}")
        self.algebra = algebra
        self._rows: Dict[Tuple[frozenset, frozenset], CoeffRows] = {}
        self._lowered: Dict[Tuple[frozenset, frozenset], Tuple[CoeffRows, int]] = {}
        # (kernel, its left multiplication, G, real blocks per ground pair): ``real_blocks``
        self._real: Optional[tuple] = None
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
        """The coefficient tuple of one matrix entry, checked against the
        algebra: a sequence of real numbers (``numbers.Real``), not a string."""
        if not isinstance(entry, Amplitude):
            if isinstance(entry, str) or not hasattr(entry, "__iter__"):
                raise ValueError(f"matrix entry must be a sequence of reals, got {_shape(entry)}")
            entry = self.algebra.amplitude(entry)
        if entry.algebra != self.algebra:
            raise ValueError("matrix entry algebra mismatch")
        for c in entry.coeffs:
            if type(c) not in (int, float, Fraction) and not isinstance(c, numbers.Real):
                raise ValueError(f"matrix coefficient must be a real number, got {_shape(c)}")
        return entry.coeffs

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

    def real_blocks(self, g_from, g_to) -> tuple:
        """Float mode: the ``lowered`` matrix E from one ground to another as
        numpy arrays (B, A, G) for the sum rule's block recursion, B and A
        over the sorted elements x of g_from and y of g_to:

        - B, (n d) x (m d): block [x, y] is L_E(x,y), the real d x d matrix
          of left multiplication by E(x, y);
        - A, n x m: A[x, y] is |E(x, y)|, the root of its ``squared_norm``;
        - G, d: the diagonal of the norm form, G[i] = Q(e_i), the same array
          for every pair.

        In a composition algebra conjugation is the adjoint of left
        multiplication under the norm form, L_conj(a) = G L_a^T G, so B
        also gives the conjugate entries.  Left multiplication comes from
        the algebra's kernel on the basis pairs: T[i, k, j] is the e_k
        coefficient of e_i e_j, so T[i] is L_e_i; G[i] is the e_0
        coefficient of e_i conj(e_i).  T, G and each pair's blocks are built
        on first use and kept until the algebra's kernel is another function.
        """
        import numpy as np

        kernel = self.algebra.kernel
        if self._real is None or self._real[0] is not kernel:
            basis = [self.algebra.basis_element(i).coeffs for i in range(self.algebra.dim)]
            left = np.array([[kernel((a,), (b,)) for b in basis] for a in basis], float)
            gram = np.array([kernel((e,), (self.algebra.conj(e),))[0] for e in basis], float)
            self._real = (kernel, left.transpose(0, 2, 1), gram, {})
        _, left, gram, blocks = self._real
        key = (_ground_key(g_from), _ground_key(g_to))
        hit = blocks.get(key)
        if hit is not None:
            return hit
        rows, _ = self.lowered(g_from, g_to)
        ys = sorted(key[1])
        # columns[i][x, y]: coefficient i of E(x, y); B is (n d) x (m d), as left is d x d x d
        columns = tuple(np.array([[rows[x][y][i] for y in ys] for x in rows], float)
                        for i in range(self.algebra.dim))
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite entry gives NaNs
            hit = blocks[key] = (
                np.einsum("ixy,ikj->xkyj", columns, left).reshape(len(rows) * len(left), -1),
                np.sqrt(squared_norm(columns)), gram)
        return hit

    def __getstate__(self) -> dict:
        # the kernel the real blocks were built by does not pickle; they are rebuilt on use
        return {**vars(self), "_real": None}

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


def _boundary_rows(s, asg: Assignment) -> Tuple[list, list, int]:
    """The weak-equivalence runs of a sequence or path, the lowered matrix
    from each run to the next and the product of their denominators;
    raises SequenceMismatch when the assignment lacks one."""
    segments = model.runs(s)
    grounds = [s.steps[lo].element_set() for lo, _ in segments]
    boundaries = [asg.lowered(a, b) for a, b in zip(grounds, grounds[1:])]
    return segments, [rows for rows, _ in boundaries], math.prod(den for _, den in boundaries)


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
    segments, matrices, den = _boundary_rows(p, asg)
    partial = None
    for k, (lo, hi) in enumerate(segments):
        alive = p.results[lo].intersection(*p.results[lo + 1:hi + 1])
        if not alive:
            return None, den
        if k == 0:
            partial = {x: unit for x in sorted(alive)}
        else:
            rows, accs = matrices[k - 1], partial.values()
            partial = {y: kernel(accs, [rows[x][y] for x in partial]) for y in sorted(alive)}
    return summed(partial.values(), asg.algebra.dim), den


def amplitude_of(p: Path, asg: Assignment) -> Amplitude:
    """Sum over threads of the left-to-right product of step amplitudes
    (see ``_thread_sums``); impossible paths are the zero amplitude."""
    return _result(asg, *_thread_sums(p, asg))


def probability_of(p: Path, asg: Assignment) -> ProbabilityResult:
    """The generalized Born rule: probability = Q(amplitude)."""
    sums, denominator = _thread_sums(p, asg)
    return ProbabilityResult(amplitude=_result(asg, sums, denominator),
                             probability=_born(asg, sums, denominator))


def name_non_finite_entry(p: Path, asg: Assignment) -> None:
    """Raise NotADistribution naming the first entry that the walk of
    ``_thread_sums`` reads on p and that is not finite (``_name_non_finite``):
    at each run boundary the rows of the run's sorted survivors, each over
    the next run's survivors.  Float mode only; it returns when every entry
    read is finite, so a result that overflows from finite entries stands.

    ``prob`` calls it on a result that is not finite: such an entry makes
    the walk's sums non-finite, since each meets a partial sum in a product
    (0 * inf is NaN).  ``probability_of`` itself returns the value, as the
    sampling table does.
    """
    segments, matrices, _ = _boundary_rows(p, asg)
    alive = [sorted(p.results[lo].intersection(*p.results[lo + 1:hi + 1])) for lo, hi in segments]
    _name_non_finite([{x: {y: rows[x][y] for y in alive[k + 1]} for x in alive[k]}
                      for k, rows in enumerate(matrices)])


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
    on a missing matrix, a non-scalar sum or a non-finite entry that it
    reads (see ``total_probability``), with the error as detail.
    """
    entries = [ValidationEntry("associative_algebra", asg.algebra.kind.label,
                               asg.algebra.kind.is_associative)]

    def sum_rule(check, location, steps, x, what):
        try:
            total = total_probability(steps, frozenset({x}), asg)
            ok, detail = _close(total, 1), f"{what} is {_shown(total)}"
        except (SequenceMismatch, NonScalarProduct, NotADistribution) as exc:
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


def _same_block_classes(steps, elements) -> Dict[tuple, List[str]]:
    """The elements of a run grouped by the detector holding them at every
    step: the tuple of those detectors -> the class's sorted elements, the
    classes in the order of their first elements.

    Two elements share a class exactly when some path's run over these
    steps keeps both alive: the same-block mask D of the pair recursion.
    A class's detectors are the one result combination of the run that
    keeps exactly its elements alive; any other combination keeps none.
    """
    classes: Dict[tuple, List[str]] = {}
    for x in sorted(elements):
        classes.setdefault(tuple(m.block_containing(x) for m in steps), []).append(x)
    return classes


def _pair_transfer(classes, matrices, algebra: Algebra) -> tuple:
    """S_0(x, x) for the one element x of run 0 (``classes[0] == [[x]]``),
    by the backward recursion

        S_last(x, x') = 1
        S_k(x, x')    = sum_y' (sum_y E_k[x][y] S_k+1(y, y')) conj(E_k[x'][y'])

    with S_k(x, x') defined only for x, x' in one class of run k.  ``E_k =
    matrices[k]`` maps a run-k element to a dict over the run-(k+1)
    elements of coefficient tuples over the (associative) algebra, read in
    class order, multiplied by the algebra's kernel and conjugated by
    ``Algebra.conj``.  (A float sum rule with a run boundary runs
    ``_block_transfer``.)
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
    ((x,),) = classes[0]
    return columns[x][x]


def _block_transfer(grounds, classes, asg: Assignment) -> Tuple[tuple, float]:
    """Float mode: the coefficients of S_0(x, x) for the one element x of
    run 0 (``classes[0] == [[x]]``), and N_0, the same recursion over the
    entry norms, in one pass over real block matrices.

    With every S_k(y, y') held as its left multiplication L_S(y,y'), a
    homomorphism on an associative algebra, ``_pair_transfer``'s recursion
    is a product of the blocks of ``Assignment.real_blocks`` (B_k, A_k for
    the pair of grounds k, k+1), masked by D_k, which holds where two
    elements of run k share a class.  The conjugate entries are G B_k^T G
    blockwise (G the diagonal of the norm form, ``real_blocks``), so the
    recursion carries X_k = S_k (I (x) G) and needs no other block:

        X_last = D_last (x) G                      N_last = D_last
        X_k    = D_k (x) 1_dxd ? B_k X_k+1 B_k^T   N_k    = D_k ? A_k N_k+1 A_k^T

    ``where``, not a product with the mask, so that an infinity met outside
    the mask leaves a zero, not a NaN.  Run 0 slices the source's row of
    B_0 and A_0, so no other row enters the result; X_0 is the d x d matrix
    L_S_0(x,x) G, whose first column is S_0(x, x), as G[0] = Q(e_0) = 1.
    """
    import numpy as np

    d = asg.algebra.dim
    blocks = [asg.real_blocks(a, b) for a, b in zip(grounds, grounds[1:])]
    masks = []  # D_k for the runs k = 1 .. last, over the sorted elements
    for cls in classes[1:]:
        label = {x: c for c, members in enumerate(cls) for x in members}
        ids = np.array([label[x] for x in sorted(label)])
        masks.append(ids[:, None] == ids)
    with np.errstate(over="ignore", invalid="ignore"):
        last, (_, _, gram) = masks[-1], blocks[-1]
        pair = (last[:, None, :, None] * np.diag(gram)[:, None]).reshape(len(last) * d, -1)
        norm = last.astype(float)
        for (b, a, _), mask in zip(blocks[:0:-1], masks[-2::-1]):
            pair = np.where(mask.repeat(d, 0).repeat(d, 1), b @ pair @ b.T, 0.0)
            norm = np.where(mask, a @ norm @ a.T, 0.0)
        (b, a, _), ((x,),) = blocks[0], classes[0]
        i = sorted(grounds[0]).index(x)
        b = b[i * d:(i + 1) * d]
        pair, norm = b @ pair @ b.T, a[i] @ norm @ a[i]
    # + 0.0: no -0.0, as the kernel's sums start from 0
    return tuple((pair[:, 0] + 0.0).tolist()), float(norm)


def _source_rows(s: MeasurementSequence, source,
                 asg: Assignment) -> Tuple[list, list, list, int]:
    """The source frame: the runs of s, each run's same-block classes, the
    rows that a recursion from the source reads and their denominator (see
    ``_boundary_rows``).

    The source {x} must be a block of the first step, else NotADistribution.
    A run's classes (``_same_block_classes``) are over the elements it
    reads: the source at run 0, its whole ground after that.  Of the first
    run boundary only row x is read, of every later one each row, in sorted
    x'; one dict x' -> row per boundary.
    """
    if frozenset(source) not in s.steps[0].blocks:
        raise NotADistribution("no paths start at the given source result")
    segments, matrices, den = _boundary_rows(s, asg)
    classes = [_same_block_classes(s.steps[lo:hi + 1], s.steps[lo].element_set() if k else source)
               for k, (lo, hi) in enumerate(segments)]
    read = [{x2: rows[x2] for x2 in (source if k == 0 else sorted(rows))}
            for k, rows in enumerate(matrices)]
    return segments, classes, read, den


def _name_non_finite(read) -> None:
    """Raise NotADistribution naming the first entry of the read rows that
    is not finite, in boundary order, then sorted x' and y; float rows only."""
    for rows in read:
        for x2, row in rows.items():
            for y in sorted(row):
                if not all(map(math.isfinite, row[y])):
                    raise NotADistribution(f"entry {x2} -> {y} is not finite")


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

    where D_k(x, x') holds when x and x' lie in one same-block class of run
    k (one block at every step of the run, ``_same_block_classes``), and
    run 0 is the one element x of the source (the first step is atomic).
    The total is the e0 coefficient of S_0(x, x).  This costs O(L n^3)
    algebra products for L runs over grounds of at most n elements (in
    float mode O(L (n d)^3) float operations in numpy), and needs no path
    bound.  E_k is lowered over its denominator q_k (1 in float mode), so
    in exact mode the recursion runs over integers, S_k carrying q_k^2 ...
    q_last^2, and the total is divided by the product of the q_k^2 once.

    The recursion reads row x of E_0 and every row of the later E_k, and
    nothing else: the source frame of ``_source_rows``, shared with
    ``path_probabilities``, which also checks the source.  In exact mode it
    runs on the kernel over the lowered rows (``_pair_transfer``).  In
    float mode it is a product of real block matrices in numpy
    (``_block_transfer``), which carries the same recursion over the norms
    of the entries, N_0, in the same pass.  The summed imaginary tail must
    vanish, by ``algebra.scalar_part`` as for quadratic_form: exactly in
    exact mode; in float mode within SCALAR_RTOL times N_0, which bounds
    the magnitude of every term summed.  Otherwise NonScalarProduct is
    raised.

    In float mode a total that is not finite is traced to those rows by
    ``_name_non_finite``, the scan ``sample_rows`` shares: the first entry
    that is not finite, in boundary order, then sorted x' and y, raises
    NotADistribution naming it.  A finite total hides none: each entry
    read meets S_k+1(y, y) in a product, and a non-finite entry turns its
    whole block of B_k non-finite, which every later product carries into
    the total.  A total that overflows from finite entries is returned as
    it is.
    """
    segments, classes, read, den = _source_rows(s, source, asg)
    classes = [[*run.values()] for run in classes]
    if read and not asg.is_exact:
        grounds = [s.steps[lo].element_set() for lo, _ in segments]
        sums, bound = _block_transfer(grounds, classes, asg)
    else:  # exact, or a single run: the unit, with no tail to bound
        sums, bound = _pair_transfer(classes, read, asg.algebra), None
    value = scalar_part(_result(asg, sums, den * den), asg.is_exact, lambda: bound,
                        "summed pair products")
    if not (asg.is_exact or math.isfinite(value)):
        _name_non_finite(read)
    return value


# -- sampling --------------------------------------------------------------------

def path_probabilities(s: MeasurementSequence, source: frozenset,
                       asg: Assignment) -> List[Tuple[Path, object]]:
    """Every path from the source result with its probability, in
    ``enumerate_paths`` order (``path_key`` order within the sequence).

    Every path is evaluated in one batched pass per weak-equivalence run,
    on the source frame of ``total_probability`` (``_source_rows``): the
    source's row at the first run boundary and every row of the later ones
    are the only rows read, and a run's elements are those of its
    same-block classes (the source element for run 0).  The pass is the
    walk of ``_thread_sums`` on numpy arrays (float64 in float mode, Python
    ints of object dtype in exact mode).  After run k each of the d
    coefficients is one array over (row, slot).  A row is a live prefix: a
    parent row followed by one of the run's classes.  The class's
    detectors are the one result combination of the run that keeps its
    elements alive, and its rank in path order is a mixed-radix number over
    the sorted blocks of the run's steps; every other combination keeps no
    element, so its paths have probability 0.  Slot t holds the row's
    partial thread sum onto the class's t-th sorted element, and the slots
    past its elements are padding that holds zeros.  At each run boundary
    one kernel call sums over the parent's slots t, with the lowered matrix
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

    model.check_path_bound(s)
    segments, classes, read, den = _source_rows(s, source, asg)
    algebra = asg.algebra
    choices = [[frozenset(source)]] + [model.sorted_blocks(m.blocks) for m in s.steps[1:]]
    paths = model.paths_over(s, choices)
    probabilities = [0] * len(paths)
    # a single run has no matrix: its sums stay ints, as _thread_sums gives them
    dtype = float if read and not asg.is_exact else object
    # rank: each row's rank in path order.  coeffs: arrays over (parent row,
    # class, slot), the first two axes together being the rows
    rank = np.zeros(1, np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (lo, hi) in enumerate(segments):
            # the run's elements, sorted, each -> its position
            ground = {x: i for i, x in
                      enumerate(sorted(x for cls in classes[k].values() for x in cls))}
            # each class's rank among the run's combinations, a mixed-radix
            # number over the sorted blocks of the run's steps
            radix, index = 1, [0] * len(classes[k])
            for j in range(hi, lo - 1, -1):
                place = {b: i for i, b in enumerate(choices[j])}
                index = [r + radix * place[detectors[j - lo]]
                         for r, detectors in zip(index, classes[k])]
                radix *= len(choices[j])
            width = max(map(len, classes[k].values()))
            # ys[c, t]: the t-th element of the c-th class, or len(ground),
            # the padding position, past its elements
            ys = np.array([[ground[x] for x in cls] + [len(ground)] * (width - len(cls))
                           for cls in classes[k].values()])
            if k == 0:
                coeffs = tuple(np.full((1, *ys.shape), u, dtype) for u in algebra.unit().coeffs)
            else:
                # the lowered matrix [x, y, i], a zero row and column at the padding positions
                block = np.zeros((len(previous) + 1, len(ground) + 1, algebra.dim), dtype)
                block[:-1, :-1] = [[read[k - 1][x][y] for y in ground] for x in previous]
                # over (parent row, parent class, class, slot), with xs the
                # parent run's ys: one parent slot t at a time
                coeffs = algebra.kernel(
                    (tuple(c[:, :, t, None, None] for c in coeffs) for t in range(xs.shape[1])),
                    (tuple(block[xs[:, t, None, None], ys, i] for i in range(algebra.dim))
                     for t in range(xs.shape[1])))
            # padding back to zero: an infinite entry times a padded zero is NaN
            coeffs = tuple(np.where(ys < len(ground), c, 0).reshape(-1, *ys.shape)
                           for c in coeffs)
            rank = (rank[:, None] * radix + index).ravel()
            previous, xs = ground, ys
        coeffs = summed([tuple(c[..., t].ravel() for c in coeffs) for t in range(width)],
                        algebra.dim)
        born = quadratic_form_columns(algebra, coeffs, den, asg.is_exact)
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

    A probability that is negative or beyond the float range, or a mass
    off one, raises NotADistribution.  In float mode a mass that is not
    finite names the first non-finite entry the table reads, by the scan
    of ``total_probability``: each such entry meets a partial sum in a
    product, so none is hidden behind a finite mass.
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
    if not (asg.is_exact or math.isfinite(mass)):
        _name_non_finite(_source_rows(s, source, asg)[2])
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
