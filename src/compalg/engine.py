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
Outside the sum rules (the float one's block matrices, the exact one's
int diagonal) the engine has no coefficient arithmetic of its own:
``Algebra.kernel`` forms every product (on numpy arrays through its array
twin ``kernel.columns``, the same operations in the same order),
``Algebra.conj`` every conjugate and ``algebra.summed`` every sum, in a
fixed order; ``algebra.lift`` rebuilds a result once, at the end, as
floats in float mode, so a single run's unit, which reads no matrix, is
1.0 there.

A path evaluates to the sum over threads: one surviving element per
weak-equivalence run, multiplied through the cross-ground matrices left
to right; its probability is Q of that sum (``algebra.quadratic_form_over``),
and an impossible path is zero.  ``amplitude_of`` walks one path run by
run; sampling evaluates every path from the source with the same
operations, one batched pass per run, on one numpy array over
(coefficient, class, row, slot): a row per live prefix, a slot per
surviving element, and zero padding past a row's survivors, multiplied by
``kernel.columns`` once per run boundary, every parent slot at once on the
product's trailing pair axis.  It is bounded by
``model.DEFAULT_PATH_BOUND``, checks the probabilities as one array and
ends in one multinomial draw; the paths are built after the numeric pass.

Sum rules are computed without listing paths, by a backward recursion
over pairs of threads that share a detector at every step.  In exact mode
it reads the same lowered rows in place, through the kernel, conjugating
the right-hand factor, and carries only the real diagonal of each
Hermitian pair state, as ints, and one triangle: across an atomic run
boundary it multiplies the diagonal by the pair's Born matrix of entry
norms Q(E(x, y)), kept per ground pair in the assignment
(``Assignment.born_rows``), and calls no kernel.  In float mode it
multiplies real block matrices in numpy: each entry as its d x d matrix
of left multiplication, built from the kernel on basis pairs and kept per
ground pair in the assignment (``Assignment.real_blocks``), its
conjugate as the adjoint under the norm form, with the tolerance bound's
recursion over the entry norms in the same pass: one masked product per
run boundary, from the atomic last run down to run 1, then one stacked
product over the sources' row blocks of the first boundary, so a source's
float total has the same bits whether it is asked alone or with every
other source.

Every evaluator reads what depends on the sequence alone from its plan,
``MeasurementSequence.plan``, built once per sequence: the runs and their
grounds, each run's same-block classes over its whole ground, each step's
sorted blocks and each class's rank in path order.  The walk of one path
reads only the runs and grounds, the sequence's ``frame``.  A run's class
is the set of elements that one of its result combinations keeps alive:
the sum rule pairs threads within a class, and the sampler takes each
class as one live combination, placed by its rank.  The sampler and the
float sum rule read the plan as numpy arrays, its ``_layout``, built on
first use and kept with the sequence: per run the class-by-slot positions
over the sorted ground, the padding slots, the class ranks and the
same-class mask.  What depends on one ground pair alone is kept in the
assignment, built on first use by the kernel in place
(``Assignment._built_by_kernel``): the Born matrix, the real blocks, the
sampling table's padded block, already gathered for the array product, the
row checks and the adjoint verdict.  Nothing whose size grows with the
number of paths is kept after a call: the table's rows, ranks and paths
are built per call.  From a source, the sum rule and the
sampler read the source's row at the first run boundary and every row of
the later ones, and no other row; validation runs one sum rule from every
source at once, with every row of the first boundary.  In float mode a
total or a sampling mass that is not finite through one of those entries
names the first such entry (NotADistribution); ``name_non_finite_entry``
does the same over the entries one path's walk reads.  Row normalization
is a row sum of the pair's Born matrix.

Exact and float mode differ in two rules, each written once: a value that
must be scalar goes through ``algebra.scalar_part`` (exact, or within
SCALAR_RTOL of a magnitude), and two values are compared by ``_close``
(equal when both are exact, else within FLOAT_RTOL relative).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

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
    read them over one denominator, from ``lowered``, the exact sum rule
    also as Born matrices, from ``born_rows``, the float sum rule as real
    block matrices, from ``real_blocks``, and the sampling table as one
    zero-padded numpy block over the sorted elements, gathered for the
    array product, from ``padded_block``.  Each is built per ground pair on
    first use and kept, so repeated evaluations pay only for their
    products; none depends on a sequence or a source.
    """

    def __init__(self, algebra: Algebra, blocks: Iterable) -> None:
        if not algebra.kind.is_associative:
            raise NonAssociativeAlgebra(
                f"assignments require an associative algebra, got {algebra.kind.label}")
        self.algebra = algebra
        self._rows: Dict[Tuple[frozenset, frozenset], CoeffRows] = {}
        self._lowered: Dict[Tuple[frozenset, frozenset], Tuple[CoeffRows, int]] = {}
        # (kernel, what ``_built_by_kernel`` built with it)
        self._built: Optional[Tuple[object, dict]] = None
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
        on first use (``_built_by_kernel``).
        """
        import numpy as np

        key = (_ground_key(g_from), _ground_key(g_to))

        def build():
            left, gram = self._built_by_kernel("left", self._left_multiplication)
            rows, _ = self.lowered(*key)
            ys = sorted(key[1])
            # columns[i][x, y]: coefficient i of E(x, y); with left d x d x d, B is (n d) x (m d)
            columns = tuple(np.array([[rows[x][y][i] for y in ys] for x in rows], float)
                            for i in range(self.algebra.dim))
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite entry gives NaNs
                blocks = np.einsum("ixy,ikj->xkyj", columns, left)
                return (blocks.reshape(len(rows) * len(left), -1), np.sqrt(squared_norm(columns)),
                        gram)
        return self._built_by_kernel(("real", key), build)

    def padded_block(self, g_from, g_to) -> tuple:
        """(block, D): the ``lowered`` matrix E from one ground to another,
        over its denominator D, as the right operand of the sampling table's
        array product.  E is laid out as one numpy array [i, x, y], the
        coefficient i of E(x, y) over the sorted elements x of g_from and y
        of g_to, with a zero row and column past them, the padding position
        of each ground; float64 in float mode, Python ints of object dtype
        in exact mode.  The block is that array gathered and signed by the
        kernel's ``columns.gather``, over (m, k, x, y), so that a table
        indexes it by element positions and multiplies.  Built on first use
        (``_built_by_kernel``).
        """
        key = (_ground_key(g_from), _ground_key(g_to))

        def build():
            import numpy as np

            rows, den = self.lowered(*key)
            xs, ys = sorted(key[0]), sorted(key[1])
            dtype = object if self.is_exact else float
            block = np.zeros((self.algebra.dim, len(xs) + 1, len(ys) + 1), dtype)
            block[:, :-1, :-1] = np.array([[rows[x][y] for y in ys] for x in xs],
                                          dtype).transpose(2, 0, 1)
            return self.algebra.kernel.columns.gather(block), den
        return self._built_by_kernel(("padded", key), build)

    def _left_multiplication(self) -> tuple:
        """(T^T over its last two axes, G) of ``real_blocks``, as float arrays."""
        import numpy as np

        kernel, basis = self.algebra.kernel, [self.algebra.basis_element(i).coeffs
                                              for i in range(self.algebra.dim)]
        left = np.array([[kernel((a,), (b,)) for b in basis] for a in basis], float)
        gram = np.array([kernel((e,), (self.algebra.conj(e),))[0] for e in basis], float)
        return left.transpose(0, 2, 1), gram

    def born_rows(self, g_from, g_to) -> Dict[str, Dict[str, object]]:
        """The Born matrix of the ``lowered`` matrix E from one ground to
        another over its denominator D, as rows x -> {y: P(x, y)} with
        P(x, y) / D^2 = Q(E(x, y)): ints in exact mode, floats (D = 1) in
        float mode.

        P(x, y) is the e0 of E(x, y) conj(E(x, y)), one kernel call; an
        entry whose product has a nonzero tail goes through
        ``algebra.quadratic_form_over`` over D, whose scalar check raises
        NonScalarProduct showing that product at its true value, over D^2
        (in float mode only for a tail beyond SCALAR_RTOL of its magnitude).
        Built on first use (``_built_by_kernel``).
        """
        key = (_ground_key(g_from), _ground_key(g_to))

        def build():
            rows, den = self.lowered(*key)
            kernel, conj = self.algebra.kernel, self.algebra.conj

            def born(coeffs) -> int:
                square = kernel((coeffs,), (conj(coeffs),))
                if any(square[1:]):  # not scalar: raises
                    quadratic_form_over(self.algebra, coeffs, den, self.is_exact)
                return square[0]
            return {x: {y: born(c) for y, c in row.items()} for x, row in rows.items()}
        return self._built_by_kernel(("born", key), build)

    def _built_by_kernel(self, key, build):
        """build(), kept under key until the algebra's kernel is another
        function: a kernel put in its place gets values built by itself."""
        kernel = self.algebra.kernel
        if self._built is None or self._built[0] is not kernel:
            self._built = (kernel, {})
        built = self._built[1]
        if key not in built:
            built[key] = build()
        return built[key]

    def __getstate__(self) -> dict:
        # the kernel the kept values were built by does not pickle; they are rebuilt on use
        return {**vars(self), "_built": None}

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


def _boundary_rows(plan: model.SequencePlan, asg: Assignment) -> Tuple[list, int]:
    """The lowered matrix from each run of a sequence's plan (or frame) to
    the next and the product of their denominators; raises SequenceMismatch
    when the assignment lacks one."""
    boundaries = [asg.lowered(a, b) for a, b in zip(plan.grounds, plan.grounds[1:])]
    return [rows for rows, _ in boundaries], math.prod(den for _, den in boundaries)


def _thread_sums(p: Path, asg: Assignment) -> Tuple[Optional[tuple], int]:
    """The thread sums of one path and their denominator.

    A thread picks one surviving element per weak-equivalence run (the
    runs of the sequence's ``frame``): the
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
    matrices, den = _boundary_rows(p.sequence.frame, asg)
    for k, (lo, hi) in enumerate(p.sequence.frame.runs):
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
    probability = 0 if sums is None else quadratic_form_over(asg.algebra, sums, denominator,
                                                             asg.is_exact)
    return ProbabilityResult(amplitude=_result(asg, sums, denominator), probability=probability)


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
    matrices, _ = _boundary_rows(p.sequence.frame, asg)
    alive = [sorted(p.results[lo].intersection(*p.results[lo + 1:hi + 1]))
             for lo, hi in p.sequence.frame.runs]
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
    product = reduce(operator.mul, [probability_of(factor, asg).probability
                                    for factor in model.factorize(p)], 1)
    return _close(probability_of(p, asg).probability, product)


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
    conjugate transposes, and each row x must be normalized: the sum of
    Q(E(x, y)) over the targets y, the row sum of the pair's Born matrix
    (``_row_checks``), is one.  So is the sum rule of the sequence from
    every source element, all sources from one pair-recursion call
    (``_source_totals``), each source's total equal to
    ``total_probability``'s bit for bit, in float mode too.  A check fails
    on a missing matrix, a product that is not scalar or a non-finite entry
    that it reads (see ``total_probability``), with the error as detail.
    """
    entries = [ValidationEntry("associative_algebra", asg.algebra.kind.label,
                               asg.algebra.kind.is_associative)]
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
            adjoint_ok = asg._built_by_kernel(("adjoint", frozenset((a, b))),
                                              lambda: _adjoint_consistent(asg, a, b))
            entries.append(ValidationEntry(
                "adjoint_consistency", loc, adjoint_ok,
                "" if adjoint_ok else "reverse matrix is not the conjugate transpose"))

        for x, (ok, detail) in _row_checks(asg, a, b).items():
            entries.append(ValidationEntry("row_normalization", f"{loc} source {x}", ok, detail))

    for x, total in _source_totals(s, sorted(s.steps[0].element_set()), asg).items():
        entries.append(ValidationEntry("sum_rule", f"source {x}",
                                       *_verdict(total, "total probability over paths")))
    return ValidationReport(tuple(entries))


def _outcome(compute, read=tuple):
    """compute(), or the SequenceMismatch, NonScalarProduct or
    NotADistribution that it raises: a check's value or its failure.  A
    float value that is not finite is the NotADistribution naming the first
    non-finite entry of the rows that it read, which ``read()`` builds only
    then (``_name_non_finite``), if there is one."""
    try:
        value = compute()
        if isinstance(value, float) and not math.isfinite(value):
            _name_non_finite(read())
        return value
    except (SequenceMismatch, NonScalarProduct, NotADistribution) as exc:
        return exc


def _verdict(total, what: str) -> tuple:
    """(passed, detail) of the check that a total is one: passed when it is
    ``_close`` to 1, else the detail is the error raised in its place, or
    what it is and its value."""
    ok = not isinstance(total, Exception) and _close(total, 1)
    return ok, "" if ok else str(total) if isinstance(total, Exception) \
        else f"{what} is {_shown(total)}"


def _adjoint_consistent(asg: Assignment, a: frozenset, b: frozenset) -> bool:
    """Whether the lowered rows of a ground pair stored in both directions
    are mutual conjugate transposes, each over the other's denominator.
    Symmetric in a and b; ``validate_assignment`` keeps its verdict per
    unordered ground pair (``Assignment._built_by_kernel``), so a pair is
    compared once however often a sequence crosses it."""
    (forward, d_forward), (backward, d_backward) = asg.lowered(a, b), asg.lowered(b, a)
    return all([c * d_backward for c in forward[x][y]] == [
        c * d_forward for c in asg.algebra.conj(backward[y][x])]
        for x in a for y in b)


def _row_checks(asg: Assignment, a: frozenset, b: frozenset) -> dict:
    """Row normalization of the ground pair (a, b): each x of a -> the
    ``_verdict`` on the sum of Q(E(x, y)) over the sorted targets y, added
    left to right from zero, the row sum of the pair's Born matrix
    (``Assignment.born_rows``) over D^2, or on the error that building the
    Born matrix raises.  A float sum that is not finite names the row's
    first non-finite entry, if it has one (``_outcome``): such an entry's Q
    is not finite either.  Kept with the Born matrix it sums
    (``Assignment._built_by_kernel``), so a pair is checked once however
    often sequences cross it."""
    def build():
        (rows, den), born, ys = asg.lowered(a, b), _outcome(lambda: asg.born_rows(a, b)), sorted(b)
        return {x: _verdict(born if isinstance(born, Exception) else _outcome(lambda: lift(
            (reduce(operator.add, [born[x][y] for y in ys], 0),), den * den, asg.is_exact)[0],
            lambda: [{x: rows[x]}]), "sum of Q over targets") for x in sorted(a)}
    return asg._built_by_kernel(("row checks", a, b), build)


def _pair_transfer(grounds, classes, read, asg: Assignment) -> Dict[str, int]:
    """Exact mode: the e0 coefficient of S_0(x, x) for every source x of
    run 0 (``classes[0]``, their singletons), each an int over the squared
    product of the boundary denominators, by the backward recursion

        S_last(x, x') = 1 if x = x' else 0
        S_k(x, x')    = sum_y' (sum_y E_k[x][y] S_k+1(y, y')) conj(E_k[x'][y'])

    with S_k(x, x') defined only for x, x' in one class of run k.  ``E_k =
    read[k]``, the lowered matrix from ``grounds[k]`` to ``grounds[k+1]``
    (of E_0 the sources' rows alone), maps a run-k element to a dict over
    the run-(k+1) elements of coefficient tuples, multiplied by the
    algebra's kernel and conjugated by ``Algebra.conj``.  (A float sum rule
    with a run boundary runs ``_block_transfer``.)

    S_k is Hermitian, S_k(x', x) = conj(S_k(x, x')): S_last is, and each
    step keeps it so, as conj is an anti-automorphism of the associative
    algebra.  So S_k(x, x) is self-conjugate, a real scalar, and the
    recursion carries two things: s(x), the e0 of S_k(x, x), for every
    element, and the strict upper triangle S_k(x, x'), x before x' in class
    order, of each class of two or more; the lower triangle is its
    conjugate.  To every s(x), a singleton class {y} of run k+1 adds
    E_k[x][y] s(y) conj(E_k[x][y]) = P_k[x][y] s(y), with P_k the pair's
    Born matrix (``Assignment.born_rows``): across an atomic run boundary
    the recursion is s_k = P_k s_k+1, n^2 int products and no kernel call.
    The classes of two or more of run k+1 enter in factored form: for each
    x the left sums sum_y E_k[x][y] S_k+1(y, y') over each such class, one
    kernel call per y'.  Then one kernel call over them adds their share to
    s(x), and one per pair x < x' of a class of run k forms S_k(x, x') over
    them and the singletons' E_k[x][y] s(y).  So a boundary costs O(n^3)
    kernel products at most.  Each s(x) is computed from row x alone, and
    run 0's classes are singletons, so it needs no triangle: a source's
    value does not depend on which other sources are given.
    """
    algebra = asg.algebra
    kernel, conj, tail = algebra.kernel, algebra.conj, (0,) * (algebra.dim - 1)
    diagonal, upper = {y: 1 for (y,) in classes[-1]}, {}
    for k in range(len(classes) - 2, -1, -1):
        rows = read[k]
        singles = [(cls[0], diagonal[cls[0]]) for cls in classes[k + 1] if len(cls) == 1]
        wide = [cls for cls in classes[k + 1] if len(cls) > 1]
        targets = [y for cls in wide for y in cls]
        # columns[y'] = [S_k+1(y, y') for y in the class of y'], in class order
        columns = {}
        for cls in wide:
            for j, y2 in enumerate(cls):
                columns[y2] = [upper[y, y2] for y in cls[:j]] + [(diagonal[y2],) + tail] \
                    + [conj(upper[y2, y]) for y in cls[j + 1:]]
        born = asg.born_rows(grounds[k], grounds[k + 1]) if singles else {}
        diagonal = {x: sum([born[x][y] * s for y, s in singles]) for x in rows}
        upper = {}
        for cls in classes[k]:
            if not wide and len(cls) == 1:
                continue  # s_k(x) is the Born term alone
            lefts, rights = [], []
            for x in cls:
                row, left = rows[x], []
                for later in wide:
                    entries = [row[y] for y in later]
                    left += [kernel(entries, columns[y2]) for y2 in later]
                right = [conj(row[y]) for y in targets]
                if wide:
                    diagonal[x] += kernel(left, right)[0]
                if len(cls) > 1:
                    lefts.append(left + [tuple([c * s for c in row[y]]) for y, s in singles])
                    rights.append(right + [conj(row[y]) for y, _ in singles])
            for j, x2 in enumerate(cls):
                for i, x in enumerate(cls[:j]):
                    upper[x, x2] = kernel(lefts[i], rights[j])
    return diagonal


def _block_transfer(s: MeasurementSequence, sources: list,
                    asg: Assignment) -> Dict[str, Tuple[tuple, float]]:
    """Float mode: for every source x (``sources``: one element of the
    first step, or every element in sorted order) the coefficients of
    S_0(x, x), and N_0(x, x), the same recursion over the entry norms, in
    one pass over real block matrices.

    With every S_k(y, y') held as its left multiplication L_S(y,y'), a
    homomorphism on an associative algebra, ``_pair_transfer``'s recursion
    is a product of the blocks of ``Assignment.real_blocks`` (B_k, A_k for
    the pair of grounds k, k+1), masked by D_k, which holds where two
    elements of run k share a class: the run's ``same_class`` mask, kept
    with the sequence (``_layout``).  The conjugate entries are G B_k^T G
    blockwise (G the diagonal of the norm form, ``real_blocks``), so the
    recursion carries X_k = S_k (I (x) G) and needs no other block.  The
    last run ends in an atomic step, so its D is I, and every run boundary
    after the first takes the same masked product:

        X_last = I (x) G                           N_last = I
        X_k    = D_k (x) 1_dxd ? B_k X_k+1 B_k^T   N_k    = D_k ? A_k N_k+1 A_k^T

    ``where``, not a product with the mask, so that an infinity met outside
    the mask leaves a zero, not a NaN; the n x n mask broadcasts over the
    (n, d, n, d) view of the product.  Run 0's classes are the sources'
    singletons, so D_0 is the identity and the first boundary needs each
    source's diagonal block alone: one product R X_1 R^T stacked over the
    sources, R being a source's d x (m d) row block of B_0, and a N_1 a^T
    over its row a of A_0 beside it.  No mask is read there, no other row
    enters a result, and a source's block is the same product whichever
    other sources are given.  X_0(x, x) is L_S_0(x,x) G, whose first column
    is S_0(x, x), as G[0] = Q(e_0) = 1.
    """
    import numpy as np

    d, grounds, layout = asg.algebra.dim, s.plan.grounds, _layout(s)
    blocks = [asg.real_blocks(a, b) for a, b in zip(grounds, grounds[1:])]
    pair, norm = np.diag(np.tile(blocks[0][2], len(grounds[-1]))), np.eye(len(grounds[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        # the boundaries after the first, from the last: B_k, A_k and run k's D_k
        for (b, a, _), run in zip(blocks[:0:-1], layout[-2:0:-1]):
            m = len(run.same_class)
            pair = np.where(run.same_class, (b @ pair @ b.T).reshape(m, d, m, d),
                            0.0).reshape(m * d, -1)
            norm = np.where(run.same_class[:, 0, :, 0], a @ norm @ a.T, 0.0)
        (b, a, _), at = blocks[0], [s.plan.classes[0].index((x,)) for x in sources]
        rows, norms = b.reshape(len(a), d, -1)[at], a[at, None, :]
        pair = rows @ pair @ rows.transpose(0, 2, 1)
        norm = norms @ norm @ norms.transpose(0, 2, 1)
    # + 0.0: no -0.0, as the kernel's sums start from 0
    return {x: (tuple((pair[i, :, 0] + 0.0).tolist()), float(norm[i, 0, 0]))
            for i, x in enumerate(sources)}


def _name_non_finite(read) -> None:
    """Raise NotADistribution naming the first entry of the read rows that
    is not finite, in boundary order, then sorted x' and y; float rows only."""
    for rows in read:
        for x2, row in rows.items():
            for y in sorted(row):
                if not all(map(math.isfinite, row[y])):
                    raise NotADistribution(f"entry {x2} -> {y} is not finite")


def _rows_from(s: MeasurementSequence, x: str, asg: Assignment) -> list:
    """The lowered rows that the sum rule and the sampling table from {x}
    read, for ``_name_non_finite``: x's row of the first run boundary and
    every row of the later ones."""
    matrices, _ = _boundary_rows(s.plan, asg)
    return [{x: matrices[0][x]}, *matrices[1:]]


def _source_totals(s: MeasurementSequence, sources: list, asg: Assignment) -> dict:
    """The sum rule from each element x of ``sources``, one element or
    every element of the first step in sorted order, by one pair-recursion
    call on the sequence's plan (see ``total_probability``): x -> the total
    from {x}, or the error raised for it.  Run 0's classes are the sources'
    singletons, as step 0 is atomic, and of the first run boundary only
    their rows are read.  A total is computed from its source's row alone,
    so it equals ``total_probability``'s bit for bit, in float mode too:
    the first boundary is one product per source (``_block_transfer``).  A
    missing matrix (SequenceMismatch, the first missing pair along the
    sequence) and, in exact mode, a product that is not scalar
    (NonScalarProduct, when a Born matrix is built) fail every source; in float mode a tail that is not
    scalar, or a total that is not finite (``_outcome``), fails its own
    source, and only a total that is not finite gathers the lowered rows it
    read (``_rows_from``).
    """
    try:
        if asg.is_exact or len(s.plan.runs) == 1:  # a single run: its unit, 1.0 in float
            matrices, den = _boundary_rows(s.plan, asg)
            classes, read = [[(x,) for x in sources], *s.plan.classes[1:]], \
                [{x: rows[x] for x in sources} for rows in matrices[:1]] + matrices[1:]
            diagonal = _pair_transfer(s.plan.grounds, classes, read, asg)
            return {x: lift((diagonal[x],), den * den, asg.is_exact)[0] for x in sources}
        blocks = _block_transfer(s, sources, asg)
    except (SequenceMismatch, NonScalarProduct) as exc:
        return dict.fromkeys(sources, exc)
    return {x: _outcome(lambda: scalar_part(_result(asg, sums, 1), False, lambda: bound,
                                            "summed pair products"), lambda: _rows_from(s, x, asg))
            for x, (sums, bound) in blocks.items()}


def total_probability(s: MeasurementSequence, source: frozenset,
                      asg: Assignment) -> object:
    """Sum of path probabilities over all paths starting from the source result.

    Sum_paths Q(Sum_threads a_t) = e0 of Sum a_t conj(a_t') over the thread
    pairs (t, t') that share a detector at every step, since such a pair
    lies on exactly one path and any other pair on none.  With associativity
    the pair sum nests into a backward recursion over the weak-equivalence
    runs k, with E_k the lowered matrix from run k to run k+1:

        S_last(x, x') = 1 if x = x' else 0
        S_k(x, x')    = D_k(x, x') Sum_y' (Sum_y E_k(x, y) S_k+1(y, y')) conj(E_k(x', y'))

    where D_k(x, x') holds when x and x' lie in one same-block class of run
    k (one block at every step of the run).  Both ends are atomic: the last
    run's D is the identity, and run 0 is the one element x of the source.
    The total is the e0 coefficient of S_0(x, x).  It needs no path bound.
    E_k is lowered over its denominator q_k (1 in float mode), so in exact
    mode the recursion runs over integers, S_k carrying q_k^2 ... q_last^2,
    and the total is divided by the product of the q_k^2 once.

    The runs, their grounds and their classes are read from the sequence's
    plan (``MeasurementSequence.plan``), built once per sequence; the
    source must be a block of the first step, else NotADistribution.  The
    recursion reads row x of E_0 and every row of the later E_k, and
    nothing else; ``validate_assignment`` runs it once for every source at
    once (``_source_totals``), with every row of E_0, and gets each
    source's total as this function does, bit for bit.  In exact mode it
    runs on the kernel over the lowered rows (``_pair_transfer``), carrying
    the real diagonal of each Hermitian S_k and one triangle: across an
    atomic run boundary it is a product of the pair's Born matrix P_k =
    Q(E_k) with the diagonal, n^2 int products, so it costs O(L n^2) on
    atomic runs and O(L n^3) algebra products in general, for L runs over
    grounds of at most n elements.  Each entry's Q is taken once per pair
    (``Assignment.born_rows``), with the scalar check of
    ``algebra.quadratic_form_over``, so an a * conj(a) that is not scalar
    raises NonScalarProduct there; the total is the diagonal's int, scalar
    by construction.  In float mode it is a
    product of real block matrices in numpy (``_block_transfer``), O(L (n
    d)^3) float operations, one masked product per run boundary after the
    first and, at the first, one product over the source's row block, which
    carries the same recursion over the norms of the entries, N_0, in the
    same pass; the summed imaginary tail must vanish within SCALAR_RTOL
    times N_0, which bounds the magnitude of every term summed, by
    ``algebra.scalar_part`` as for quadratic_form, else NonScalarProduct is
    raised.  A single run reads no row: its total is the unit, 1.0 in float
    mode.

    In float mode a total that is not finite is traced to those rows
    (``_rows_from``) by ``_name_non_finite``, which ``sample_rows`` calls on
    the same rows: the first entry that is not finite, in boundary order, then sorted x' and y, raises
    NotADistribution naming it.  A finite total hides none: each entry
    read meets S_k+1(y, y) in a product, and a non-finite entry turns its
    whole block of B_k non-finite, which every later product carries into
    the total.  A total that overflows from finite entries is returned as
    it is.
    """
    if frozenset(source) not in s.steps[0].blocks:
        raise NotADistribution("no paths start at the given source result")
    (total,) = _source_totals(s, sorted(source), asg).values()
    if isinstance(total, Exception):
        raise total
    return total


# -- sampling --------------------------------------------------------------------

class _RunLayout(NamedTuple):
    """One weak-equivalence run of a sequence as numpy arrays over its
    sorted ground of n elements (``_layout``): its C same-block classes
    (``SequencePlan.classes``), each padded to W slots.

    - ``slots[c, t]``: the position of class c's t-th element, or n, the
      padding position, past its elements;
    - ``padding``: the (class, slot) index arrays of the padding slots, or
      None when every class fills its W slots;
    - ``index[c, 0]``: class c's rank among the run's result combinations
      (``SequencePlan.ranks``);
    - ``radix``: the count of those combinations, the base of the run's
      digit in a path's rank;
    - ``same_class[x, 0, x', 0]``: x and x' share a class, the mask D_k of
      the float sum rule (``_block_transfer``), which reads it for every
      run after the first; run 0's is the identity.
    """

    slots: object
    padding: Optional[tuple]
    index: object
    radix: int
    same_class: object


def _layout(s: MeasurementSequence) -> Tuple[_RunLayout, ...]:
    """The ``_RunLayout`` of every run of the sequence's plan, built on first
    use and kept with the sequence, in its own dict as its cached ``plan``
    is.  Its size is that of the grounds, whatever the number of paths."""
    kept = vars(s).get("_layout")
    if kept is not None:
        return kept
    import numpy as np

    plan, kept = s.plan, []
    for (lo, hi), ground, classes, ranks in zip(plan.runs, plan.grounds, plan.classes,
                                                plan.ranks):
        at = {x: i for i, x in enumerate(sorted(ground))}
        width = max(map(len, classes))
        slots = np.array([[at[x] for x in cls] + [len(at)] * (width - len(cls))
                          for cls in classes])
        padded = slots == len(at)
        label = np.empty(len(at), np.int64)
        for c, cls in enumerate(classes):
            label[[at[x] for x in cls]] = c
        kept.append(_RunLayout(
            slots, np.nonzero(padded) if padded.any() else None, np.array(ranks)[:, None],
            math.prod(map(len, plan.choices[max(lo, 1):hi + 1])),
            (label[:, None] == label)[:, None, :, None]))
    kept = vars(s)["_layout"] = tuple(kept)
    return kept


def _probabilities(s: MeasurementSequence, source: frozenset,
                   asg: Assignment) -> Tuple[list, list]:
    """The numeric pass of ``path_probabilities``: the blocks each step
    offers (``model.paths_over``'s choices, the plan's with the source
    alone at step 0) and every path's probability, in path order; no
    ``Path`` is built."""
    import numpy as np

    model.check_path_bound(s)
    if frozenset(source) not in s.steps[0].blocks:
        raise NotADistribution("no paths start at the given source result")
    plan, layout = s.plan, _layout(s)
    blocks = [asg.padded_block(a, b) for a, b in zip(plan.grounds, plan.grounds[1:])]
    den = math.prod(den for _, den in blocks)
    algebra, d = asg.algebra, asg.algebra.dim
    choices = [[frozenset(source)], *plan.choices[1:]]
    c = plan.classes[0].index(tuple(source))
    # coeffs over (coefficient, class, row, slot), a row being a parent class
    # and a parent row, the parent row innermost; rank: each row's rank in path order
    coeffs = np.array(algebra.unit().coeffs, object if asg.is_exact else float).reshape(d, 1, 1, 1)
    rank, parents = layout[0].index[c], layout[0].slots[c:c + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for run, (block, _) in zip(layout[1:], blocks):
            # over (coefficient, class, parent class, parent row, slot, parent slot)
            coeffs = algebra.kernel.columns(
                coeffs[:, None, :, :, None, :],
                block[:, :, parents[None, :, None, None, :], run.slots[:, None, None, :, None]])
            coeffs = coeffs.reshape(d, len(run.slots), -1, run.slots.shape[1])
            if run.padding is not None:
                # back to zero: an infinite entry times a padded zero is NaN
                coeffs[:, run.padding[0], :, run.padding[1]] = 0
            rank = (rank * run.radix + run.index).ravel()
            parents = run.slots
        # each row's slots summed by ``summed``, each slot over (coefficient, row)
        sums = summed(coeffs.reshape(d, -1, coeffs.shape[-1]).transpose(2, 0, 1), d)
        del coeffs
        born = quadratic_form_columns(algebra, sums, den, asg.is_exact)
    probabilities = [0] * math.prod(map(len, choices))
    for r, q in zip(rank.tolist(), born):
        probabilities[r] = q
    return choices, probabilities


def path_probabilities(s: MeasurementSequence, source: frozenset,
                       asg: Assignment) -> List[Tuple[Path, object]]:
    """Every path from the source result with its probability, in
    ``enumerate_paths`` order (``path_key`` order within the sequence).

    Every path is evaluated in one batched pass per weak-equivalence run,
    on the sequence's plan (``MeasurementSequence.plan``), reading the rows
    that ``total_probability`` reads: the source's row at the first run
    boundary and every row of the later ones.  A run's elements are those
    of its same-block classes (the source element for run 0).  The pass is
    the walk of ``_thread_sums`` on one numpy array (float64 in float mode,
    single runs included, Python ints of object dtype in exact mode); an
    impossible path's entry is the exact 0 in either mode.  After run k
    the array is over (coefficient, class, row, slot), a row being a parent
    class and a parent row, the parent row innermost.  A row is a live
    prefix: a parent row followed by one of the run's classes.  The class's
    detectors are the one result combination of the run that keeps its
    elements alive, and the plan holds its rank in path order, a
    mixed-radix number over the sorted blocks of the run's steps; every
    other combination keeps no element, so its paths have probability 0.
    Slot t holds the row's partial thread sum onto the class's t-th sorted
    element, and the slots past its elements are padding that holds zeros.

    What depends on the sequence alone is read from its ``_layout``, kept
    with it: each run's class-by-slot positions over its sorted ground, its
    padding slots, its class ranks and its radix; the source adds only
    run 0's class.  What depends on a ground pair alone is read from the
    assignment's ``padded_block``, kept there: the lowered matrix over the
    whole sorted grounds, a zero row and column past them, gathered and
    signed for the array product.  At each run boundary the table indexes
    that block by the parent run's and the run's slot positions, and one
    call of the kernel's array product (``kernel.columns``, the kernel's
    operations in its order) multiplies it with the array, every parent
    slot t on the trailing pair axis, and sums over t in order.  A padded
    slot meets zeros on both sides; on a run with padding the padded slots
    are then reset to zero, since an infinite entry times a padded zero
    leaves a NaN there.  The padding changes no bit: the product's sums
    start as 0 + ..., so they are never -0.0, slot 0 is never padding, and
    adding +0.0 leaves any other value as it is.  The Born leaf sums each
    row's slots by ``summed`` and takes ``algebra.quadratic_form_columns``,
    one more call of ``kernel.columns``.  So every probability equals
    ``probability_of(p, asg).probability`` bit for bit, and the first path
    whose product is not scalar raises that error.  The rows, their ranks
    and the paths are built per call and not kept; the paths after the
    numeric pass, once its arrays are freed.  Bounded by
    DEFAULT_PATH_BOUND through ``model.check_path_bound``.
    """
    choices, probabilities = _probabilities(s, source, asg)
    return list(zip(model.paths_over(s, choices), probabilities))


def sample_rows(s: MeasurementSequence, source: frozenset, asg: Assignment,
                n: int, seed: int) -> List[Tuple[Path, int, object]]:
    """Draw n paths from the exact path distribution, reproducibly.

    Returns one (path, count, probability) row per path from the source
    result, in ``path_key`` order, with the probabilities of
    ``path_probabilities`` and its path bound.  The counts are one
    multinomial draw seeded with [seed, 0]: they depend on (seed, n) alone.

    A probability that is negative (exactly below 0 in exact mode, below
    -1e-12 in float mode, where rounding may leave a zero just below it) or
    beyond the float range, or a mass off one, raises NotADistribution; the
    first such path is named.  The checks run on one float array of the
    probabilities, clipped to 0, and the mass adds it left to right, as
    ``algebra.summed`` adds, so it reads the same on every Python version.
    In float mode a mass that is not finite names the first non-finite
    entry of the rows the table reads (``_rows_from``, the rows of the sum
    rule from the source) by ``_name_non_finite``, and runs no other
    evaluator: each such entry meets a partial sum in a product, so none is
    hidden behind a finite mass.  The paths are built last, from the
    table's choices.
    """
    if not 0 <= n < MAX_DRAWS:
        raise ValueError(f"number of draws must lie in [0, 2**63), got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    import numpy as np

    choices, probabilities = _probabilities(s, source, asg)
    if asg.is_exact:  # as floats, one beyond the float range an infinity
        (weights,), _ = lower([probabilities], False)
        weights = np.array(weights)
        negative = np.array([q < 0 for q in probabilities], bool)
        failed = negative | np.isinf(weights)
    else:
        weights = np.array(probabilities, float)
        failed = negative = weights < -1e-12
    if failed.any():
        first = int(failed.argmax())
        (p,) = model.paths_over(s, [[c] for c in next(
            itertools.islice(itertools.product(*choices), first, None))])
        if negative[first]:
            raise NotADistribution(f"negative probability {_shown(probabilities[first])} for {p!r}")
        raise NotADistribution(f"probability of {p!r} exceeds the float range")
    weights = np.maximum(weights, 0.0)
    # cumsum adds left to right from the first weight (np.sum adds pairwise)
    mass = float(np.cumsum(weights)[-1])
    if not (asg.is_exact or math.isfinite(mass)):
        _name_non_finite(_rows_from(s, *source, asg))  # step 0 is atomic: one element
    if not abs(mass - 1.0) <= DISTRIBUTION_TOL:  # a NaN mass fails too
        raise NotADistribution(f"path probabilities sum to {mass}, not 1")
    counts = np.random.default_rng([seed, 0]).multinomial(n, weights / weights.sum()).tolist()
    del weights, failed, negative  # freed before the paths are built
    return list(zip(model.paths_over(s, choices), counts, probabilities))


def sample(s: MeasurementSequence, source: frozenset, asg: Assignment,
           n: int, seed: int) -> Dict[Path, int]:
    """The counts of ``sample_rows``, keyed by path."""
    return {p: c for p, c, _ in sample_rows(s, source, asg, n, seed)}
