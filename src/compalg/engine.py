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
representation: each ground pair lowered once, on first use, to columns y
-> {x: coefficient tuple}, the targets y sorted, by ``algebra.lower`` (ints
over one denominator in exact mode, decided by ``algebra.is_exact``; floats
over 1 otherwise).
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
run, one kernel call per surviving element on its lowered column over the
previous run's survivors, read by one C-level gather per run boundary
from the columns of the sequence's frame, kept per frame in the
assignment; sampling evaluates every path from the source with the same
operations, one batched pass per run, on one numpy array over
(coefficient, class, row, slot): a row per live prefix, a slot per
surviving element, and zero padding past a row's survivors, multiplied by
``kernel.columns`` once per run boundary, every parent slot at once on the
product's trailing pair axis.  It is bounded by
``model.DEFAULT_PATH_BOUND``, checks the probabilities as one array and
ends in one multinomial draw (``_draw_rows``), with no ``Path`` built and
no per-path probability listed: ``sample`` builds the paths after the draw,
to key its counts, and ``compalg sample`` lists every path's probability
(``_draw``) and writes its rows from per-block fragments.

Sum rules are computed without listing paths, by a backward recursion
over pairs of threads that share a detector at every step.  In exact mode
it reads the same lowered columns in place, through the kernel, with the
right-hand factors conjugated once per ground pair and kept
(``Assignment.conjugated``), and carries only the real diagonal of each
Hermitian pair state, as ints, and the strict upper triangle of each class
of two or more.  Each diagonal entry is the pair's Born matrix of entry
norms Q(E(x, y)), kept per ground pair in the assignment
(``Assignment.born_rows``), times the next diagonal, plus twice the e0 of
the cross terms that the next run's upper triangles carry, one kernel call
per element of a class after its first and one more per row; so across an
atomic run boundary it calls no kernel, and a row in a class of two or
more reads its diagonal from the left sums that its triangle needs.  In
float mode it multiplies real block matrices in numpy: each entry as its d
x d matrix of left multiplication, built from the kernel on basis pairs and
kept per ground pair in the assignment (``Assignment.real_blocks``), its
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
(``Assignment._built_by_kernel``): the Born matrix, the conjugate
entries, the real blocks, the sampling table's padded block, already
gathered for the array product, the row checks and the adjoint verdict; so
are, per sequence frame, the list of its boundaries' lowered columns,
which the walk and the exact sum rule read (``_frame_columns``), and the
list of their padded blocks, which the sampler reads (``_frame_blocks``).  Nothing whose size grows with the
number of paths is kept after a call: the table's rows, ranks, weights and
paths are built per call.  From a source, the sum rule and the
sampler read the source's row at the first run boundary and every row of
the later ones, and no other row; validation runs one sum rule from every
source at once, with every row of the first boundary.  Row normalization
is a row sum of the pair's Born matrix.  A float-mode coefficient that is
not finite is rejected where the assignment is built, so every lowered
float entry is finite; a float result that overflows from finite entries
is returned as it is, an infinity or a NaN.

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
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

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
    if isinstance(g, frozenset):
        return g
    return g.element_set() if isinstance(g, (GroundSet, Measurement)) else frozenset(g)


#: A matrix as columns y -> {x: coefficient tuple}, the lowered form.
CoeffColumns = Dict[str, Dict[str, tuple]]

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
    they are the identity by construction.  In float mode (some coefficient
    is neither an int nor a Fraction, ``is_exact``) every coefficient must
    be finite as a float: a NaN, an infinity, or an int or Fraction beyond
    the float range raises ValueError naming the first such entry, in the
    order the triples, rows and columns were given.  This is the one
    finiteness check on coefficients; the evaluators read finite entries.

    A matrix is stored as given, rows x -> {y: coefficient tuple}; the
    evaluators read it as columns y -> {x: coefficient tuple} over one
    denominator, from ``lowered``, the one lowered form, which the walk of
    a path reads a target's column at a time; the exact sum rule also as
    Born matrices, from ``born_rows``, and with its entries conjugated,
    from ``conjugated``, the float sum rule as real block
    matrices, from ``real_blocks``, and the sampling table as one
    zero-padded numpy block over the sorted elements, gathered for the
    array product, from ``padded_block``.  Each is built per ground pair on
    first use and kept, so repeated evaluations pay only for their
    products; none depends on a sequence or a source.  The lists of a
    sequence frame's run-boundary columns and padded blocks are kept too
    (``_frame_columns``, ``_frame_blocks``).
    """

    def __init__(self, algebra: Algebra, blocks: Iterable) -> None:
        if not algebra.kind.is_associative:
            raise NonAssociativeAlgebra(
                f"assignments require an associative algebra, got {algebra.kind.label}")
        self.algebra = algebra
        # the stored matrices as rows x -> {y: coefficient tuple}, as given
        self._rows: Dict[Tuple[frozenset, frozenset], Dict[str, Dict[str, tuple]]] = {}
        self._lowered: Dict[Tuple[frozenset, frozenset], Tuple[CoeffColumns, int]] = {}
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
        if not self.is_exact:
            for x, y, coeffs in ((x, y, c) for rows in self._rows.values()
                                 for x, row in rows.items() for y, c in row.items()):
                try:
                    if all(map(math.isfinite, coeffs)):
                        continue
                except OverflowError:  # an int or Fraction beyond the float range
                    pass
                raise ValueError(f"non-finite coefficient in entry {x} -> {y}")

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

    def lowered(self, g_from, g_to) -> Tuple[CoeffColumns, int]:
        """The matrix E from one ground to another as columns y -> {x: d
        coefficients} over one denominator D, E(x, y) at ``[y][x]``: the
        stored matrix, else the conjugate transpose of the stored reverse,
        whose row y conjugated is column y.  The targets y are sorted, the
        sources x in the order the stored matrix holds them.

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
        columns = {y: {} for y in sorted(key[1])}
        for (x, y), c in zip(pairs, coeffs):
            if reversed_:
                columns[x][y] = self.algebra.conj(c)
            else:
                columns[y][x] = c
        hit = self._lowered[key] = (columns, den)
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
            columns, _ = self.lowered(*key)
            xs = sorted(key[0])
            # coeffs[i][x, y]: coefficient i of E(x, y); with left d x d x d, B is (n d) x (m d)
            coeffs = tuple(np.array([[column[x][i] for column in columns.values()] for x in xs],
                                    float) for i in range(self.algebra.dim))
            with np.errstate(over="ignore", invalid="ignore"):  # an entry's norm may overflow
                blocks = np.einsum("ixy,ikj->xkyj", coeffs, left)
                return (blocks.reshape(len(xs) * len(left), -1), np.sqrt(squared_norm(coeffs)),
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

            columns, den = self.lowered(*key)
            xs = sorted(key[0])
            dtype = object if self.is_exact else float
            block = np.zeros((self.algebra.dim, len(xs) + 1, len(columns) + 1), dtype)
            block[:, :-1, :-1] = np.array([[column[x] for column in columns.values()]
                                           for x in xs], dtype).transpose(2, 0, 1)
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
            columns, den = self.lowered(*key)
            kernel, conj = self.algebra.kernel, self.algebra.conj

            def born(coeffs) -> int:
                square = kernel((coeffs,), (conj(coeffs),))
                if any(square[1:]):  # not scalar: raises
                    quadratic_form_over(self.algebra, coeffs, den, self.is_exact)
                return square[0]
            return {x: {y: born(column[x]) for y, column in columns.items()}
                    for x in sorted(key[0])}
        return self._built_by_kernel(("born", key), build)

    def conjugated(self, g_from, g_to) -> Dict[str, Dict[str, tuple]]:
        """The ``lowered`` matrix E from one ground to another conjugated
        entry by entry, over the same denominator, as rows x -> {y:
        conj(E(x, y))}, the shape of ``born_rows``: the right-hand factors of
        the exact sum rule.  Built on first use by ``Algebra.conj``
        (``_built_by_kernel``)."""
        key = (_ground_key(g_from), _ground_key(g_to))

        def build():
            columns, conj = self.lowered(*key)[0], self.algebra.conj
            return {x: {y: conj(column[x]) for y, column in columns.items()}
                    for x in sorted(key[0])}
        return self._built_by_kernel(("conj", key), build)

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
    """The lowered columns from each run of a sequence's plan (or frame) to
    the next and the product of their denominators; raises SequenceMismatch
    when the assignment lacks one.  Built once per frame and assignment:
    ``_frame_columns`` keeps the list (``Assignment._built_by_kernel``)."""
    boundaries = [asg.lowered(a, b) for a, b in zip(plan.grounds, plan.grounds[1:])]
    return [columns for columns, _ in boundaries], math.prod(den for _, den in boundaries)


def _frame_columns(plan: model.SequencePlan, asg: Assignment) -> Tuple[list, int]:
    """``_boundary_rows`` of the plan's grounds, kept in the assignment: a
    plan and its frame share their grounds, so the walk and the exact sum
    rule read one list.  Nothing is kept on a missing matrix, so it raises
    on every call."""
    return asg._built_by_kernel(("frame", plan.grounds), lambda: _boundary_rows(plan, asg))


def _thread_sums(p: Path, asg: Assignment) -> Tuple[Optional[tuple], int]:
    """The thread sums of one path and their denominator.

    A thread picks one surviving element per weak-equivalence run (the
    runs of the sequence's ``frame``): the element is constant across
    weakly equivalent steps, so coarse results expand distributively and
    duplicated steps contribute the forced identity.  The sums are the sum
    over threads of the left-to-right product of the matrix entries between
    consecutive runs, a coefficient tuple over the product of the boundary
    denominators (``_result`` rebuilds the amplitude); they are None when
    some run has no surviving element (an impossible path).

    Run by run, the partial thread sums onto each surviving element are
    one kernel call over the previous run's survivors, and the sums add
    the last run's partials.  The survivors are sorted lists, so float
    sums are byte-stable, and the partials a list in their order.  At a run
    boundary one ``operator.itemgetter`` over the previous survivors (a
    1-tuple for one) gathers each target's lowered column, read from the
    frame's kept columns (``_frame_columns``).  ``_probabilities`` does
    the same operations on arrays over every path.
    """
    kernel, dim, frame, results = asg.algebra.kernel, asg.algebra.dim, p.sequence.frame, p.results
    columns, den = _frame_columns(frame, asg)
    for k, (lo, hi) in enumerate(frame.runs):
        alive = sorted(results[lo] if lo == hi
                       else results[lo].intersection(*results[lo + 1:hi + 1]))
        if not alive:
            return None, den
        if k == 0:
            partial = [(1,) + (0,) * (dim - 1)] * len(alive)  # the unit's coefficients
        else:
            cols = columns[k - 1]
            gather = operator.itemgetter(*previous) if len(previous) > 1 else \
                lambda column, x=previous[0]: (column[x],)
            partial = [kernel(partial, gather(cols[y])) for y in alive]
        previous = alive
    return summed(partial, dim), den


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
    must exist, the lowered matrices of two stored directions must be mutual
    conjugate transposes, and each row x must be normalized: the sum of
    Q(E(x, y)) over the targets y, the row sum of the pair's Born matrix
    (``_row_checks``), is one.  So is the sum rule of the sequence from
    every source element, all sources from one pair-recursion call
    (``_source_totals``), each source's total equal to
    ``total_probability``'s bit for bit, in float mode too.  A check fails
    on a missing matrix or a product that is not scalar, with the error as
    detail; a float sum that overflows from finite entries fails with its
    value, inf or nan, as detail.
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


def _outcome(compute):
    """compute(), or the NonScalarProduct that it raises: a check's value or
    its failure."""
    try:
        return compute()
    except NonScalarProduct as exc:
        return exc


def _verdict(total, what: str) -> tuple:
    """(passed, detail) of the check that a total is one: passed when it is
    ``_close`` to 1, else the detail is the error raised in its place, or
    what it is and its value."""
    ok = not isinstance(total, Exception) and _close(total, 1)
    return ok, "" if ok else str(total) if isinstance(total, Exception) \
        else f"{what} is {_shown(total)}"


def _adjoint_consistent(asg: Assignment, a: frozenset, b: frozenset) -> bool:
    """Whether the lowered matrices of a ground pair stored in both directions
    are mutual conjugate transposes, each over the other's denominator.
    Symmetric in a and b; ``validate_assignment`` keeps its verdict per
    unordered ground pair (``Assignment._built_by_kernel``), so a pair is
    compared once however often a sequence crosses it."""
    (forward, d_forward), (backward, d_backward) = asg.lowered(a, b), asg.lowered(b, a)
    return all([c * d_backward for c in forward[y][x]] == [
        c * d_forward for c in asg.algebra.conj(backward[x][y])]
        for x in a for y in b)


def _row_checks(asg: Assignment, a: frozenset, b: frozenset) -> dict:
    """Row normalization of the ground pair (a, b): each x of a -> the
    ``_verdict`` on the sum of Q(E(x, y)) over the sorted targets y, added
    left to right from zero, the row sum of the pair's Born matrix
    (``Assignment.born_rows``) over D^2, or on the error that building the
    Born matrix raises (``_outcome``); a float sum that overflows is its
    value, inf.  Kept with the Born matrix it sums
    (``Assignment._built_by_kernel``), so a pair is checked once however
    often sequences cross it."""
    def build():
        (_, den), born, ys = asg.lowered(a, b), _outcome(lambda: asg.born_rows(a, b)), sorted(b)
        return {x: _verdict(born if isinstance(born, Exception) else lift(
            (reduce(operator.add, [born[x][y] for y in ys], 0),), den * den, asg.is_exact)[0],
            "sum of Q over targets") for x in sorted(a)}
    return asg._built_by_kernel(("row checks", a, b), build)


def _pair_transfer(grounds, classes, lowered, asg: Assignment) -> Dict[str, int]:
    """Exact mode: the e0 coefficient of S_0(x, x) for every source x of
    run 0 (``classes[0]``, their singletons), each an int over the squared
    product of the boundary denominators, by the backward recursion

        S_last(x, x') = 1 if x = x' else 0
        S_k(x, x')    = sum_y' (sum_y E_k[x][y] S_k+1(y, y')) conj(E_k[x'][y'])

    with S_k(x, x') defined only for x, x' in one class of run k.  E_k is
    the lowered matrix from ``grounds[k]`` to ``grounds[k+1]``, read as
    columns: E_k[x][y] is ``lowered[k][y][x]``, a coefficient tuple,
    multiplied by the algebra's kernel and conjugated by ``Algebra.conj``,
    for the elements x of ``classes[k]`` alone (of E_0 the sources').  (A
    float sum rule with a run boundary runs ``_block_transfer``.)

    S_k is Hermitian, S_k(x', x) = conj(S_k(x, x')): S_last is, and each
    step keeps it so, as conj is an anti-automorphism of the associative
    algebra.  So S_k(x, x) is self-conjugate, a real scalar, and the
    recursion carries two things: s(x), the e0 of S_k(x, x), for every
    element, and the strict upper triangle U(x, x') = S_k(x, x'), x before
    x' in class order, of each class of two or more (a wide class); the
    lower triangle is its conjugate.  The diagonal of a singleton class {x}
    of run k splits into the terms y = y', each E_k[x][y] s(y)
    conj(E_k[x][y]) = P_k[x][y] s(y) with P_k the pair's Born matrix
    (``Assignment.born_rows``), and the pairs y != y' of a wide class of
    run k+1, whose two orders are conjugate:

        s_k(x) = sum_y P_k[x][y] s(y)
                 + 2 e0(sum_y' [sum_{y before y'} E_k[x][y] U(y, y')] conj(E_k[x][y']))

    the cross term one kernel call per y' over the y before it, then one
    call over every y', of which the e0 is read.  Across an atomic run
    boundary it is s_k = P_k s_k+1, n^2 int products and no kernel call.
    The rows x of a wide class of run k need the full left sums sum_y
    E_k[x][y] S_k+1(y, y') over each wide class of run k+1, one kernel call
    per y', for their triangle: one call per pair x before x' forms U(x,
    x') over them and the singletons' E_k[x][y] s(y), and x's diagonal
    reads the same left sums, one call over them, beside the singletons'
    Born terms.  So a boundary costs O(n^3) kernel products at most, and a
    singleton row beside a wide class of c elements c (c - 1) / 2 + c - 1.
    The conjugate entries are read from the pair's kept conjugate
    (``Assignment.conjugated``); a boundary reads a Born matrix only when
    one of its two runs has a singleton class, and the conjugate only when
    one has a wide class.  Each s(x) is computed from row x alone, and run
    0's classes are singletons, so it needs no triangle: a source's value
    does not depend on which other sources are given.  The diagonal is
    exact ints, so the order in which its terms are added changes nothing.
    """
    algebra = asg.algebra
    kernel, conj, tail = algebra.kernel, algebra.conj, (0,) * (algebra.dim - 1)
    diagonal, upper, wide = {y: 1 for (y,) in classes[-1]}, {}, []
    for k in range(len(classes) - 2, -1, -1):
        # wide: the classes of two or more of run k+1, spans: those of run k
        cols, pair, spans = lowered[k], grounds[k:k + 2], [c for c in classes[k] if len(c) > 1]
        singles = [(c[0], diagonal[c[0]]) for c in classes[k + 1] if len(c) == 1] if spans else []
        born = asg.born_rows(*pair) if singles or len(spans) < len(classes[k]) else {}
        conjugated = asg.conjugated(*pair) if wide or spans else {}
        targets = [y for cls in wide for y in cls] if wide else []
        # each y' of a wide class after its first, with the y before it and U(y, y')
        later = [(cls[:j], y2, [upper[y, y2] for y in cls[:j]])
                 for cls in wide for j, y2 in enumerate(cls) if j] if wide else []
        # columns[y'] = [S_k+1(y, y') for y in the class of y'], in class order
        columns = {y2: [upper[y, y2] for y in cls[:j]] + [(diagonal[y2],) + tail]
                   + [conj(upper[y2, y]) for y in cls[j + 1:]]
                   for cls in wide for j, y2 in enumerate(cls)} if wide and spans else {}
        states, upper = diagonal.items(), {}
        # the singleton rows: Born terms, then the cross terms of each wide class
        diagonal = {x: sum([row[y] * s for y, s in states])
                    for cls in classes[k] if len(cls) == 1 for x in cls for row in [born[x]]}
        for x in diagonal if later else ():
            crow = conjugated[x]
            lefts = [kernel([cols[y][x] for y in before], ups) for before, _, ups in later]
            diagonal[x] += 2 * kernel(lefts, [crow[y2] for _, y2, _ in later])[0]
        for cls in spans:
            lefts, rights = [], []
            for x in cls:
                crow, left = conjugated[x], []
                for later_cls in wide:
                    entries = [cols[y][x] for y in later_cls]
                    left += [kernel(entries, columns[y2]) for y2 in later_cls]
                right = [crow[y] for y in targets]
                diagonal[x] = sum([born[x][y] * s for y, s in singles])
                if wide:
                    diagonal[x] += kernel(left, right)[0]
                lefts.append(left + [tuple([c * s for c in cols[y][x]]) for y, s in singles])
                rights.append(right + [crow[y] for y, _ in singles])
            for j, x2 in enumerate(cls):
                for i, x in enumerate(cls[:j]):
                    upper[x, x2] = kernel(lefts[i], rights[j])
        wide = spans
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
    (NonScalarProduct, when a Born matrix is built) fail every source; in
    float mode a tail that is not scalar fails its own source
    (``_outcome``), and a total that overflows is its value.
    """
    try:
        if asg.is_exact or len(s.plan.runs) == 1:  # a single run: its unit, 1.0 in float
            columns, den = _frame_columns(s.plan, asg)
            classes = [[(x,) for x in sources], *s.plan.classes[1:]]
            diagonal = _pair_transfer(s.plan.grounds, classes, columns, asg)
            return {x: lift((diagonal[x],), den * den, asg.is_exact)[0] for x in sources}
        blocks = _block_transfer(s, sources, asg)
    except (SequenceMismatch, NonScalarProduct) as exc:
        return dict.fromkeys(sources, exc)
    return {x: _outcome(lambda: scalar_part(_result(asg, sums, 1), False, lambda: bound,
                                            "summed pair products"))
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
    runs on the kernel over the lowered columns (``_pair_transfer``), carrying
    the real diagonal of each Hermitian S_k and the strict upper triangle of
    each class of two or more.  Every diagonal entry of a singleton class
    starts from the pair's Born matrix P_k = Q(E_k), s_k(x) = sum_y P_k(x,
    y) s(y), and adds twice the e0 of the cross terms E_k(x, y) S_k+1(y, y')
    conj(E_k(x, y')) over y before y' in a class of run k+1, one kernel
    call per y' and one more per row; a row in a class of two or more takes
    its diagonal from the left sums that its triangle builds.  Across an
    atomic run boundary that is n^2 int products and no kernel call, so it
    costs O(L n^2) on atomic runs and O(L n^3) algebra products in general,
    for L runs over grounds of at most n elements.  Each entry's Q is taken
    once per pair (``Assignment.born_rows``), with the scalar check of
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

    Every entry read is finite, as ``Assignment`` rejects a float-mode
    coefficient that is not; a float total that overflows from finite
    entries is returned as it is, an infinity or a NaN.
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


def _frame_blocks(plan: model.SequencePlan, asg: Assignment) -> Tuple[list, int]:
    """The sampling table's padded block of each run boundary of a plan
    (``Assignment.padded_block``) and the product of their denominators,
    kept in the assignment per frame as ``_frame_columns`` keeps its
    columns.  Nothing is kept on a missing matrix, so it raises on every
    call."""
    def build():
        blocks = [asg.padded_block(a, b) for a, b in zip(plan.grounds, plan.grounds[1:])]
        return [block for block, _ in blocks], math.prod(den for _, den in blocks)
    return asg._built_by_kernel(("padded frame", plan.grounds), build)


def _probabilities(s: MeasurementSequence, source: frozenset,
                   asg: Assignment) -> Tuple[list, object, list]:
    """Every path's probability from the source result, as (choices, rank,
    born): the blocks each step offers (``model.paths_over``'s choices, the
    plan's with the source alone at step 0), whose ``itertools.product``
    order is ``path_key`` order within the sequence; the path ranks of the
    table's rows, an int array; and the rows' probabilities, a list of
    Python scalars in row order.  Every other path is impossible, with the
    exact probability 0 in either mode.  No ``Path`` is built.

    Every path is evaluated in one batched pass per weak-equivalence run,
    on the sequence's plan (``MeasurementSequence.plan``), reading the rows
    that ``total_probability`` reads: the source's row at the first run
    boundary and every row of the later ones.  A run's elements are those
    of its same-block classes (the source element for run 0).  The pass is
    the walk of ``_thread_sums`` on one numpy array (float64 in float mode,
    single runs included, Python ints of object dtype in exact mode).
    After run k the array is over (coefficient, class, row, slot), a row
    being a parent class and a parent row, the parent row innermost.  A row
    is a live prefix: a parent row followed by one of the run's classes.
    The class's detectors are the one result combination of the run that
    keeps its elements alive, and the plan holds its rank in path order, a
    mixed-radix number over the sorted blocks of the run's steps; every
    other combination keeps no element, so its paths have probability 0.
    Slot t holds the row's partial thread sum onto the class's t-th sorted
    element, and the slots past its elements are padding that holds zeros.

    What depends on the sequence alone is read from its ``_layout``, kept
    with it: each run's class-by-slot positions over its sorted ground, its
    padding slots, its class ranks and its radix; the source adds only
    run 0's class.  What depends on a ground pair alone is read from the
    assignment's ``padded_block``, kept there, and the list of a frame's
    blocks too (``_frame_blocks``): the lowered matrix over the whole
    sorted grounds, a zero row and column past them, gathered and signed
    for the array product.  At each run boundary the table indexes that
    block by the parent run's and the run's slot positions, and one call of
    the kernel's array product (``kernel.columns``, the kernel's operations
    in its order) multiplies it with the array, every parent slot t on the
    trailing pair axis, and sums over t in order.  A padded slot meets
    zeros on both sides; on a run with padding the padded slots are then
    reset to zero, since a partial sum that has overflowed to an infinity
    times a padded zero leaves a NaN there.  The padding changes no bit:
    the product's sums start as 0 + ..., so they are never -0.0, slot 0 is
    never padding, and adding +0.0 leaves any other value as it is.  The
    Born leaf sums each row's slots by ``summed`` and takes
    ``algebra.quadratic_form_columns``, one more call of ``kernel.columns``.
    So every probability equals ``probability_of(p, asg).probability`` bit
    for bit, and the first path whose product is not scalar raises that
    error.  The rows and their ranks are built per call and not kept.
    Bounded by DEFAULT_PATH_BOUND through ``model.check_path_bound``.
    """
    import numpy as np

    model.check_path_bound(s)
    if frozenset(source) not in s.steps[0].blocks:
        raise NotADistribution("no paths start at the given source result")
    plan, layout = s.plan, _layout(s)
    blocks, den = _frame_blocks(plan, asg)
    algebra, d = asg.algebra, asg.algebra.dim
    choices = [[frozenset(source)], *plan.choices[1:]]
    c = plan.classes[0].index(tuple(source))
    # coeffs over (coefficient, class, row, slot), a row being a parent class
    # and a parent row, the parent row innermost; rank: each row's rank in path order
    coeffs = np.array(algebra.unit().coeffs, object if asg.is_exact else float).reshape(d, 1, 1, 1)
    rank, parents = layout[0].index[c], layout[0].slots[c:c + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for run, block in zip(layout[1:], blocks):
            # over (coefficient, class, parent class, parent row, slot, parent slot)
            coeffs = algebra.kernel.columns(
                coeffs[:, None, :, :, None, :],
                block[:, :, parents[None, :, None, None, :], run.slots[:, None, None, :, None]])
            coeffs = coeffs.reshape(d, len(run.slots), -1, run.slots.shape[1])
            if run.padding is not None:
                # back to zero: a partial sum that overflowed to an infinity
                # times a padded zero is NaN
                coeffs[:, run.padding[0], :, run.padding[1]] = 0
            rank = (rank * run.radix + run.index).ravel()
            parents = run.slots
        # each row's slots summed by ``summed``, each slot over (coefficient, row)
        sums = summed(coeffs.reshape(d, -1, coeffs.shape[-1]).transpose(2, 0, 1), d)
        del coeffs
        return choices, rank, quadratic_form_columns(algebra, sums, den, asg.is_exact)


def _draw_rows(s: MeasurementSequence, source: frozenset, asg: Assignment,
               n: int, seed: int) -> Tuple[list, list, object, list]:
    """Draw n paths from the exact path distribution, reproducibly.

    Returns (choices, counts, rank, born): the blocks each step offers
    (``_probabilities``' choices); over the paths from the source result,
    in ``itertools.product`` order over the choices (``path_key`` order),
    each path's count; and the table's rows as ``_probabilities`` gives
    them, their path ranks and probabilities.  Every other path is
    impossible, with the exact probability 0.  The counts are one
    multinomial draw seeded with [seed, 0]: they depend on (seed, n)
    alone.  No ``Path`` is built but for a failing path's message.

    A probability that is negative (exactly below 0 in exact mode, below
    -1e-12 in float mode, where rounding may leave a zero just below it) or
    beyond the float range, or a mass off one, raises NotADistribution; the
    first such path is named.  The checks run on one float array of the
    probabilities, the table's rows scattered by rank into zeros, clipped
    to 0, and the mass adds it left to right, as ``algebra.summed`` adds,
    so it reads the same on every Python version.  Every entry read is
    finite (``Assignment``); in float mode products that overflow from
    finite entries give a mass of inf or nan, which is off one.
    """
    if not 0 <= n < MAX_DRAWS:
        raise ValueError(f"number of draws must lie in [0, 2**63), got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    import numpy as np

    choices, rank, born = _probabilities(s, source, asg)
    weights = np.zeros(math.prod(map(len, choices)))
    if asg.is_exact:
        weights[rank] = lower([born], False)[0][0]  # as floats, one beyond the float range inf
        negative = np.zeros(len(weights), bool)
        negative[rank] = np.array(born, object) < 0
        failed = negative | np.isinf(weights)
    else:
        weights[rank] = born
        failed = negative = weights < -1e-12
    if failed.any():
        first = int(failed.argmax())
        p = Path(s, next(itertools.islice(itertools.product(*choices), first, None)))
        if negative[first]:
            q = born[int(np.flatnonzero(rank == first)[0])]
            raise NotADistribution(f"negative probability {_shown(q)} for {p!r}")
        raise NotADistribution(f"probability of {p!r} exceeds the float range")
    weights = np.maximum(weights, 0.0)
    # cumsum adds left to right from the first weight (np.sum adds pairwise)
    mass = float(np.cumsum(weights)[-1])
    if not abs(mass - 1.0) <= DISTRIBUTION_TOL:  # a NaN mass fails too
        raise NotADistribution(f"path probabilities sum to {mass}, not 1")
    counts = np.random.default_rng([seed, 0]).multinomial(n, weights / weights.sum()).tolist()
    return choices, counts, rank, born


def _draw(s: MeasurementSequence, source: frozenset, asg: Assignment,
          n: int, seed: int) -> Tuple[list, list, list]:
    """(choices, counts, probabilities) of ``_draw_rows``, every path's
    probability listed in ``path_key`` order: the row's, placed by its
    rank, or the int 0 for an impossible path, in either mode.  What
    ``compalg sample`` prints."""
    import numpy as np

    choices, counts, rank, born = _draw_rows(s, source, asg, n, seed)
    probabilities = np.zeros(len(counts), object)  # Python ints 0
    probabilities[rank] = np.array(born, object)
    return choices, counts, probabilities.tolist()


def sample(s: MeasurementSequence, source: frozenset, asg: Assignment,
           n: int, seed: int) -> Dict[Path, int]:
    """The counts of ``_draw_rows`` keyed by path, every path from the
    source result in ``path_key`` order, impossible ones included; the
    paths are built after the draw (``model.paths_over``)."""
    choices, counts, _, _ = _draw_rows(s, source, asg, n, seed)
    return dict(zip(model.paths_over(s, choices), counts))
