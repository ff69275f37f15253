"""Measurements as set partitions, paths, and their partial operations.

A measurement partitions a finite ground set of atomic outcome elements
into detectors (blocks).  A path picks one detector per step of a
measurement sequence whose first and last steps are atomic.  The partial
operations on paths are chaining, coarsening, their inverses unchaining
and refinement, reversal, and insertion.

Impossibility is thread-based: within each maximal segment of
consecutive measurements over the same ground set, an underlying atomic
element must survive every result.  A path is possible iff every such
segment has a nonempty intersection of its results; ``find_igps`` reports
the adjacent index pair at which the surviving element set first dies
out.  A possible path has a unique nonredundant normal form, the
representative of its class under removing duplicated steps and
coarsening or refining with impossible operands.  It is built directly,
in time linear in the path length: every run of two or more steps
collapses to one step whose result is the intersection I of the run's
results and whose detectors are {I} plus the singletons of the rest of
the ground; a path that is one run keeps both endpoints.  ``normal_form`` gives the rule and why
it equals the fixpoint of the rewriting rules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Dict, Iterable, List, NamedTuple, Optional

from .errors import (
    ChainMismatch,
    CoarsenMismatch,
    GroundSetTooLarge,
    ImpossiblePathHasNoNormalForm,
    InsertMismatch,
    NotAFactor,
    NotRefinable,
    TooManyPaths,
)

Block = frozenset

DEFAULT_GROUND_BOUND = 10
DEFAULT_PATH_BOUND = 10 ** 6


@dataclass(frozen=True)
class GroundSet:
    """A named, ordered finite set of atomic outcome element ids."""

    id: str
    elements: tuple

    def __post_init__(self):
        if not self.elements:
            raise ValueError("ground set must be nonempty")
        object.__setattr__(self, "_element_set", frozenset(self.elements))
        if len(self._element_set) != len(self.elements):
            raise ValueError("ground set elements must be unique")

    def element_set(self) -> frozenset:
        return self._element_set


@dataclass(frozen=True, eq=False)
class Measurement:
    """A partition of a ground set; each block is a detector.

    Identity is by outcome structure: two measurements are equal iff they
    have the same blocks.  The ``id`` is a display label only.
    """

    id: str
    ground: GroundSet
    blocks: frozenset

    def __post_init__(self):
        union = set()
        total = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty detector block")
            total += len(block)
            union |= block
        if union != set(self.ground.elements) or total != len(self.ground.elements):
            raise ValueError(
                f"blocks of {self.id!r} do not partition ground {self.ground.id!r}")

    def __eq__(self, other):
        return isinstance(other, Measurement) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        parts = ",".join("{" + ",".join(sorted(b)) + "}" for b in sorted_blocks(self.blocks))
        return f"Measurement({self.id}: {parts})"

    @property
    def is_atomic(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_fully_coarse(self) -> bool:
        return len(self.blocks) == 1

    def element_set(self) -> frozenset:
        return self.ground.element_set()

    @cached_property
    def _block_of(self) -> dict:
        """Each element -> the block holding it, built on first use."""
        return {x: block for block in self.blocks for x in block}

    def block_containing(self, element: str) -> Block:
        """The block holding element; KeyError for an element of no block."""
        return self._block_of[element]


def measurement(id: str, ground: GroundSet, blocks: Iterable[Iterable[str]]) -> Measurement:
    """The measurement with these blocks; an element id given twice, in one
    block or in two, raises ValueError naming its first repeat."""
    blocks = [tuple(b) for b in blocks]
    ids = [x for b in blocks for x in b]
    if len(set(ids)) < len(ids):
        first = next(x for i, x in enumerate(ids) if x in ids[:i])
        raise ValueError(f"duplicate element id {first!r}")
    return Measurement(id, ground, frozenset(map(frozenset, blocks)))


def atomic_measurement(ground: GroundSet, id: Optional[str] = None) -> Measurement:
    return measurement(id or f"{ground.id}.atomic", ground,
                       ([e] for e in ground.elements))


def weakly_equivalent(m1: Measurement, m2: Measurement) -> bool:
    """True iff both measurements partition the same underlying element set."""
    return m1.element_set() == m2.element_set()


def equal_measurements(m1: Measurement, m2: Measurement) -> bool:
    """True iff the measurements have identical detector sets."""
    return m1.blocks == m2.blocks


@dataclass(frozen=True)
class MeasurementSequence:
    """An experiment: at least two measurements, atomic at both ends.

    Equality is by steps.  The hash is that of the steps, computed once:
    paths are dict keys, and hashing the steps hashes every measurement.
    A pickled sequence is its steps alone: loaded, it is built again, so
    its hash is the loading process's (string hashes differ between
    processes), and its plan is rebuilt on use.
    """

    steps: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.steps) < 2:
            raise ValueError("a sequence needs at least two measurements")
        if not self.steps[0].is_atomic or not self.steps[-1].is_atomic:
            raise ValueError("source and target measurements must be atomic")
        object.__setattr__(self, "_hash", hash((self.steps,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return MeasurementSequence, (self.steps,)

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return f"MeasurementSequence([{', '.join(m.id for m in self.steps)}])"

    @cached_property
    def frame(self) -> "SequencePlan":
        """The plan's runs and grounds alone, built on first use and kept:
        all that the walk of one path reads."""
        segments = tuple(runs(self))
        return SequencePlan(segments, tuple(self.steps[lo].element_set() for lo, _ in segments))

    @cached_property
    def plan(self) -> "SequencePlan":
        """The sequence's ``SequencePlan``: its ``frame`` with the classes,
        ranks and choices that the sum rule and the sampler read, built on
        first use and kept.

        A class's rank folds the place of each of its detectors among the
        sorted blocks of its step, from the run's first step after step 0
        to its last, each place the next mixed-radix digit.
        """
        choices = tuple(tuple(sorted_blocks(m.blocks)) for m in self.steps)
        classes = [_same_block_classes(self.steps[lo:hi + 1], self.steps[lo].element_set())
                   for lo, hi in self.frame.runs]
        return self.frame._replace(
            classes=tuple(tuple(map(tuple, run.values())) for run in classes),
            ranks=tuple(tuple(reduce(lambda r, j: r * len(choices[j])
                                     + choices[j].index(detectors[j - lo]),
                                     range(max(lo, 1), hi + 1), 0) for detectors in run)
                        for (lo, hi), run in zip(self.frame.runs, classes)),
            choices=choices)


def sequence(steps: Iterable[Measurement]) -> MeasurementSequence:
    return MeasurementSequence(tuple(steps))


@dataclass(frozen=True)
class Path:
    """One chosen detector result per step of a measurement sequence.

    The hash is that of the results alone, one tuple hash over the results'
    cached frozenset hashes: equal paths have equal results, and the paths
    of two sequences with equal results collide only to be told apart by
    equality, which compares the sequences too.
    """

    sequence: MeasurementSequence
    results: tuple

    def __post_init__(self):
        steps = self.sequence.steps
        if len(self.results) != len(steps):
            raise ValueError("one result per measurement required")
        for m, r in zip(steps, self.results):
            if r not in m.blocks:
                raise ValueError(f"result {{{', '.join(sorted(r))}}} is not a detector "
                                 f"of measurement {m.id!r}")

    @property
    def steps(self) -> tuple:
        return self.sequence.steps

    def __hash__(self):
        return hash(self.results)

    def __len__(self):
        return len(self.results)

    @property
    def source(self) -> Block:
        return self.results[0]

    @property
    def target(self) -> Block:
        return self.results[-1]

    def __repr__(self):
        parts = ",".join("{" + ",".join(sorted(r)) + "}" for r in self.results)
        return f"Path([{parts}])"


def path(steps: Iterable[Measurement], results: Iterable[Iterable[str]]) -> Path:
    return Path(sequence(steps), tuple(frozenset(r) for r in results))


@dataclass(frozen=True)
class PathClass:
    """Classification flags for a path."""

    cyclic: bool
    symmetric: bool
    trivial: bool
    possible: bool
    igps: tuple

    def to_json(self) -> dict:
        return {
            "cyclic": self.cyclic,
            "symmetric": self.symmetric,
            "trivial": self.trivial,
            "possible": self.possible,
            "igps": [list(p) for p in self.igps],
        }


# -- canonical serialization ----------------------------------------------------

def sorted_blocks(blocks: Iterable[Block]) -> list:
    return sorted(blocks, key=lambda b: sorted(b))


def measurement_to_json(m: Measurement) -> dict:
    return {
        "ground": sorted(m.ground.elements),
        "blocks": [sorted(b) for b in sorted_blocks(m.blocks)],
    }


def path_to_json(p: Path) -> dict:
    return {
        "steps": [measurement_to_json(m) for m in p.steps],
        "results": [sorted(r) for r in p.results],
    }


def path_key(p: Path):
    """A canonical sortable key; equal keys coincide with path equality."""
    return (
        tuple(tuple(sorted(r)) for r in p.results),
        tuple(tuple(tuple(sorted(b)) for b in sorted_blocks(m.blocks)) for m in p.steps),
    )


# -- weak-equivalence runs and impossibility ------------------------------------

def runs(p) -> list:
    """Maximal segments [lo, hi] of consecutive steps over one ground set,
    for a path or a measurement sequence."""
    steps = p.steps
    cuts = [j for j in range(1, len(steps))
            if steps[j].element_set() != steps[j - 1].element_set()]
    return list(zip([0, *cuts], [j - 1 for j in cuts] + [len(steps) - 1]))


class SequencePlan(NamedTuple):
    """What the evaluators read of a sequence, whatever the source and the
    assignment (``MeasurementSequence.plan``), per weak-equivalence run k:

    - ``runs[k]``: its steps [lo, hi] (``runs``);
    - ``grounds[k]``: its element set;
    - ``classes[k]``: its same-block classes over its whole ground
      (``_same_block_classes``), each a tuple of sorted elements, in the
      order of their first elements; run 0's are singletons, as step 0 is
      atomic;
    - ``ranks[k]``: each class's rank among the run's result combinations
      in path order, a mixed-radix number over the sorted blocks of the
      run's steps after step 0, which the source fixes;

    and ``choices[j]``, the sorted blocks of step j.  The last three are
    None in a sequence's ``frame``, which the walk of one path reads.
    """

    runs: tuple
    grounds: tuple
    classes: Optional[tuple] = None
    ranks: Optional[tuple] = None
    choices: Optional[tuple] = None


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


def find_igps(p: Path) -> tuple:
    """Impossibility witnesses as adjacent index pairs (j, j+1).

    Within each run of weakly equivalent steps the set of atomic elements
    that can have produced every result so far is intersected left to
    right; a pair is reported whenever that set dies out, and the scan
    restarts there.  The path is possible iff no pair is reported, which
    is equivalent to every run having a nonempty intersection of results.
    """
    reports = []
    for lo, hi in runs(p):
        alive = p.results[lo]
        for j in range(lo + 1, hi + 1):
            survived = alive & p.results[j]
            if not survived:
                reports.append((j - 1, j))
            alive = survived or p.results[j]
    return tuple(reports)


def is_possible(p: Path) -> bool:
    return not find_igps(p)


# -- chaining and unchaining -----------------------------------------------------

def chain(a: Path, b: Path) -> Path:
    """Sequential composition sharing the junction step once."""
    if not equal_measurements(a.steps[-1], b.steps[0]):
        raise ChainMismatch("junction measurements differ")
    if a.results[-1] != b.results[0]:
        raise ChainMismatch("junction results differ")
    return Path(
        sequence(a.steps + b.steps[1:]),
        a.results + b.results[1:],
    )


def unchain_right(c: Path, b: Path) -> Path:
    """The unique a with chain(a, b) = c, where it exists."""
    cut = len(c) - len(b)
    if cut < 1:
        raise NotAFactor("suffix is too long to leave a prefix path")
    for m1, m2 in zip(c.steps[cut:], b.steps):
        if not equal_measurements(m1, m2):
            raise NotAFactor("suffix measurements do not match")
    if c.results[cut:] != b.results:
        raise NotAFactor("suffix results do not match")
    return Path(sequence(c.steps[:cut + 1]), c.results[:cut + 1])


def unchain_left(a: Path, c: Path) -> Path:
    """The unique b with chain(a, b) = c, where it exists."""
    cut = len(a) - 1
    if len(c) - cut < 2:
        raise NotAFactor("prefix is too long to leave a suffix path")
    for m1, m2 in zip(a.steps, c.steps[:cut + 1]):
        if not equal_measurements(m1, m2):
            raise NotAFactor("prefix measurements do not match")
    if a.results != c.results[:cut + 1]:
        raise NotAFactor("prefix results do not match")
    return Path(sequence(c.steps[cut:]), c.results[cut:])


# -- coarsening and refinement ----------------------------------------------------

def _coarsen_direct(a: Path, b: Path) -> Path:
    if len(a) != len(b):
        raise CoarsenMismatch("operands have different lengths")
    diff = [j for j in range(len(a)) if a.results[j] != b.results[j]]
    if len(diff) != 1:
        raise CoarsenMismatch(f"results differ at {len(diff)} steps, need exactly 1")
    j = diff[0]
    if j == 0 or j == len(a) - 1:
        raise CoarsenMismatch("cannot coarsen at the source or target")
    for k in range(len(a)):
        if k != j and not equal_measurements(a.steps[k], b.steps[k]):
            raise CoarsenMismatch("operands are over different measurement sequences")
    if not weakly_equivalent(a.steps[j], b.steps[j]):
        raise CoarsenMismatch("results to merge lie over different ground sets")
    ra, rb = a.results[j], b.results[j]
    if ra & rb:
        raise CoarsenMismatch("results to merge are not disjoint")
    # The merge step tolerates operands whose measurements differ inside the
    # merged region (needed so that (a v b) v c aligns with c); everything
    # inside the merged block is forgotten, the rest must agree.
    merged = ra | rb
    outside = None
    for m in (a.steps[j], b.steps[j]):
        for blk in m.blocks:
            if blk & merged and not blk <= merged:
                raise CoarsenMismatch("a detector straddles the merged result")
        rest = frozenset(blk for blk in m.blocks if not blk & merged)
        if outside is None:
            outside = rest
        elif outside != rest:
            raise CoarsenMismatch("detectors outside the merged result disagree")
    old = a.steps[j]
    coarse = Measurement(old.id, old.ground, outside | {merged})
    steps = a.steps[:j] + (coarse,) + a.steps[j + 1:]
    return Path(sequence(steps), a.results[:j] + (merged,) + a.results[j + 1:])


def _dedup_fixpoint(p: Path) -> Path:
    """p with each run of adjacent equal steps (equal measurements and
    results) cut to its last step, keeping at least two steps."""
    n = len(p)
    keep = [j for j in range(n - 1) if not _same_step(p, j, p, j + 1)] + [n - 1]
    if len(keep) < 2:
        keep = range(max(n - 2, 0), n)
    if len(keep) == n:
        return p
    return Path(sequence([p.steps[j] for j in keep]), tuple(p.results[j] for j in keep))


def _same_step(a: Path, i: int, b: Path, k: int) -> bool:
    return a.results[i] == b.results[k] and equal_measurements(a.steps[i], b.steps[k])


def _padded(p: Path, positions: tuple) -> Path:
    """p with step j duplicated once for each occurrence of j in positions."""
    steps = list(p.steps)
    results = list(p.results)
    for j in sorted(positions, reverse=True):
        steps.insert(j, steps[j])
        results.insert(j, results[j])
    return Path(sequence(steps), tuple(results))


def _paddings(r: Path, p: int, q: int) -> tuple:
    """Paddings of r to length p+q+1 that leave a lone step between r[:p] and r[-q:]."""
    return {0: ((),), 1: ((p - 1,), (p,)), 2: ((p - 1, p - 1),)}.get(p + q + 1 - len(r), ())


def coarsen(a: Path, b: Path) -> Path:
    """Merge the two disjoint results at the single step where a, b differ.

    If the operands do not align directly, they are replaced by redundancy
    representatives ra, rb (the normal form of a possible operand, the
    operand without duplicated steps otherwise).  Equivalent operands
    (ra == rb) do not coarsen.  Otherwise ra, rb are aligned up to
    duplicated steps: the padded pair must read P + [x] + Q against
    P + [y] + Q, where P (length p >= 1) is a common prefix and Q (length
    q >= 1) a common suffix of ra and rb.  Each side reaches length p+q+1
    with no padding, one duplicate of step p-1 or p, or two of step p-1.
    Among the aligning pairs the smallest duplicate positions of ra win,
    then those of rb.  That is O(L) candidates of O(L) work each, O(L^2)
    in all for operands of length L.

    If ra != rb align at all, they align at length max(len(ra), len(rb)),
    so no longer pair is tried.  Take an aligning pair that differs at step
    j.  A duplicate away from j lies in the common prefix or suffix, so
    (representatives have no adjacent equal steps) it pads both sides, and
    removing it from both leaves an aligning pair.  Once every duplicate
    touches j, not both sides can be padded: removing step j would turn
    both into P + Q, and ra == rb.  So one side is unpadded, and the pair
    has its length, the longer one.
    """
    try:
        return _coarsen_direct(a, b)
    except CoarsenMismatch:
        pass
    ra = normal_form(a) if is_possible(a) else _dedup_fixpoint(a)
    rb = normal_form(b) if is_possible(b) else _dedup_fixpoint(b)
    if ra == rb:
        raise CoarsenMismatch("equivalent operands do not differ at one step")
    shorter, target = sorted((len(ra), len(rb)))
    prefix = 0
    while prefix < shorter and _same_step(ra, prefix, rb, prefix):
        prefix += 1
    suffix = 0
    while suffix < shorter and _same_step(ra, len(ra) - 1 - suffix, rb, len(rb) - 1 - suffix):
        suffix += 1
    pairs = set()
    for p in range(1, prefix + 1):
        q = target - 1 - p
        if 1 <= q <= suffix:
            pairs.update(itertools.product(_paddings(ra, p, q), _paddings(rb, p, q)))
    for pad_a, pad_b in sorted(pairs):
        try:
            return _coarsen_direct(_padded(ra, pad_a), _padded(rb, pad_b))
        except CoarsenMismatch:
            continue
    raise CoarsenMismatch("no redundancy representatives align for coarsening")


def refine(c: Path, b: Path) -> Path:
    """The unique a with coarsen(a, b) = c, where it exists."""
    if len(c) != len(b):
        raise NotRefinable("operands have different lengths")
    diff = [j for j in range(len(c))
            if c.results[j] != b.results[j]
            or not equal_measurements(c.steps[j], b.steps[j])]
    if len(diff) != 1:
        raise NotRefinable(f"operands differ at {len(diff)} steps, need exactly 1")
    j = diff[0]
    if j == 0 or j == len(c) - 1:
        raise NotRefinable("cannot refine at the source or target")
    rb, rc = b.results[j], c.results[j]
    if not (rb < rc):
        raise NotRefinable("refining result is not a proper subset")
    rest = rc - rb
    fine = b.steps[j]
    if rest not in fine.blocks:
        raise NotRefinable("split remainder is not a detector of the finer measurement")
    expected_coarse = (fine.blocks - {rb, rest}) | {rc}
    if c.steps[j].blocks != expected_coarse:
        raise NotRefinable("coarse measurement does not merge exactly the two results")
    return Path(b.sequence, c.results[:j] + (rest,) + c.results[j + 1:])


# -- reversal, insertion, factorization -------------------------------------------

def reverse(p: Path) -> Path:
    return Path(sequence(reversed(p.steps)), tuple(reversed(p.results)))


def insert_measurement(p: Path, j: int, m: Measurement, result) -> Path:
    """Insert a single measurement with its result before step j (interior)."""
    if not 1 <= j <= len(p) - 1:
        raise InsertMismatch(f"insertion index {j} outside 1..{len(p) - 1}")
    result = frozenset(result)
    if result not in m.blocks:
        raise InsertMismatch("result is not a detector of the inserted measurement")
    steps = p.steps[:j] + (m,) + p.steps[j:]
    return Path(sequence(steps), p.results[:j] + (result,) + p.results[j:])


def insert_cyclic(p: Path, j: int, x: Path) -> Path:
    """Splice a cyclic path at step j, whose measurement and result must match."""
    if not equal_measurements(x.steps[0], x.steps[-1]) or x.results[0] != x.results[-1]:
        raise InsertMismatch("inserted path is not cyclic")
    if not 0 <= j < len(p):
        raise InsertMismatch(f"junction index {j} out of range")
    if not equal_measurements(p.steps[j], x.steps[0]) or p.results[j] != x.results[0]:
        raise InsertMismatch("junction measurement or result does not match")
    steps = p.steps[:j] + x.steps + p.steps[j + 1:]
    results = p.results[:j] + x.results + p.results[j + 1:]
    return Path(sequence(steps), results)


def factorize(p: Path) -> list:
    """Split at every interior atomic step; the chain of factors equals p."""
    cuts = [0] + [j for j in range(1, len(p) - 1) if p.steps[j].is_atomic] \
        + [len(p) - 1]
    return [Path(sequence(p.steps[lo:hi + 1]), p.results[lo:hi + 1])
            for lo, hi in zip(cuts, cuts[1:])]


# -- normal form -------------------------------------------------------------------

def normal_form(p: Path) -> Path:
    """The nonredundant representative of a possible path, built run by run.

    Let I be the intersection of the results of a weak-equivalence run.
    A single-step run is kept as it is.  A longer run becomes one step
    over its ground with result I and detectors {I} plus the singletons
    of ground - I.  For a run holding step 0 or step L-1, I is the one
    element of that atomic endpoint's result, so the step is the atomic
    endpoint step.  A path that is one run becomes its two endpoint
    steps, both with result I.

    This is the fixpoint of the rewriting rules (kept in the tests as
    ``normal_form_by_rewriting``): strip from an interior result the
    elements no surviving thread through its run can carry, and drop a
    step next to a weakly equivalent neighbour with the same result and a
    compatible detector structure.  It equals their fixpoint because:

    - neither a drop nor a strip removes a run or merges two runs;
    - both moves keep each run's intersection I;
    - a strip sets an interior result to I;
    - once every result in a run is I, no non-result block of an
      interior step meets the surviving set, so every interior step can
      be dropped next to its neighbour;
    - the last drop rewrites the survivor's detectors to {I} plus the
      singletons of ground - I.

    A collapsed run carries the label of its last step.  Linear in the
    path length.
    """
    if find_igps(p):
        raise ImpossiblePathHasNoNormalForm(repr(p))
    segments = runs(p)
    steps, results = [], []
    for lo, hi in segments:
        alive = p.results[lo].intersection(*p.results[lo + 1:hi + 1])
        m = p.steps[hi]
        if lo < hi:
            singletons = {frozenset({d}) for d in m.element_set() - alive}
            m = Measurement(m.id, m.ground, frozenset(singletons | {alive}))
        steps.append(m)
        results.append(alive)
    if len(segments) == 1:
        steps.append(p.steps[-1])
        results.append(alive)
    return Path(sequence(steps), tuple(results))


def equivalent(a: Path, b: Path) -> bool:
    """True iff both possible paths share the same nonredundant form."""
    return normal_form(a) == normal_form(b)


def classify(p: Path) -> PathClass:
    """Flags: cyclic on the raw endpoints, symmetric/trivial on the normal form."""
    igps = find_igps(p)
    possible = not igps
    cyclic = equal_measurements(p.steps[0], p.steps[-1]) \
        and p.results[0] == p.results[-1]
    base = normal_form(p) if possible else p
    symmetric = base == reverse(base)
    trivial = len(base) == 2 \
        and equal_measurements(base.steps[0], base.steps[1]) \
        and base.results[0] == base.results[1]
    return PathClass(cyclic=cyclic, symmetric=symmetric, trivial=trivial,
                     possible=possible, igps=igps)


# -- enumeration --------------------------------------------------------------------

def _partitioned_size(ground: GroundSet) -> int:
    """The ground set's element count; more than DEFAULT_GROUND_BOUND raise
    GroundSetTooLarge."""
    n = len(ground.elements)
    if n > DEFAULT_GROUND_BOUND:
        raise GroundSetTooLarge(f"{n} elements exceeds bound {DEFAULT_GROUND_BOUND}")
    return n


def enumerate_partitions(ground: GroundSet) -> list:
    """All set partitions of the ground set, Bell(n) of them, in stable order;
    more than DEFAULT_GROUND_BOUND elements raise GroundSetTooLarge."""
    _partitioned_size(ground)
    partitions = [[]]
    for element in ground.elements:
        grown = []
        for part in partitions:
            for i in range(len(part)):
                grown.append(part[:i] + [part[i] + [element]] + part[i + 1:])
            grown.append(part + [[element]])
        partitions = grown
    # each element is placed once, so the blocks need no repeat check
    return [Measurement(f"{ground.id}#p{i}", ground, frozenset(map(frozenset, part)))
            for i, part in enumerate(partitions)]


def partition_count(ground: GroundSet) -> int:
    """Bell(n), the number of set partitions of the ground set's n elements,
    counted, not listed, with ``enumerate_partitions``' bound: row n of the
    Bell triangle starts with Bell(n), each row starting with the last entry
    of the one before and adding that row's entries in turn."""
    row = [1]
    for _ in range(_partitioned_size(ground)):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[0]


def path_count(s: MeasurementSequence) -> int:
    """The number of paths of the sequence, counted, not listed, and unbounded."""
    return math.prod(len(m.blocks) for m in s.steps)


def check_path_bound(s: MeasurementSequence) -> None:
    """Raise TooManyPaths when ``path_count`` exceeds DEFAULT_PATH_BOUND."""
    count = path_count(s)
    if count > DEFAULT_PATH_BOUND:
        raise TooManyPaths(f"{count} paths exceeds bound {DEFAULT_PATH_BOUND}")


def paths_over(s: MeasurementSequence, choices) -> list:
    """The paths of s picking one result per step from ``choices``, in
    ``itertools.product`` order, built without ``Path``'s check: every
    choice must be a block of its step's measurement.  Each path's two
    fields are written straight into its instance dict, where the frozen
    dataclass keeps them, so it equals, hashes, prints and pickles as the
    checked ``Path(s, results)``.  Only the dict API of ``engine.sample``
    and ``enumerate_paths`` list paths this way; ``compalg sample`` writes
    its rows without them."""
    paths, new = [], object.__new__
    for combo in itertools.product(*choices):
        p = new(Path)
        fields = p.__dict__
        fields["sequence"] = s
        fields["results"] = combo
        paths.append(p)
    return paths


def enumerate_paths(s: MeasurementSequence) -> list:
    """All result combinations over the sequence, in block-sorted order,
    bounded by ``check_path_bound``."""
    check_path_bound(s)
    return paths_over(s, [sorted_blocks(m.blocks) for m in s.steps])
