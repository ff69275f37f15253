"""Independent brute-force oracles for the redundancy-equivalence class.

The reachability class of a possible path is explored by breadth-first
search over the generating moves: removal of a duplicated step, splitting
away a result subset that no thread shares with the rest of its
weak-equivalence run (refinement with an impossible operand), and merging
such a detector back into the result (coarsening with an impossible
operand).  The class minimum is taken by (length, total result size) and
compared at the level of result sequences and step grounds, since class
members may differ in how the discarded elements are blocked.

``normal_form_by_rewriting`` is the reference for ``model.normal_form``:
it applies redundant-step drops and element strips one at a time until
none applies, and ``all_reduction_terminals`` explores every order of
those moves.

``coarsen_by_search`` is the exhaustive reference for ``model.coarsen``:
it tries every duplicated-step padding of both redundancy representatives
at every target length and returns the first pair that aligns.

``dedup_by_rewriting`` is the reference for ``model._dedup_fixpoint``: it
removes the first of two equal adjacent steps, one at a time, rescanning
from the start after each removal, until none is left or two steps remain.

``tokenize_by_scanning`` is the reference for ``dsl._tokenize``: it scans
each line character by character.

``pair_transfer_by_full_state`` is the reference for the exact sum rule's
recursion, ``engine._pair_transfer``: it carries every pair state as a
full coefficient tuple, and ``total_by_full_state`` runs it from a source,
on runs, classes and rows that it finds for itself.
``validation_by_sum_rules`` is the reference for
``engine.validate_assignment``: a whole sum rule per source and per row.
Both read the lowered matrices as rows, through ``rows_of``.

``thread_sums_by_dicts`` is the reference for the walk of one path,
``engine._thread_sums``: it lowers each matrix from the stored entries
itself (``rows_by_hand``), keeps the partial thread sums as a dict per
run and reads each target's column entry by entry.

``path_probabilities`` is the sampling table as ``Path`` pairs, the
engine's table placed by rank, and ``sample_rows`` the reference for the
draw (``engine._draw``) and for the rows of ``compalg sample``: it checks
and draws from a per-path list, and its rows hold ``Path`` objects.

``sum_of_products`` is the reference for ``Algebra.kernel``: it
interprets the product plan's (i, j, negate) triples in a loop.
``cayley_dickson_product`` is the reference for the structure table that
the plan is read from: the doubling formula applied recursively, from the
doubling signs ``GAMMAS`` alone.
``structure_constant`` reads one entry of that table.
``mul_by_table`` multiplies term by term through the structure table and
``quadratic_form_by_table`` takes Q on it: the references for
``algebra.mul`` and ``algebra.quadratic_form``, which run on the kernel,
and the products of every amplitude and probability oracle here and in
``conftest``.
"""

from __future__ import annotations

import itertools
import math

from compalg import engine
from compalg.algebra import (
    Amplitude, _require_same_algebra, is_exact, lift, lower, scalar_part, squared_norm, summed,
)
from compalg.dsl import ParseError, SourceSpan, Token
from compalg.errors import CoarsenMismatch, ImpossiblePathHasNoNormalForm, NotADistribution
from compalg.model import (
    Measurement,
    Path,
    _coarsen_direct,
    equal_measurements,
    find_igps,
    is_possible,
    normal_form,
    path_key,
    paths_over,
    runs,
    sequence,
)


def _survivors(p: Path, j: int):
    for lo, hi in runs(p):
        if lo <= j <= hi:
            if lo == hi:
                return None
            alive = None
            for k in range(lo, hi + 1):
                if k == j:
                    continue
                alive = p.results[k] if alive is None else alive & p.results[k]
            return alive
    raise AssertionError


def class_moves(p: Path):
    """All single equivalence moves from p."""
    # duplicate removal
    if len(p) > 2:
        for j in range(len(p) - 1):
            if equal_measurements(p.steps[j], p.steps[j + 1]) \
                    and p.results[j] == p.results[j + 1]:
                yield Path(sequence(p.steps[:j] + p.steps[j + 1:]),
                           p.results[:j] + p.results[j + 1:])
    for j in range(1, len(p) - 1):
        alive = _survivors(p, j)
        if alive is None:
            continue
        result = p.results[j]
        removable = result - alive
        # refinement with an impossible operand: split away any nonempty
        # proper subset of the result that misses every surviving thread
        for size in range(1, len(removable) + 1):
            for combo in itertools.combinations(sorted(removable), size):
                chunk = frozenset(combo)
                keep = result - chunk
                if not keep:
                    continue
                m = p.steps[j]
                blocks = (m.blocks - {result}) | {keep, chunk}
                new_m = Measurement(m.id, m.ground, blocks)
                yield Path(sequence(p.steps[:j] + (new_m,) + p.steps[j + 1:]),
                           p.results[:j] + (keep,) + p.results[j + 1:])
        # coarsening with an impossible operand: merge back any detector
        # that misses every surviving thread
        for blk in p.steps[j].blocks:
            if blk == result or blk & alive:
                continue
            m = p.steps[j]
            merged = result | blk
            blocks = (m.blocks - {result, blk}) | {merged}
            new_m = Measurement(m.id, m.ground, blocks)
            yield Path(sequence(p.steps[:j] + (new_m,) + p.steps[j + 1:]),
                       p.results[:j] + (merged,) + p.results[j + 1:])


def reachability_class(p: Path, limit: int = 20000):
    """All paths reachable from p by equivalence moves (BFS, deduplicated)."""
    seen = {path_key(p): p}
    frontier = [p]
    while frontier:
        nxt = []
        for q in frontier:
            for r in class_moves(q):
                key = path_key(r)
                if key not in seen:
                    if len(seen) >= limit:
                        raise RuntimeError("class exploration limit exceeded")
                    seen[key] = r
                    nxt.append(r)
        frontier = nxt
    return list(seen.values())


def size_of(p: Path):
    return (len(p), sum(len(r) for r in p.results))


def result_signature(p: Path):
    """Results and step grounds; the level at which the minimum is unique."""
    return (
        tuple(tuple(sorted(r)) for r in p.results),
        tuple(tuple(sorted(m.ground.elements)) for m in p.steps),
    )


def minimal_members(p: Path):
    """All size-minimal members of the reachability class of p."""
    members = reachability_class(p)
    best = min(size_of(q) for q in members)
    return [q for q in members if size_of(q) == best], members


# -- the rewriting rules behind the normal form ------------------------------------

def _run_of(p: Path, j: int) -> tuple:
    for lo, hi in runs(p):
        if lo <= j <= hi:
            return lo, hi
    raise AssertionError("unreachable")


def _surviving_set(p: Path, j: int):
    """Intersection of all other results in j's run, or None if j is alone."""
    lo, hi = _run_of(p, j)
    if lo == hi:
        return None
    others = [p.results[k] for k in range(lo, hi + 1) if k != j]
    alive = others[0]
    for r in others[1:]:
        alive &= r
    return alive


def _live_blocks(p: Path, j: int) -> frozenset:
    """Non-result blocks of step j that carry a surviving thread element.

    Blocks disjoint from the run's surviving set can be re-blocked at will
    by coarsening and refining with impossible operands, so only these
    blocks (and the result) constrain what step j can be turned into.
    """
    alive = _surviving_set(p, j)
    return frozenset(b for b in p.steps[j].blocks
                     if b != p.results[j] and alive & b)


def _canonical_step(p: Path, k: int) -> Measurement:
    """Step k with its re-blockable dead region split into singletons."""
    old = p.steps[k]
    if not 1 <= k <= len(p) - 2:
        return old
    live = _live_blocks(p, k)
    kept = live | {p.results[k]}
    dead = old.element_set() - frozenset().union(*kept)
    if not dead:
        return old
    blocks = kept | frozenset(frozenset({d}) for d in dead)
    return Measurement(old.id, old.ground, blocks)


def _drop_at(p: Path, j: int, k: int) -> Path:
    """Remove step j, canonicalizing its surviving twin at index k."""
    survivor = _canonical_step(p, k)
    steps = list(p.steps)
    steps[k] = survivor
    del steps[j]
    results = p.results[:j] + p.results[j + 1:]
    return Path(sequence(steps), results)


def _drop_candidates(p: Path) -> list:
    """Pairs (j, k): step j is redundant next to its equal-result neighbor k.

    A step can be dropped when a weakly equivalent neighbor carries the
    same result and either an identical detector set, or (for interior
    steps) a detector set into which step j can be re-blocked: every live
    block of step j must be a detector of the neighbor.
    """
    if len(p) <= 2:
        return []
    out = []
    for j in range(len(p)):
        interior = 1 <= j <= len(p) - 2
        for k in (j - 1, j + 1):
            if not 0 <= k < len(p):
                continue
            if p.steps[j].element_set() != p.steps[k].element_set():
                continue
            if p.results[j] != p.results[k]:
                continue
            if equal_measurements(p.steps[j], p.steps[k]) or (
                    interior and _live_blocks(p, j) <= p.steps[k].blocks):
                out.append((j, k))
                break
    return out


def _strip_candidates(p: Path) -> list:
    out = []
    for j in range(1, len(p) - 1):
        alive = _surviving_set(p, j)
        if alive is None:
            continue
        removed = p.results[j] - alive
        if removed and p.results[j] - removed:
            out.append(j)
    return out


def _strip_at(p: Path, j: int) -> Path:
    alive = _surviving_set(p, j)
    removed = p.results[j] - alive
    keep = p.results[j] - removed
    old = p.steps[j]
    blocks = (old.blocks - {p.results[j]}) | {keep, removed}
    m = Measurement(old.id, old.ground, blocks)
    steps = p.steps[:j] + (m,) + p.steps[j + 1:]
    return Path(sequence(steps), p.results[:j] + (keep,) + p.results[j + 1:])


def reduction_steps(p: Path):
    """All single reduction moves from p: redundant-step drops and element strips."""
    for j, k in _drop_candidates(p):
        yield ("drop", j, _drop_at(p, j, k))
    for j in _strip_candidates(p):
        yield ("strip", j, _strip_at(p, j))


def normal_form_by_rewriting(p: Path) -> Path:
    """The nonredundant representative of a possible path, by rewriting.

    Repeatedly strips from each interior result the elements that no
    surviving thread through its weak-equivalence run can carry (the
    result block splits in two), and drops steps that are redundant next
    to a weakly equivalent neighbor with the same result and a compatible
    detector structure, until no rule applies.  The reduction order does
    not affect the outcome.  Each pass recomputes every candidate, O(L^3)
    in all; kept as the reference for the direct ``model.normal_form``.
    """
    if find_igps(p):
        raise ImpossiblePathHasNoNormalForm(repr(p))
    while True:
        drops = _drop_candidates(p)
        if drops:
            j, k = drops[0]
            p = _drop_at(p, j, k)
            continue
        strips = _strip_candidates(p)
        if strips:
            p = _strip_at(p, strips[0])
            continue
        return p


def all_reduction_terminals(p: Path, memo: dict = None, limit: int = 200000):
    """Every fixed point reachable by applying reduction steps in any order.

    ``memo`` maps a path key to the frozenset of its terminal keys and may
    be shared across calls; terminal paths are stored under their own key.
    """
    if memo is None:
        memo = {}
    paths = {}

    def visit(q):
        key = path_key(q)
        if key in memo:
            return memo[key]
        if len(memo) > limit:
            raise RuntimeError("reduction exploration limit exceeded")
        moves = list(reduction_steps(q))
        if not moves:
            memo[key] = frozenset([key])
            paths[key] = q
            return memo[key]
        memo[key] = frozenset()  # cycle guard; reductions strictly shrink
        result = frozenset().union(*(visit(r) for _, _, r in moves))
        memo[key] = result
        return result

    terminal_keys = visit(p)
    out = []
    for key in terminal_keys:
        if key in paths:
            out.append(paths[key])
        else:
            out.append(_rebuild_terminal(p, key, memo))
    return out


def _rebuild_terminal(p: Path, key, memo):
    """Walk any reduction order from p until the requested terminal key."""
    q = p
    while path_key(q) != key:
        for _, _, r in reduction_steps(q):
            if key in memo.get(path_key(r), frozenset()):
                q = r
                break
        else:
            raise AssertionError("terminal unreachable")
    return q


def padded_variants(p: Path, target_len: int):
    """All paths obtained from p by duplicating steps to reach target_len."""
    extra = target_len - len(p)
    if extra < 0:
        return
    if extra == 0:
        yield p
        return
    for positions in itertools.combinations_with_replacement(range(len(p)), extra):
        steps = list(p.steps)
        results = list(p.results)
        for j in sorted(positions, reverse=True):
            steps.insert(j, steps[j])
            results.insert(j, results[j])
        yield Path(sequence(steps), tuple(results))


def dedup_by_rewriting(p: Path) -> Path:
    """p without duplicated steps, one removal and one rescan at a time."""
    while len(p) > 2:
        for j in range(len(p) - 1):
            if equal_measurements(p.steps[j], p.steps[j + 1]) \
                    and p.results[j] == p.results[j + 1]:
                p = Path(sequence(p.steps[:j] + p.steps[j + 1:]),
                         p.results[:j] + p.results[j + 1:])
                break
        else:
            return p
    return p


def coarsen_by_search(a: Path, b: Path) -> Path:
    """Coarsening by exhaustive search over padded redundancy representatives.

    Exponential in the path length; kept only as the reference that the
    direct alignment in ``model.coarsen`` must reproduce exactly.
    """
    try:
        return _coarsen_direct(a, b)
    except CoarsenMismatch:
        pass
    ra = normal_form(a) if is_possible(a) else dedup_by_rewriting(a)
    rb = normal_form(b) if is_possible(b) else dedup_by_rewriting(b)
    if ra == rb:
        raise CoarsenMismatch("equivalent operands do not differ at one step")
    lo = max(len(ra), len(rb))
    hi = lo + max(len(a), len(b))
    for target in range(lo, hi + 1):
        for pa in padded_variants(ra, target):
            for pb in padded_variants(rb, target):
                try:
                    return _coarsen_direct(pa, pb)
                except CoarsenMismatch:
                    continue
    raise CoarsenMismatch("no redundancy representatives align for coarsening")


def probabilities_by_enumeration(s, source, asg):
    """(path, Q(amplitude)) for every enumerated path from the source, with
    amplitudes from the literal thread enumeration in ``conftest`` and Q
    by ``quadratic_form_by_table``."""
    from compalg.model import enumerate_paths
    from conftest import amplitude_by_enumeration

    return [(p, quadratic_form_by_table(amplitude_by_enumeration(p, asg)))
            for p in enumerate_paths(s) if p.results[0] == source]


def path_probabilities(s, source, asg) -> list:
    """Every path from the source result with its probability, in
    ``enumerate_paths`` order: ``engine._probabilities``' rows, each
    probability at its row's rank, the exact 0 at every other path, zipped
    with the paths of ``paths_over``.  The table that the engine's sampler
    draws from, as ``Path`` pairs."""
    choices, rank, born = engine._probabilities(s, source, asg)
    probabilities = [0] * math.prod(map(len, choices))
    for r, q in zip(rank.tolist(), born):
        probabilities[r] = q
    return list(zip(paths_over(s, choices), probabilities))


def sample_rows(s, source, asg, n: int, seed: int) -> list:
    """The reference for ``engine._draw`` and ``compalg sample``: one
    (path, count, probability) row per path from the source result, in
    ``path_key`` order, over the ``Path`` pairs of ``path_probabilities``,
    checked and drawn from a per-path list of the probabilities: a negative
    one (below 0 exactly, below -1e-12 in float mode) or one beyond the
    float range names its path, a mass off one by more than
    DISTRIBUTION_TOL, added left to right, is refused, and the counts are
    one multinomial draw seeded with [seed, 0]."""
    import numpy as np

    if not 0 <= n < engine.MAX_DRAWS:
        raise ValueError(f"number of draws must lie in [0, 2**63), got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    table = path_probabilities(s, source, asg)
    probabilities = [q for _, q in table]
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
        p = table[first][0]
        if negative[first]:
            raise NotADistribution(
                f"negative probability {engine._shown(probabilities[first])} for {p!r}")
        raise NotADistribution(f"probability of {p!r} exceeds the float range")
    weights = np.maximum(weights, 0.0)
    mass = float(np.cumsum(weights)[-1])
    if not abs(mass - 1.0) <= engine.DISTRIBUTION_TOL:
        raise NotADistribution(f"path probabilities sum to {mass}, not 1")
    counts = np.random.default_rng([seed, 0]).multinomial(n, weights / weights.sum()).tolist()
    return [(p, count, q) for (p, q), count in zip(table, counts)]


def total_by_enumeration(s, source, asg):
    """Sum over enumerated paths from the source of Q(amplitude): the
    reference for ``engine.total_probability``."""
    total = 0
    for _, q in probabilities_by_enumeration(s, source, asg):
        total = total + q
    return total


def pair_transfer_by_full_state(classes, matrices, algebra) -> tuple:
    """S_0(x, x) for the one element x of run 0 (``classes[0] == [[x]]``),
    by the backward recursion of ``engine.total_probability`` on the full
    pair state

        S_last(x, x') = 1
        S_k(x, x')    = sum_y' (sum_y E_k[x][y] S_k+1(y, y')) conj(E_k[x'][y'])

    with every S_k(x, x') for x, x' in one class of run k held as a
    coefficient tuple, both triangles and the diagonal: the reference for
    ``engine._pair_transfer``, which carries the real diagonal and one
    triangle.  ``E_k = matrices[k]`` maps a run-k element to a dict over the
    run-(k+1) elements of coefficient tuples, read in class order,
    multiplied by the algebra's kernel and conjugated by ``Algebra.conj``.
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


def rows_of(asg, a, b) -> tuple:
    """``asg.lowered(a, b)`` transposed back to rows: (rows x -> {y:
    coefficient tuple}, the sources x sorted, and the same denominator)."""
    columns, den = asg.lowered(a, b)
    sources = sorted(next(iter(columns.values())))
    return {x: {y: column[x] for y, column in columns.items()} for x in sources}, den


def rows_by_hand(asg, a, b) -> tuple:
    """(rows x -> {y: coefficient tuple}, D) of the matrix from ground a to
    ground b, from the stored entries alone: ``asg.stored(a, b)``, else the
    conjugate transpose of ``asg.stored(b, a)``.  Exact: ints over D, the
    lcm of the pair's entry denominators; float: floats over 1, each
    coefficient converted before it is conjugated, as a one-way pair is
    lowered before its reverse is built."""
    stored, reverse = asg.stored(a, b), False
    if stored is None:
        stored, reverse = {(x, y): amp for (y, x), amp in asg.stored(b, a).items()}, True
    if asg.is_exact:
        den = math.lcm(*(c.denominator for amp in stored.values() for c in amp.coeffs))
        lowered = {xy: tuple(int(c * den) for c in amp.coeffs) for xy, amp in stored.items()}
    else:
        den, lowered = 1, {xy: tuple(map(float, amp.coeffs)) for xy, amp in stored.items()}
    rows = {}
    for (x, y), coeffs in lowered.items():
        rows.setdefault(x, {})[y] = _conj(coeffs) if reverse else coeffs
    return rows, den


def total_by_full_state(s, source, asg):
    """The exact sum rule from the source by ``pair_transfer_by_full_state``
    on a frame of its own: the runs of ``model.runs``, each later run's
    classes by grouping its sorted elements on the detector that holds
    each at every step of the run, and the lowered rows (``rows_of``).  The
    e0 of S_0(x, x) over the squared product of the boundary denominators,
    whose tail must vanish."""
    segments = runs(s)
    grounds = [s.steps[lo].element_set() for lo, _ in segments]
    lowered = [rows_of(asg, a, b) for a, b in zip(grounds, grounds[1:])]
    classes = [[sorted(source)]]
    for k, (lo, hi) in enumerate(segments[1:], 1):
        groups = {}
        for y in sorted(grounds[k]):
            detectors = tuple(next(b for b in m.blocks if y in b) for m in s.steps[lo:hi + 1])
            groups.setdefault(detectors, []).append(y)
        classes.append(list(groups.values()))
    den = math.prod(d for _, d in lowered)
    sums = pair_transfer_by_full_state(classes, [rows for rows, _ in lowered], asg.algebra)
    return scalar_part(Amplitude(asg.algebra, lift(sums, den * den, True)), True, None,
                       "summed pair products")


def validation_by_sum_rules(s, asg):
    """``engine.validate_assignment`` as whole sum rules: one
    ``total_probability`` per source element and, for each row x of each
    cross-ground step pair, one over the two atomic measurements of the
    pair from {x}.  The reference for the one pair recursion and the Born
    row sums that the engine runs instead."""
    from compalg.engine import (
        ValidationEntry, ValidationReport, _close, _shown, total_probability,
    )
    from compalg.errors import NonScalarProduct, NotADistribution, SequenceMismatch
    from compalg.model import atomic_measurement

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
            (forward, d_forward), (backward, d_backward) = rows_of(asg, a, b), rows_of(asg, b, a)
            adjoint_ok = all([c * d_backward for c in forward[x][y]] == [
                c * d_forward for c in asg.algebra.conj(backward[y][x])]
                for x in a for y in b)
            entries.append(ValidationEntry(
                "adjoint_consistency", loc, adjoint_ok,
                "" if adjoint_ok else "reverse matrix is not the conjugate transpose"))
        pair = sequence([atomic_measurement(m.ground) for m in (m_from, m_to)])
        for x in sorted(a):
            sum_rule("row_normalization", f"{loc} source {x}", pair, x, "sum of Q over targets")

    for x in sorted(s.steps[0].element_set()):
        sum_rule("sum_rule", f"source {x}", s, x, "total probability over paths")
    return ValidationReport(tuple(entries))


def thread_sums_by_dicts(p: Path, asg) -> tuple:
    """(sums, denominator) of one path as ``engine._thread_sums`` returns
    them, on runs and rows that it finds for itself (``model.runs``,
    ``rows_by_hand``): run by run, a dict from each sorted surviving element
    to its partial thread sum, one kernel call over the previous run's
    survivors in order, each entry of the column read by its own lookup;
    the sums add the last run's partials.  None for an impossible path."""
    segments = runs(p)
    grounds = [p.steps[lo].element_set() for lo, _ in segments]
    boundaries = [rows_by_hand(asg, a, b) for a, b in zip(grounds, grounds[1:])]
    den = math.prod(d for _, d in boundaries)
    kernel, unit = asg.algebra.kernel, asg.algebra.unit().coeffs
    for k, (lo, hi) in enumerate(segments):
        alive = p.results[lo].intersection(*p.results[lo + 1:hi + 1])
        if not alive:
            return None, den
        if k == 0:
            partial = {x: unit for x in sorted(alive)}
        else:
            rows, accs = boundaries[k - 1][0], partial.values()
            partial = {y: kernel(accs, [rows[x][y] for x in partial]) for y in sorted(alive)}
    return summed(partial.values(), asg.algebra.dim), den


def sum_of_products(plan: tuple, lefts, rights) -> tuple:
    """The coefficients of the sum of a * b over a in lefts and b in rights
    taken in step, coefficient tuples multiplied by a ``product_plan``.

    Each product is formed term by term in ``mul_by_table``'s order and
    then added to the running sum, so the result equals summing
    ``mul_by_table`` over the pairs from zero: exactly for rationals, and
    bit for bit for finite floats (where ``mul_by_table`` skips a zero term
    and keeps an int 0, this gives 0.0)."""
    out = [0] * len(plan)
    for a, b in zip(lefts, rights):
        k = 0
        for terms in plan:
            c = 0
            for i, j, negate in terms:
                if negate:
                    c -= a[i] * b[j]
                else:
                    c += a[i] * b[j]
            out[k] += c
            k += 1
    return tuple(out)


#: Doubling signs per algebra label, innermost first (gamma = -1 is split).
GAMMAS = {"R": (), "C": (1,), "C'": (-1,), "H": (1, 1), "H'": (1, -1),
          "O": (1, 1, 1), "O'": (1, 1, -1)}


def _conj(a: tuple) -> tuple:
    return (a[0],) + tuple(-c for c in a[1:])


def cayley_dickson_product(a: tuple, b: tuple, gammas: tuple) -> tuple:
    """(p, q)(r, s) = (pr - gamma conj(s) q, sp + q conj(r)) on coefficient
    tuples split into halves, recursively down to R."""
    if not gammas:
        return (a[0] * b[0],)
    h = len(a) // 2
    inner, gamma = gammas[:-1], gammas[-1]
    p, q, r, s = a[:h], a[h:], b[:h], b[h:]
    top = zip(cayley_dickson_product(p, r, inner), cayley_dickson_product(_conj(s), q, inner))
    bottom = zip(cayley_dickson_product(s, p, inner), cayley_dickson_product(q, _conj(r), inner))
    return tuple(x - gamma * y for x, y in top) + tuple(x + y for x, y in bottom)


def structure_constant(algebra, i: int, j: int, k: int) -> int:
    """The e_k coefficient of e_i e_j, read from the algebra's table."""
    kk, s = algebra.table[i][j]
    return s if kk == k else 0


def mul_by_table(a: Amplitude, b: Amplitude) -> Amplitude:
    """Bilinear product via the structure-constant table."""
    _require_same_algebra(a, b)
    alg = a.algebra
    out = [0] * alg.dim
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        row = alg.table[i]
        for j, bj in enumerate(b.coeffs):
            if bj == 0:
                continue
            k, s = row[j]
            term = ai * bj
            out[k] = out[k] + (term if s > 0 else -term)
    return Amplitude(alg, tuple(out))


def quadratic_form_by_table(a: Amplitude):
    """Q(a), the e_0 coefficient of ``mul_by_table(a, conj(a))``; the tail
    must be scalar as ``algebra.scalar_part`` rules."""
    return scalar_part(mul_by_table(a, a.conj()), is_exact(a.coeffs),
                       lambda: squared_norm(a.coeffs), "a*conj(a)")


def tokenize_by_scanning(text: str) -> list:
    """The DSL tokens of text, one character at a time: lines end at CR LF,
    CR and LF alone, blanks are skipped, "#" ends the line, and
    punctuation, strings and names become tokens; anything else raises
    ParseError with its span."""
    tokens = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        i = 0
        while i < len(line):
            ch = line[i]
            if ch == "#":
                break
            if ch.isspace():
                i += 1
                continue
            if ch in "{}[],=":
                tokens.append(Token(ch, ch, SourceSpan(lineno, i + 1, i + 2)))
                i += 1
                continue
            if ch == '"':
                j = line.find('"', i + 1)
                if j < 0:
                    raise ParseError("unterminated string",
                                     SourceSpan(lineno, i + 1, len(line) + 1))
                tokens.append(Token("string", line[i + 1:j],
                                    SourceSpan(lineno, i + 1, j + 2)))
                i = j + 1
                continue
            if ch.isalnum() or ch == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] in "_'"):
                    j += 1
                tokens.append(Token("name", line[i:j],
                                    SourceSpan(lineno, i + 1, j + 1)))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}",
                             SourceSpan(lineno, i + 1, i + 2))
    return tokens
