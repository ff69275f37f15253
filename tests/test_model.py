"""Model layer: partial operations, their laws, classification, enumeration."""

import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys

import pytest

from compalg import model
from compalg.algebra import AlgebraKind, make_algebra
from compalg.engine import Assignment, check_certain_insertion
from compalg.errors import (
    ChainMismatch,
    CoarsenMismatch,
    GroundSetTooLarge,
    InsertMismatch,
    NotAFactor,
    NotRefinable,
    TooManyPaths,
)
from compalg.model import (
    GroundSet,
    atomic_measurement,
    chain,
    classify,
    coarsen,
    enumerate_partitions,
    enumerate_paths,
    equal_measurements,
    factorize,
    find_igps,
    insert_cyclic,
    insert_measurement,
    is_possible,
    measurement,
    path,
    refine,
    reverse,
    sequence,
    unchain_left,
    unchain_right,
    weakly_equivalent,
)

from conftest import (
    AM, BM, DM, G3, GM, MIX_GROUNDS, UM,
    fully_coarse_measurement,
    universe_sequences,
)

N = GroundSet("N", ("n1", "n2"))
AN = atomic_measurement(N, "aN")
O_ = GroundSet("O", ("o1", "o2"))
AO = atomic_measurement(O_, "aO")


def test_weak_equivalence():
    assert weakly_equivalent(AM, BM)
    assert weakly_equivalent(AM, AM)
    assert not weakly_equivalent(AM, AN)


def test_measurement_equality():
    assert equal_measurements(AM, AM)
    assert not equal_measurements(AM, DM)
    relabeled = measurement("other-label", G3, [["m2"], ["m1"], ["m"]])
    assert equal_measurements(AM, relabeled)


def test_block_containing_reads_one_map():
    """Each element's block, from a map built on first use and kept; an
    element of no block is a KeyError.  Fields, equality, hash and a
    pickle round trip stay those of the declared fields."""
    m = measurement("half", G3, [["m", "m2"], ["m1"]])
    assert [m.block_containing(x) for x in G3.elements] \
        == [frozenset({"m", "m2"}), frozenset({"m1"}), frozenset({"m", "m2"})]
    assert m.block_containing("m") is m.block_containing("m2")
    with pytest.raises(KeyError):
        m.block_containing("n1")
    assert [f.name for f in dataclasses.fields(m)] == ["id", "ground", "blocks"]
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m == DM and hash(copy) == hash(DM)
    assert copy.block_containing("m1") == frozenset({"m1"})


def test_partition_invariant_enforced():
    with pytest.raises(ValueError):
        measurement("bad", G3, [["m"], ["m1"]])  # misses m2
    with pytest.raises(ValueError):
        measurement("bad", G3, [["m", "m1"], ["m1", "m2"]])  # overlap
    # an id given twice, in one block or in two, is not merged into one
    for blocks, repeat in (([["m", "m"], ["m1"], ["m2"]], "m"),
                           ([["m"], ["m1"], ["m1"], ["m2"]], "m1"),
                           ([["m2", "m", "m1", "m", "m1"]], "m")):
        with pytest.raises(ValueError, match=f"^duplicate element id '{repeat}'$"):
            measurement("bad", G3, blocks)


def test_sequence_invariants():
    with pytest.raises(ValueError):
        sequence([AM])
    with pytest.raises(ValueError):
        sequence([BM, AM])  # non-atomic source
    with pytest.raises(ValueError):
        sequence([AM, UM])  # non-atomic target


def test_ground_set_element_set_is_built_once():
    """The element set is built once; fields, equality, repr and a pickle
    round trip are those of the two declared fields."""
    g = GroundSet("G", ("b", "a"))
    assert g.element_set() is g.element_set() == frozenset({"a", "b"})
    assert [f.name for f in dataclasses.fields(g)] == ["id", "elements"]
    assert g == GroundSet("G", ("b", "a")) and hash(g) == hash(GroundSet("G", ("b", "a")))
    assert g != GroundSet("G", ("a", "b"))
    assert repr(g) == "GroundSet(id='G', elements=('b', 'a'))"
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.element_set() == g.element_set()
    with pytest.raises(ValueError, match="unique"):
        GroundSet("G", ("a", "a"))


def test_sequence_plan_places_every_possible_path():
    """Over every sequence of up to four steps over grounds of one to three
    elements, the plan is built once and kept, and holds the runs, their
    grounds and each step's sorted blocks.  Each run's classes partition its
    ground, and from every source the possible paths are exactly the
    combinations of one class per later run: each such path keeps exactly
    one class alive per run, and its place among the source's paths in
    ``enumerate_paths`` order is the mixed-radix number of those classes'
    ranks, each run's radix its count of result combinations after step 0.
    A kept plan changes neither equality, hash nor a pickle round trip."""
    sequences = universe_sequences(MIX_GROUNDS, 4)
    for s in sequences:
        plan = s.plan
        assert s.plan is plan and plan.runs == tuple(model.runs(s))
        assert plan.grounds == tuple(s.steps[lo].element_set() for lo, _ in plan.runs)
        assert plan.choices == tuple(tuple(model.sorted_blocks(m.blocks)) for m in s.steps)
        for ground, classes in zip(plan.grounds, plan.classes):
            assert sorted(x for cls in classes for x in cls) == sorted(ground)
        assert all(len(cls) == 1 for cls in plan.classes[0])
        paths = enumerate_paths(s)
        per_source = len(paths) // len(s.steps[0].blocks)
        for start in range(0, len(paths), per_source):
            places = []
            for i, p in enumerate(paths[start:start + per_source]):
                alive = [tuple(sorted(p.results[lo].intersection(*p.results[lo + 1:hi + 1])))
                         for lo, hi in plan.runs]
                if not all(alive):
                    continue
                place = 0
                for (lo, hi), classes, ranks, survivors in zip(
                        plan.runs, plan.classes, plan.ranks, alive):
                    radix = math.prod(map(len, plan.choices[max(lo, 1):hi + 1]))
                    place = place * radix + ranks[classes.index(survivors)]
                assert place == i, (s, p)
                places.append(place)
            assert len(places) == math.prod(len(classes) for classes in plan.classes[1:])
    s = sequences[-1]
    fresh = sequence(s.steps)
    assert fresh == s and hash(fresh) == hash(s)
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and hash(copy) == hash(s) and copy.plan == s.plan


PICKLE_UNDER_SEED_0 = """
import pickle, sys
from compalg.model import GroundSet, atomic_measurement, measurement, path
g, h = GroundSet("G", ("a", "b", "c")), GroundSet("H", ("x", "y"))
p = path([atomic_measurement(g), measurement("m", g, [["a", "b"], ["c"]]), atomic_measurement(h)],
         [["a"], ["a", "b"], ["x"]])
p.sequence.plan
sys.stdout.buffer.write(pickle.dumps((p.sequence, p)))
"""

LOAD_UNDER_SEED_1 = """
import pickle, sys
from compalg.model import Path, sequence
s, p = pickle.loads(sys.stdin.buffer.read())
fresh = sequence(s.steps)
assert p.sequence is s and fresh == s and hash(fresh) == hash(s), "sequence hash"
assert Path(fresh, p.results) in {p: 1}, "path as a dict key"
assert s.plan == fresh.plan, "plan"
"""


def test_pickled_sequence_hashes_as_in_the_loading_process():
    """A sequence pickled in one process, its plan built, and loaded in
    another with a different string hash seed hashes as the same sequence
    built there, so a loaded path is found under a fresh one as a dict key."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    pickled = subprocess.run([sys.executable, "-c", PICKLE_UNDER_SEED_0], capture_output=True,
                             env=env, check=True).stdout
    env["PYTHONHASHSEED"] = "1"
    loaded = subprocess.run([sys.executable, "-c", LOAD_UNDER_SEED_1], input=pickled,
                            capture_output=True, env=env)
    assert loaded.returncode == 0, loaded.stderr.decode()


def test_equal_sequences_are_equal_keys():
    """Sequences built separately, over relabelled but equal measurements,
    hash and compare equal, and so do paths over them, as dict keys."""
    relabeled = measurement("other-label", G3, [["m2"], ["m1"], ["m"]])
    s1, s2 = sequence([AM, BM, AM]), sequence([relabeled, BM, relabeled])
    assert s1 is not s2 and s1 == s2 and hash(s1) == hash(s2) == hash(s1)
    assert s1 != sequence([AM, AM]) and {s1: 1, s2: 2} == {s1: 2}
    results = [["m"], ["m", "m1"], ["m1"]]
    p1, p2 = path(s1.steps, results), path(s2.steps, results)
    assert p1.sequence is not p2.sequence and p1 == p2 and hash(p1) == hash(p2)
    counts = {p1: 3}
    counts[p2] += 1
    assert counts == {p2: 4} and path([AM, AM], [["m"], ["m"]]) not in counts


def test_built_paths_are_checked_paths():
    """``paths_over`` writes each path's fields straight into its instance
    dict: every path equals, hashes, prints and round-trips through pickle
    as the checked ``Path`` over the same results, has the same fields and
    instance dict, and is found under it as a dict key.  ``enumerate_paths``
    builds its paths the same way."""
    s = sequence([AN, AM, BM, UM, GM, AO])
    choices = [model.sorted_blocks(m.blocks) for m in s.steps]
    built = model.paths_over(s, choices)
    checked = [model.Path(s, results) for results in itertools.product(*choices)]
    assert len(built) == len(checked) == math.prod(map(len, choices)) == 48
    assert model.enumerate_paths(s) == built
    for p, q in zip(built, checked):
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert vars(p) == vars(q) and dataclasses.astuple(p) == dataclasses.astuple(q)
        copy = pickle.loads(pickle.dumps(p))
        assert type(copy) is model.Path and copy == q and hash(copy) == hash(q)
        assert vars(copy) == vars(q) and repr(copy) == repr(q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.results = q.results
    counts = dict.fromkeys(built, 0)
    for q in checked:
        counts[q] += 1
    assert set(counts.values()) == {1}


def test_path_results_must_be_detectors():
    with pytest.raises(ValueError):
        path([AM, AM], [["m"], ["m", "m1"]])


# -- chaining -------------------------------------------------------------------

def test_chain_length_and_junction():
    a = path([AN, AM], [["n1"], ["m"]])
    b = path([AM, AO], [["m"], ["o1"]])
    c = chain(a, b)
    assert len(c) == 3
    assert c.results == (frozenset({"n1"}), frozenset({"m"}), frozenset({"o1"}))


def test_chain_mismatch():
    a = path([AN, AM], [["n1"], ["m"]])
    b = path([AM, AO], [["m1"], ["o1"]])
    with pytest.raises(ChainMismatch):
        chain(a, b)
    with pytest.raises(ChainMismatch):
        chain(a, path([AN, AO], [["n1"], ["o1"]]))


def test_chain_with_trivial_path_is_redundant():
    from compalg.model import equivalent
    a = path([AN, AM], [["n1"], ["m"]])
    trivial = path([AM, AM], [["m"], ["m"]])
    assert equivalent(chain(a, trivial), a)


def test_chain_associativity():
    a = path([AN, AM], [["n1"], ["m"]])
    b = path([AM, AO], [["m"], ["o1"]])
    c = path([AO, AN], [["o1"], ["n2"]])
    assert chain(chain(a, b), c) == chain(a, chain(b, c))


def test_unchaining_roundtrips():
    a = path([AN, AM], [["n1"], ["m"]])
    b = path([AM, AO], [["m"], ["o1"]])
    c = chain(a, b)
    assert unchain_right(c, b) == a
    assert unchain_left(a, c) == b
    with pytest.raises(NotAFactor):
        unchain_right(c, path([AN, AO], [["n1"], ["o1"]]))
    with pytest.raises(NotAFactor):
        unchain_right(c, c)


# -- coarsening and refinement ------------------------------------------------------

def bracket(mid_result):
    return path([AN, AM, AN], [["n1"], mid_result, ["n1"]])


def test_coarsen_merges_blocks():
    c = coarsen(bracket(["m"]), bracket(["m1"]))
    assert c.results[1] == frozenset({"m", "m1"})
    assert c.steps[1].blocks == frozenset({
        frozenset({"m", "m1"}), frozenset({"m2"})})


def test_coarsen_commutative():
    a, b = bracket(["m"]), bracket(["m1"])
    assert coarsen(a, b) == coarsen(b, a)


def test_coarsen_partial_associativity():
    a, b, c = bracket(["m"]), bracket(["m1"]), bracket(["m2"])
    assert coarsen(coarsen(a, b), c) == coarsen(a, coarsen(b, c))


def test_coarsen_endpoint_rejected():
    a = path([AN, AM], [["n1"], ["m"]])
    b = path([AN, AM], [["n2"], ["m"]])
    with pytest.raises(CoarsenMismatch):
        coarsen(a, b)


def test_coarsen_overlapping_rejected():
    a = bracket(["m"])
    with pytest.raises(CoarsenMismatch):
        coarsen(a, a)
    # an impossible path is equivalent to itself and to its padded copies,
    # although a padding of it differs from another in one step
    u1 = GroundSet("U1", ("u",))
    u3 = GroundSet("U3", ("x", "y", "z"))
    a1, a3, c3 = atomic_measurement(u1), atomic_measurement(u3), fully_coarse_measurement(u3)
    imp = path([a1, c3, a3, a3], [["u"], ["x", "y", "z"], ["y"], ["z"]])
    padded = path([a1, c3, a3, a3, a3], [["u"], ["x", "y", "z"], ["y"], ["y"], ["z"]])
    for left, right in ((imp, imp), (imp, padded), (padded, imp)):
        with pytest.raises(CoarsenMismatch):
            coarsen(left, right)


def test_coarsen_extended_over_redundant_representatives():
    # operands of different lengths align after removing a duplicated step
    a = path([AN, AM, AM, AN], [["n1"], ["m"], ["m"], ["n1"]])
    b = bracket(["m1"])
    c = coarsen(a, b)
    assert c.results[1] == frozenset({"m", "m1"})


def test_coarsen_over_different_grounds_rejected():
    u1 = GroundSet("U1", ("u",))
    u2 = GroundSet("U2", ("a", "b"))
    a1 = atomic_measurement(u1, "a1")
    c2 = fully_coarse_measurement(u2, "c2")
    p = path([a1, a1, a1], [["u"], ["u"], ["u"]])
    q = path([a1, c2, a1], [["u"], ["a", "b"], ["u"]])
    with pytest.raises(CoarsenMismatch):
        coarsen(p, q)
    with pytest.raises(CoarsenMismatch):
        coarsen(q, p)


def test_coarsen_skips_alignments_over_different_grounds(monkeypatch):
    # the first padded pair that differs in one step differs over U1 and U2;
    # the next one merges {a} and {b}
    u1 = GroundSet("U1", ("u",))
    u2 = GroundSet("U2", ("a", "b"))
    a1, a2 = atomic_measurement(u1), atomic_measurement(u2)
    a = path([a1, a2], [["u"], ["a"]])
    b = path([a1, a2, a2], [["u"], ["b"], ["a"]])
    rejected = []
    direct = model._coarsen_direct

    def recording(p, q):
        try:
            return direct(p, q)
        except CoarsenMismatch as exc:
            rejected.append(str(exc))
            raise

    monkeypatch.setattr(model, "_coarsen_direct", recording)
    c = coarsen(a, b)
    assert [sorted(r) for r in c.results] == [["u"], ["a", "b"], ["a"]]
    assert rejected[1:] == ["results to merge lie over different ground sets"]


def test_refine_examples():
    a, b = bracket(["m"]), bracket(["m1"])
    c = coarsen(a, b)
    assert refine(c, b) == a
    assert refine(c, a) == b
    with pytest.raises(NotRefinable):
        refine(c, bracket(["m2"]))
    with pytest.raises(NotRefinable):
        refine(a, c)


def test_distributivity_of_chaining_over_coarsening():
    pre = path([AO, AN], [["o1"], ["n1"]])
    b, c = bracket(["m"]), bracket(["m1"])
    left = chain(pre, coarsen(b, c))
    right = coarsen(chain(pre, b), chain(pre, c))
    assert left == right
    post = path([AN, AO], [["n1"], ["o2"]])
    assert chain(coarsen(b, c), post) == coarsen(chain(b, post), chain(c, post))


# -- reversal -----------------------------------------------------------------------

def test_reverse_basics():
    a = path([AN, AM, AO], [["n1"], ["m"], ["o2"]])
    r = reverse(a)
    assert r.results == tuple(reversed(a.results))
    assert reverse(r) == a


def test_reverse_antidistributes_over_chain():
    a = path([AN, AM], [["n1"], ["m"]])
    b = path([AM, AO], [["m"], ["o1"]])
    assert reverse(chain(a, b)) == chain(reverse(b), reverse(a))


def test_reverse_distributes_over_coarsen():
    b, c = bracket(["m"]), bracket(["m1"])
    assert reverse(coarsen(b, c)) == coarsen(reverse(b), reverse(c))


def test_reverse_of_symmetric_path_is_itself():
    a = path([AN, AM, AN], [["n1"], ["m"], ["n1"]])
    assert reverse(a) == a


# -- insertion ------------------------------------------------------------------------

def test_insert_single_certain_measurement():
    a = path([AN, AO], [["n1"], ["o1"]])
    grown = insert_measurement(a, 1, UM, G3.elements)
    assert len(grown) == 3
    assert grown.results[1] == frozenset(G3.elements)
    with pytest.raises(InsertMismatch):
        insert_measurement(a, 0, UM, G3.elements)
    with pytest.raises(InsertMismatch):
        insert_measurement(a, 2, UM, G3.elements)


def test_insert_cyclic_path():
    a = path([AN, AM, AO], [["n1"], ["m"], ["o1"]])
    x = path([AM, AO, AM], [["m"], ["o2"], ["m"]])
    grown = insert_cyclic(a, 1, x)
    assert len(grown) == len(a) + len(x) - 1
    assert [sorted(r) for r in grown.results] == \
        [["n1"], ["m"], ["o2"], ["m"], ["o1"]]
    non_cyclic = path([AM, AO], [["m"], ["o1"]])
    with pytest.raises(InsertMismatch):
        insert_cyclic(a, 1, non_cyclic)
    with pytest.raises(InsertMismatch):
        insert_cyclic(a, 2, x)  # junction measurement differs


# -- factorization ----------------------------------------------------------------------

def test_factorize_at_interior_atomic_steps():
    a = path([AN, AM, AO], [["n1"], ["m"], ["o1"]])
    parts = factorize(a)
    assert len(parts) == 2
    assert parts[0] == path([AN, AM], [["n1"], ["m"]])
    assert parts[1] == path([AM, AO], [["m"], ["o1"]])
    rebuilt = parts[0]
    for f in parts[1:]:
        rebuilt = chain(rebuilt, f)
    assert rebuilt == a


def test_factorize_three_factors():
    a = path([AN, AM, AO, AN], [["n1"], ["m"], ["o1"], ["n2"]])
    assert len(factorize(a)) == 3


def test_factorize_undecomposable():
    a = path([AN, UM, AO], [["n1"], G3.elements, ["o1"]])
    assert factorize(a) == [a]


# -- impossibility ------------------------------------------------------------------------

def test_find_igps_worked_example():
    b = path([AM, BM, GM, AM], [["m1"], ["m2"], ["m1", "m2"], ["m1"]])
    igps = find_igps(b)
    assert (0, 1) in igps and igps
    a = path([AM, BM, GM, AM], [["m1"], ["m", "m1"], ["m1", "m2"], ["m1"]])
    assert find_igps(a) == ()
    trivial = path([AM, AM], [["m"], ["m"]])
    assert find_igps(trivial) == ()


def test_thread_death_without_adjacent_disjointness():
    # every adjacent pair overlaps, yet no single element survives the run
    c = path([AM, BM, GM, AM], [["m1"], ["m", "m1"], ["m"], ["m"]])
    assert find_igps(c) == ((1, 2),)
    assert not is_possible(c)


def test_possible_path_count_from_fixed_source():
    s = sequence([AM, BM, GM, AM])
    start = frozenset({"m1"})
    possible = [p for p in enumerate_paths(s)
                if p.results[0] == start and is_possible(p)]
    assert len(possible) == 1


# -- classification --------------------------------------------------------------------------

def test_classify_cyclic_not_symmetric():
    p = path([AN, AM, AO, DM, AN], [["n1"], ["m1"], ["o1"], ["m1"], ["n1"]])
    flags = classify(p)
    assert flags.cyclic and not flags.symmetric
    assert flags.possible and not flags.trivial


def test_classify_symmetric():
    p = path([AN, AM, AN], [["n1"], ["m"], ["n1"]])
    flags = classify(p)
    assert flags.symmetric and flags.cyclic


def test_classify_trivial():
    p = path([AM, AM], [["m"], ["m"]])
    flags = classify(p)
    assert flags.trivial and flags.symmetric and flags.cyclic and flags.possible


def test_classify_symmetric_in_nonredundant_form_only():
    p = path([AN, AM, AM, AN], [["n1"], ["m"], ["m"], ["n1"]])
    assert classify(p).symmetric


# -- enumeration -------------------------------------------------------------------------------

def test_enumerate_partitions_counts():
    assert len(enumerate_partitions(G3)) == 5
    g1 = GroundSet("g1", ("only",))
    assert len(enumerate_partitions(g1)) == 1
    g4 = GroundSet("g4", tuple("abcd"))
    assert len(enumerate_partitions(g4)) == 15
    big = GroundSet("big", tuple(f"e{i}" for i in range(11)))
    with pytest.raises(GroundSetTooLarge):
        enumerate_partitions(big)


def test_enumerate_partitions_matches_worked_five():
    found = {m.blocks for m in enumerate_partitions(G3)}
    expected = {m.blocks for m in (AM, BM, GM, DM, UM)}
    assert found == expected


def test_enumerate_paths_product_count():
    s = sequence([AM, AN])
    assert len(enumerate_paths(s)) == 6
    # 3^13 > 10^6 paths: the bound counts them without listing any
    with pytest.raises(TooManyPaths, match="^1594323 paths exceeds bound 1000000$"):
        enumerate_paths(sequence([AM] * 13))


def test_enumerate_paths_fully_coarse_interior():
    s = sequence([AN, UM, AN])
    paths_ = enumerate_paths(s)
    assert len(paths_) == 4  # 2 sources x 1 interior x 2 targets
    starts = {p.results[0] for p in paths_}
    assert starts == {frozenset({"n1"}), frozenset({"n2"})}


def test_length_bookkeeping():
    a = path([AN, AM], [["n1"], ["m"]])
    b = path([AM, AO], [["m"], ["o1"]])
    assert len(chain(a, b)) == len(a) + len(b) - 1
    grown = insert_measurement(chain(a, b), 1, UM, G3.elements)
    assert len(grown) == len(chain(a, b)) + 1


def test_classify_flag_invariants():
    from conftest import universe_paths
    from compalg.model import normal_form, is_possible, reverse as rev
    for p in universe_paths([G3], 4):
        flags = classify(p)
        assert flags.possible == (not flags.igps)
        if flags.symmetric:
            assert flags.cyclic
        if flags.trivial:
            assert flags.possible and flags.symmetric
        if flags.possible and flags.symmetric:
            nf = normal_form(p)
            assert rev(nf) == nf


# -- error messages ------------------------------------------------------------------

W4 = GroundSet("W4", ("w", "x", "y", "z"))
AW = atomic_measurement(W4, "aW")
PAIRED_W = measurement("pW", W4, [["w", "x"], ["y", "z"]])
SPLIT_W = measurement("sW", W4, [["w"], ["x"], ["y", "z"]])
M3 = path([AM, AM, AM], [["m"], ["m"], ["m"]])
NO_MATRICES = Assignment(make_algebra(AlgebraKind.R), [])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: refine(M3, path([AM, AM], [["m"], ["m"]])),
                 NotRefinable, "operands have different lengths", id="refine-lengths"),
    pytest.param(lambda: refine(M3, M3),
                 NotRefinable, "operands differ at 0 steps, need exactly 1", id="refine-steps"),
    pytest.param(lambda: refine(path([AM, AM, AM], [["m1"], ["m"], ["m"]]), M3),
                 NotRefinable, "cannot refine at the source or target", id="refine-endpoint"),
    pytest.param(lambda: refine(path([AM, BM, AM], [["m"], ["m", "m1"], ["m"]]),
                                path([AM, GM, AM], [["m"], ["m"], ["m"]])),
                 NotRefinable, "split remainder is not a detector of the finer measurement",
                 id="refine-remainder"),
    pytest.param(lambda: refine(path([AW, PAIRED_W, AW], [["w"], ["w", "x"], ["w"]]),
                                path([AW, AW, AW], [["w"], ["w"], ["w"]])),
                 NotRefinable, "coarse measurement does not merge exactly the two results",
                 id="refine-merge"),
    pytest.param(lambda: unchain_left(M3, M3),
                 NotAFactor, "prefix is too long to leave a suffix path", id="unchain-left-length"),
    pytest.param(lambda: unchain_left(path([AM, AM], [["m"], ["m"]]),
                                      path([AM, BM, AM], [["m"], ["m", "m1"], ["m"]])),
                 NotAFactor, "prefix measurements do not match", id="unchain-left-steps"),
    pytest.param(lambda: unchain_left(path([AM, AM], [["m"], ["m1"]]), M3),
                 NotAFactor, "prefix results do not match", id="unchain-left-results"),
    pytest.param(lambda: unchain_right(M3, path([AM, AM], [["m1"], ["m1"]])),
                 NotAFactor, "suffix results do not match", id="unchain-right-results"),
    pytest.param(lambda: insert_measurement(M3, 1, BM, ["m"]),
                 InsertMismatch, "result is not a detector of the inserted measurement",
                 id="insert-result"),
    pytest.param(lambda: insert_cyclic(M3, 5, path([AM, AM], [["m"], ["m"]])),
                 InsertMismatch, "junction index 5 out of range", id="insert-cyclic-index"),
    # the direct merge that coarsen tries first; coarsen then merges these operands
    # through their redundancy representatives
    pytest.param(lambda: model._coarsen_direct(path([AW, SPLIT_W, AW], [["w"], ["w"], ["w"]]),
                                               path([AW, AW, AW], [["w"], ["x"], ["w"]])),
                 CoarsenMismatch, "detectors outside the merged result disagree",
                 id="coarsen-outside"),
    pytest.param(lambda: GroundSet("E", ()),
                 ValueError, "ground set must be nonempty", id="empty-ground"),
    pytest.param(lambda: measurement("e", G3, [[], ["m", "m1", "m2"]]),
                 ValueError, "empty detector block", id="empty-detector"),
    pytest.param(lambda: model.Path(sequence([AM, AM]), (frozenset({"m"}),)),
                 ValueError, "one result per measurement required", id="path-length"),
    pytest.param(lambda: check_certain_insertion(M3, 1, BM, NO_MATRICES, NO_MATRICES),
                 ValueError, "inserted measurement must be fully coarse-grained",
                 id="certain-insertion"),
])
def test_model_error_messages(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
