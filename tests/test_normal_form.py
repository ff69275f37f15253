"""Normal forms: examples, the rewriting oracle, confluence, class-minimality,
impossibility closure."""

import random
import time

import pytest

from compalg.errors import ImpossiblePathHasNoNormalForm
from compalg.model import (
    GroundSet,
    Measurement,
    Path,
    _dedup_fixpoint,
    atomic_measurement,
    classify,
    coarsen,
    enumerate_partitions,
    equivalent,
    is_possible,
    normal_form,
    path,
    refine,
    runs,
    sequence,
)

from conftest import AM, BM, G3, GM, MIX_GROUNDS, UM, universe_paths
from oracle import (
    all_reduction_terminals,
    dedup_by_rewriting,
    minimal_members,
    normal_form_by_rewriting,
    result_signature,
    size_of,
)

N = GroundSet("N", ("n1", "n2"))
AN = atomic_measurement(N, "aN")


def test_duplicate_step_removed():
    p = path([AN, AM, AM, AN], [["n1"], ["m"], ["m"], ["n2"]])
    nf = normal_form(p)
    assert len(nf) == 3
    assert nf == path([AN, AM, AN], [["n1"], ["m"], ["n2"]])


def test_dead_elements_stripped_then_dedup():
    p = path([AM, BM, AM], [["m1"], ["m", "m1"], ["m1"]])
    nf = normal_form(p)
    assert len(nf) == 2
    assert all(r == frozenset({"m1"}) for r in nf.results)


def test_fixed_point_is_identity():
    p = path([AN, GM, AN], [["n1"], ["m1", "m2"], ["n1"]])
    assert normal_form(p) == p


def test_impossible_path_has_no_normal_form():
    p = path([AM, BM, GM, AM], [["m1"], ["m2"], ["m1", "m2"], ["m1"]])
    with pytest.raises(ImpossiblePathHasNoNormalForm):
        normal_form(p)


def test_equivalence_examples():
    a = path([AN, AM, AN], [["n1"], ["m"], ["n2"]])
    dup = path([AN, AM, AM, AN], [["n1"], ["m"], ["m"], ["n2"]])
    assert equivalent(a, dup)

    b = path([AN, AM, AN], [["n1"], ["m1"], ["n2"]])
    assert not equivalent(a, b)

    # coarsening with an impossible path does not change the class
    mid = path([AM, GM, AM], [["m1"], ["m1", "m2"], ["m1"]])
    dead = path([AM, GM, AM], [["m1"], ["m"], ["m1"]])
    assert not is_possible(dead)
    assert equivalent(mid, coarsen(mid, dead))


def test_refine_by_impossible_keeps_class():
    mid = path([AM, UM, AM], [["m1"], G3.elements, ["m1"]])
    split = Measurement("s", G3, frozenset({
        frozenset({"m"}), frozenset({"m1", "m2"})}))
    dead = Path(sequence([AM, split, AM]),
                (frozenset({"m1"}), frozenset({"m"}), frozenset({"m1"})))
    assert not is_possible(dead)
    refined = refine(mid, dead)
    assert is_possible(refined)
    assert equivalent(mid, refined)


@pytest.fixture(scope="module")
def small_universe():
    return universe_paths([G3], 4)


@pytest.fixture(scope="module")
def two_ground_universe():
    """All paths over the 2- and 3-element mixed grounds, lengths 2..5."""
    return universe_paths(MIX_GROUNDS[1:], 5)


SEED_GROUNDS = MIX_GROUNDS + [GroundSet("U4", ("p", "q", "r", "s"))]
SEED_PARTITIONS = {g: enumerate_partitions(g) for g in SEED_GROUNDS}


def seeded_path(rng, length, possible=True):
    """A random path of the given length over the seed grounds.

    Runs of 1..40 steps over alternating grounds; each run follows one
    thread element through random partitions, so the path is possible.
    With ``possible=False`` one result in ten is a random detector, which
    usually kills the thread.
    """
    steps, results = [], []
    ground = None
    while len(steps) < length:
        ground = rng.choice([g for g in SEED_GROUNDS if g is not ground])
        parts = SEED_PARTITIONS[ground]
        x = rng.choice(ground.elements)
        for _ in range(min(rng.randint(1, 40), length - len(steps))):
            # the last partition listed is the atomic one
            m = parts[-1] if not steps or len(steps) == length - 1 else rng.choice(parts)
            if possible or rng.random() < 0.9:
                results.append(m.block_containing(x))
            else:
                results.append(rng.choice(sorted(m.blocks, key=sorted)))
            steps.append(m)
    return Path(sequence(steps), tuple(results))


def assert_matches_rewriting(paths):
    """normal_form equals the rewriting fixpoint, and both reject impossible paths."""
    for p in paths:
        if is_possible(p):
            assert normal_form(p) == normal_form_by_rewriting(p), repr(p)
        else:
            for reduce in (normal_form, normal_form_by_rewriting):
                with pytest.raises(ImpossiblePathHasNoNormalForm):
                    reduce(p)


@pytest.mark.parametrize("universe", ["small_universe", "mixed_universe_paths",
                                      "two_ground_universe"])
def test_normal_form_equals_rewriting_on_universes(universe, request):
    assert_matches_rewriting(request.getfixturevalue(universe))


def test_normal_form_equals_rewriting_on_seeded_paths():
    rng = random.Random(4)
    lengths = [n for n in range(2, 33) for _ in range(10)] + list(range(40, 129, 8))
    paths = [seeded_path(rng, n, possible=rng.random() < 0.8) for n in lengths]
    assert 0 < sum(map(is_possible, paths)) < len(paths)
    assert is_possible(paths[-1]) and len(paths[-1]) == 128
    assert_matches_rewriting(paths)


def with_repeats(rng, p):
    """p with each step followed by 0..3 copies of it, most under new labels,
    one in five copies taking another detector of the same measurement."""
    steps, results = [], []
    for j, (m, r) in enumerate(zip(p.steps, p.results)):
        steps.append(m)
        results.append(r)
        for k in range(rng.choice([0, 0, 1, 2, 3])):
            label = m.id if rng.random() < 0.3 else f"{m.id}#{j}.{k}"
            steps.append(Measurement(label, m.ground, m.blocks))
            results.append(rng.choice(sorted(m.blocks, key=sorted))
                           if rng.random() < 0.2 else r)
    return Path(sequence(steps), tuple(results))


def assert_dedup_matches_rewriting(paths):
    for p in paths:
        got, want = _dedup_fixpoint(p), dedup_by_rewriting(p)
        assert got == want, repr(p)
        assert [m.id for m in got.steps] == [m.id for m in want.steps], repr(p)


def test_dedup_equals_rewriting(mixed_universe_paths):
    assert_dedup_matches_rewriting(mixed_universe_paths)
    rng = random.Random(9)
    paths = [with_repeats(rng, seeded_path(rng, n, possible=rng.random() < 0.7))
             for n in [n for n in range(2, 25) for _ in range(20)] + list(range(40, 129, 8))]
    # all-equal paths, where the rewriting stops at two steps
    relabelled = [Measurement(f"a{k}", AM.ground, AM.blocks) for k in range(5)]
    paths += [Path(sequence(relabelled[:n]), (frozenset({"m"}),) * n) for n in range(2, 6)]
    assert sum(len(dedup_by_rewriting(p)) < len(p) for p in paths) > len(paths) // 2
    assert_dedup_matches_rewriting(paths)


def test_normal_form_is_linear_on_long_paths():
    # the rewriting loop needs hours here
    p = seeded_path(random.Random(8), 4096)
    started = time.perf_counter()
    nf = normal_form(p)
    flags = classify(p)
    assert time.perf_counter() - started < 2.0
    assert flags.possible and len(nf) == len(runs(p))


def test_reduction_orders_confluent(small_universe):
    for p in small_universe:
        if not is_possible(p):
            continue
        terminals = all_reduction_terminals(p)
        assert len(terminals) == 1, f"non-confluent reductions from {p!r}"
        assert terminals[0] == normal_form(p)


def test_normal_form_is_class_minimum(small_universe):
    for p in small_universe:
        if not is_possible(p):
            continue
        nf = normal_form(p)
        minima, members = minimal_members(p)
        signatures = {result_signature(q) for q in minima}
        assert len(signatures) == 1, f"non-unique minimum for {p!r}"
        assert result_signature(nf) in signatures
        assert size_of(nf) == size_of(minima[0])
        # every class member is possible and reduces to the same signature
        for q in members:
            assert is_possible(q)
            assert result_signature(normal_form(q)) == result_signature(nf)


def _closure_coarsen_pairs(paths):
    for a in paths:
        for j in range(1, len(a) - 1):
            for blk in a.steps[j].blocks:
                if blk == a.results[j]:
                    continue
                b = Path(a.sequence,
                         a.results[:j] + (blk,) + a.results[j + 1:])
                yield a, b


def _closure_refine_pairs(paths):
    import itertools
    for c in paths:
        for j in range(1, len(c) - 1):
            result = c.results[j]
            if len(result) < 2:
                continue
            elements = sorted(result)
            for size in range(1, len(elements)):
                for combo in itertools.combinations(elements, size):
                    part = frozenset(combo)
                    m = c.steps[j]
                    blocks = (m.blocks - {result}) | {part, result - part}
                    fine = Measurement(m.id, m.ground, blocks)
                    b = Path(sequence(c.steps[:j] + (fine,) + c.steps[j + 1:]),
                             c.results[:j] + (part,) + c.results[j + 1:])
                    yield c, b


def test_impossibility_closure_under_coarsening(small_universe):
    for a, b in _closure_coarsen_pairs(small_universe):
        c = coarsen(a, b)
        if is_possible(a) or is_possible(b):
            assert is_possible(c), f"{a!r} v {b!r}"
        else:
            assert not is_possible(c), f"{a!r} v {b!r}"


def test_impossibility_closure_under_refinement(small_universe):
    for c, b in _closure_refine_pairs(small_universe):
        a = refine(c, b)
        if is_possible(c) and not is_possible(b):
            assert is_possible(a), f"{c!r} ^ {b!r}"
        if not is_possible(c):
            assert not is_possible(a), f"{c!r} ^ {b!r}"
