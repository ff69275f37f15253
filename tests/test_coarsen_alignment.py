"""coarsen's direct alignment against the exhaustive padded-variant search.

Winning paddings are named relative to the differing step p of the padded
pair: "()" (none), "(p-1,)", "(p,)" and "(p-1,p-1)".
"""

import collections
import random

import pytest

from compalg import model
from compalg.errors import CoarsenMismatch
from compalg.model import GroundSet, atomic_measurement, path

from conftest import MIX_GROUNDS, universe_paths
from oracle import coarsen_by_search

SAMPLE_SEED = 4
SAMPLE_PAIRS = 3000
REJECTED_CHECKED = 300
SHAPES = {"()", "(p-1,)", "(p,)", "(p-1,p-1)"}


def _ends(p):
    return (p.steps[0].blocks, p.results[0], p.steps[-1].blocks, p.results[-1])


def _same_endpoint_groups(paths):
    groups = collections.defaultdict(list)
    for p in paths:
        groups[_ends(p)].append(p)
    return groups


def _exact(fn, a, b):
    """The result with its step labels and grounds, or None on CoarsenMismatch."""
    try:
        c = fn(a, b)
    except CoarsenMismatch:
        return None
    return c, tuple((m.id, m.ground) for m in c.steps)


def _shape(positions, j):
    return {(): "()", (j - 1,): "(p-1,)", (j,): "(p,)", (j - 1, j - 1): "(p-1,p-1)"}[positions]


@pytest.fixture(scope="module")
def comparison():
    """Every same-endpoint pair of length <= 3 and a seeded length-4 sample.

    Returns the pairs on which coarsen and the search differ, the winning
    paddings seen, and how many pairs were checked in each family.
    """
    padded = []
    pad = model._padded

    def recording_pad(p, positions):
        out = pad(p, positions)
        padded.append((p, positions, out))
        return out

    differences, seen, checked = [], collections.Counter(), collections.Counter()

    def run_coarsen(a, b):
        del padded[:]
        new = _exact(model.coarsen, a, b)
        if new is not None and padded:
            (_, pos_a, pa), (_, pos_b, pb) = padded[-2:]
            j = next(k for k in range(len(pa)) if pa.results[k] != pb.results[k])
            seen["a", _shape(pos_a, j)] += 1
            seen["b", _shape(pos_b, j)] += 1
        return new

    def check(family, a, b, new):
        checked[family, new is not None] += 1
        if new != _exact(coarsen_by_search, a, b):
            differences.append((a, b))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_padded", recording_pad)
        for group in _same_endpoint_groups(universe_paths(MIX_GROUNDS, 3)).values():
            for a in group:
                for b in group:
                    check("short", a, b, run_coarsen(a, b))
        four = [p for p in universe_paths(MIX_GROUNDS, 4) if len(p) == 4]
        groups = _same_endpoint_groups(four)
        rng = random.Random(SAMPLE_SEED)
        for _ in range(SAMPLE_PAIRS):
            a = rng.choice(four)
            b = rng.choice(groups[_ends(a)])
            new = run_coarsen(a, b)
            if new is not None or checked["four", False] < REJECTED_CHECKED:
                check("four", a, b, new)
    return differences, seen, checked


def test_direct_alignment_equals_search(comparison):
    differences, _, checked = comparison
    assert checked["short", True] + checked["short", False] == 8100
    assert checked["four", False] == REJECTED_CHECKED
    assert differences == []


def test_every_winning_padding_occurs(comparison):
    _, seen, _ = comparison
    for side in ("a", "b"):
        assert {shape for s, shape in seen if s == side} == SHAPES


# -- work bound ----------------------------------------------------------------

N = GroundSet("N", ("n1", "n2"))
M = GroundSet("M", ("m1", "m2"))
AN, AM = atomic_measurement(N, "aN"), atomic_measurement(M, "aM")


def _alternating(length, flips=()):
    """Atomic steps alternating between two grounds, result 1 except at flips."""
    steps = [AN if j % 2 == 0 else AM for j in range(length)]
    results = [[f"{'n' if j % 2 == 0 else 'm'}{2 if j in flips else 1}"]
               for j in range(length)]
    return path(steps, results)


@pytest.mark.parametrize("length", [8, 16, 32])
def test_non_aligning_pairs_stay_within_call_budget(monkeypatch, length):
    budget = 16 * length
    calls = 0
    direct = model._coarsen_direct

    def counting(a, b):
        nonlocal calls
        calls += 1
        assert calls <= budget, f"more than {budget} alignment attempts"
        return direct(a, b)

    monkeypatch.setattr(model, "_coarsen_direct", counting)
    a = _alternating(length)
    for b in (a, _alternating(length, flips=(1, length - 2))):
        calls = 0
        with pytest.raises(CoarsenMismatch):
            model.coarsen(a, b)
