"""Coordinate independence of path probabilities and sum rules.

Two maps applied to every stored matrix entry must leave every path
probability and every sum rule exactly unchanged, for paths with atomic
ends:

- a gauge E(x, y) -> g_x E(x, y) conj(g_y), with a rational unit g (Q(g) = 1)
  per ground element: along a thread the inner factors conj(g) g = Q(g)
  cancel, and Q is multiplicative;
- an algebra automorphism, here the cyclic map i -> j -> k of H and
  conjugation on the commutative C.

The tests read only public evaluators, so they also guard the conjugation
that builds the reverse of a one-way pair.  Two broken maps must change
some value: a gauge with g_y in place of conj(g_y), and the
anti-automorphism of H that swaps e1 and e2.  Only paths that sum several
threads detect them, hence the coarse interior steps of the universe.
"""

import random
from fractions import Fraction

import pytest

from compalg.algebra import AlgebraKind, make_algebra, mul
from compalg.engine import probability_of, total_probability

from conftest import MIX_GROUNDS, assignment_for, mapped, universe_sequences

# kind -> (a rational unit u with Q(u) = 1, whether the rows are normalized)
UNITS = {
    AlgebraKind.C: ((Fraction(3, 5), Fraction(4, 5)), True),
    AlgebraKind.SPLIT_C: ((Fraction(5, 4), Fraction(3, 4)), False),
    AlgebraKind.H: ((Fraction(1, 2),) * 4, True),
    AlgebraKind.SPLIT_H: ((Fraction(5, 4), 0, Fraction(3, 4), 0), False),
}


def _assignment(kind):
    return assignment_for(MIX_GROUNDS, make_algebra(kind), random.Random(15),
                          normalized=UNITS[kind][1])


@pytest.fixture(scope="module")
def sum_rule_sources():
    return [(s, frozenset({x})) for s in universe_sequences(MIX_GROUNDS, 4)
            for x in sorted(s.steps[0].element_set())]


@pytest.fixture(scope="module")
def values(mixed_universe_paths, sum_rule_sources):
    """values(asg): every path probability of the mixed universe, then every
    sum rule from each source element, as one lazy stream."""
    def stream(asg):
        for p in mixed_universe_paths:
            yield probability_of(p, asg).probability
        for s, source in sum_rule_sources:
            yield total_probability(s, source, asg)
    return stream


@pytest.fixture(scope="module")
def reference(values):
    """The values of each kind's unmapped assignment, computed once."""
    return {kind: list(values(_assignment(kind))) for kind in UNITS}


def _gauge_units(kind):
    """A unit g per (ground, element), drawn from u, u^2 and their conjugates."""
    u = make_algebra(kind).amplitude(UNITS[kind][0])
    choices = [u, mul(u, u), u.conj(), mul(u, u).conj()]
    rng = random.Random(0)
    return {(g.element_set(), x): rng.choice(choices)
            for g in MIX_GROUNDS for x in g.elements}


def _gauged(kind, broken=False):
    g = _gauge_units(kind)

    def entry_map(a, x, e, b, y):
        right = g[b, y] if broken else g[b, y].conj()
        return mul(mul(g[a, x], e), right)

    return mapped(_assignment(kind), entry_map)


def _coefficient_map(kind, permute):
    """The assignment of kind with permute applied to each entry's coefficients."""
    alg = make_algebra(kind)
    return mapped(_assignment(kind),
                   lambda a, x, e, b, y: alg.amplitude(permute(e.coeffs)))


@pytest.mark.parametrize("kind", list(UNITS), ids=lambda k: k.label)
def test_gauge_leaves_every_probability_unchanged(kind, values, reference):
    assert list(values(_gauged(kind))) == reference[kind]


@pytest.mark.parametrize("kind, permute", [
    (AlgebraKind.H, lambda c: (c[0], c[3], c[1], c[2])),  # e1 -> e2 -> e3 -> e1
    (AlgebraKind.C, lambda c: (c[0], -c[1])),  # conjugation
], ids=["H-cyclic", "C-conjugation"])
def test_automorphism_leaves_every_probability_unchanged(kind, permute, values, reference):
    assert list(values(_coefficient_map(kind, permute))) == reference[kind]


@pytest.mark.parametrize("kind", list(UNITS), ids=lambda k: k.label)
def test_broken_gauge_changes_some_probability(kind, values, reference):
    assert any(v != r for v, r in zip(values(_gauged(kind, broken=True)), reference[kind]))


def test_anti_automorphism_changes_some_probability(values, reference):
    swapped = _coefficient_map(AlgebraKind.H, lambda c: (c[0], c[2], c[1], c[3]))
    assert any(v != r for v, r in zip(values(swapped), reference[AlgebraKind.H]))
