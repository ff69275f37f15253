"""One evaluation representation: each ground pair lowered once to
coefficient tuples over one common denominator, products by the algebra's
product plan.  In exact mode the coefficients are integers and every result
equals, as a Fraction, the Fraction evaluation it replaces; in float mode
they are floats over denominator 1, summed in the product plan's order."""

import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy
import pytest

from compalg.algebra import AlgebraKind, make_algebra, mul, product_plan
from compalg.cli import main
from compalg.engine import (
    Assignment,
    amplitude_of,
    path_probabilities,
    total_probability,
)
from compalg.errors import SequenceMismatch
from compalg.model import GroundSet, atomic_measurement, path, runs, sorted_blocks

from conftest import (
    MIX_GROUNDS,
    amplitude_by_enumeration,
    assignment_for,
    converted,
    entry,
    random_exact_rows,
    universe_sequences,
)
from oracle import (
    mul_by_table,
    probabilities_by_enumeration,
    sum_of_products,
    total_by_enumeration,
)

ASSOCIATIVE = [AlgebraKind.R, AlgebraKind.C, AlgebraKind.SPLIT_C,
               AlgebraKind.H, AlgebraKind.SPLIT_H]
KIND_IDS = lambda k: k.label  # noqa: E731
C = make_algebra(AlgebraKind.C)


def random_coefficient(rng: random.Random):
    """An int or a Fraction, zero now and then."""
    value = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return int(value) if rng.random() < 0.3 and value.denominator == 1 else value


# -- the product kernel -----------------------------------------------------------------

def bits(coeffs) -> list:
    """Each coefficient's type and value, a float's by ``float.hex`` (so
    the sign of a zero and every rounding count)."""
    return [(type(c), c.hex() if isinstance(c, float) else c) for c in coeffs]


def signed_zero_or_float(rng: random.Random) -> float:
    return rng.choice([0.0, -0.0, rng.uniform(-2, 2)])


def int_fraction_or_float(rng: random.Random):
    """An int, a Fraction or a float, each zero now and then."""
    return rng.choice([random_coefficient, lambda r: float(random_coefficient(r)),
                       lambda r: r.choice([0, 0.0, -0.0, Fraction(0)])])(rng)


def near_overflow(rng: random.Random) -> float:
    """Products near the largest float; their sums overflow to infinities and NaNs."""
    return rng.choice([-1, 1]) * rng.uniform(1e153, 1.3e154)


def product_in_mode(kernel, a: tuple, b: tuple) -> tuple:
    """One pair's product as ``mul`` forms it: the kernel on float-converted
    operands when either holds a float, else on the rationals, each whole
    coefficient an int."""
    if any(isinstance(c, float) for c in a + b):
        return kernel([tuple(map(float, a))], [tuple(map(float, b))])
    return tuple(c.numerator if c.denominator == 1 else c
                 for c in map(Fraction, kernel([a], [b])))


def agree(got, want, how: str) -> bool:
    """got and want agree in type and bits, in value, or within 1e-12."""
    if how == "bits":
        return bits(got) == bits(want)
    if how == "value":
        return got == want
    return all(math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12) for g, w in zip(got, want))


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=KIND_IDS)
def test_plan_product_is_mul(kind):
    """The generated kernel equals the interpreted plan loop of the oracle
    in type and bits.  The kernel and ``mul``, which runs on it, equal the
    table product ``mul_by_table`` summed from zero: in type and bits where
    the table skips no zero term, in value on rationals and on floats, and
    close on mixed coefficients, where a skipped float zero keeps the
    table's sum exact.  ``mul`` summed equals the kernel in bits on floats
    and in value on rationals, which it rebuilds as ints where whole.  On
    mixed coefficients ``mul`` runs each pair holding a float in float
    mode, so it equals in type and bits the kernel on those pairs'
    float-converted operands (``product_in_mode``)."""
    algebra = make_algebra(kind)
    plan, kernel = product_plan(algebra), algebra.kernel
    assert kernel is algebra.kernel is make_algebra(kind).kernel
    zero = (0,) * algebra.dim
    assert bits(kernel([], [])) == bits(sum_of_products(plan, [], [])) == bits(zero)
    amp = algebra.amplitude
    basis = [algebra.basis_element(r).coeffs for r in range(algebra.dim)]
    for a, b in itertools.product(basis, repeat=2):
        got = kernel([a], [b])
        assert bits(got) == bits(sum_of_products(plan, [a], [b]))
        assert bits(got) == bits(mul(amp(a), amp(b)).coeffs) \
            == bits(mul_by_table(amp(a), amp(b)).coeffs)
    rng = random.Random(f"plan:{kind.label}")
    draws = [(random_coefficient, "value", "value"), (lambda r: r.uniform(-2, 2), "bits", "bits"),
             (signed_zero_or_float, "value", "bits"), (int_fraction_or_float, "close", "mode"),
             (near_overflow, "bits", "bits")]
    for draw, like_table, like_kernel in draws:
        for _ in range(40):
            count = rng.randint(1, 4)
            lefts, rights = ([tuple(draw(rng) for _ in range(algebra.dim)) for _ in range(count)]
                             for _ in range(2))
            got = kernel(lefts, rights)
            assert bits(got) == bits(sum_of_products(plan, lefts, rights))
            pairs = list(zip(map(amp, lefts), map(amp, rights)))
            by_mul = sum(itertools.starmap(mul, pairs), amp(zero)).coeffs
            by_table = sum(itertools.starmap(mul_by_table, pairs), amp(zero)).coeffs
            if like_kernel == "mode":
                in_mode = sum((amp(product_in_mode(kernel, *pair)) for pair in zip(lefts, rights)),
                              amp(zero)).coeffs
                assert bits(by_mul) == bits(in_mode)
            else:
                assert agree(by_mul, got, like_kernel)
            assert agree(got, by_table, like_table) and agree(by_mul, by_table, like_table)


@pytest.mark.parametrize("kind", ASSOCIATIVE, ids=KIND_IDS)
def test_pickle_round_trip_after_an_evaluation(kind):
    """The kernel kept on the algebra is left out of its pickled state and
    rebuilt on first use; amplitudes and assignments, lowered rows
    included, round-trip with it.  So do the real blocks of a float sum
    rule over run boundaries, which hold the kernel they were built by:
    the copy leaves them out and builds them again."""
    algebra = make_algebra(kind)
    rng = random.Random(f"pickle:{kind.label}")
    sequences = universe_sequences(MIX_GROUNDS, 4)
    for s, asg in itertools.product(
            (sequences[-1], next(s for s in sequences if len(runs(s)) > 2)),
            (assignment_for(MIX_GROUNDS, algebra, rng),
             converted(both_ways_assignment(algebra, rng), float))):
        source = sorted_blocks(s.steps[0].blocks)[0]
        walked = path_probabilities(s, source, asg)
        total = total_probability(s, source, asg)
        amplitude = amplitude_of(walked[-1][0], asg)
        assert "kernel" in vars(algebra)
        copies = pickle.loads(pickle.dumps((algebra, amplitude, asg)))
        assert copies == (algebra, amplitude, asg)
        copied_algebra, _, copied_asg = copies
        assert copied_asg.algebra is copied_algebra and "kernel" not in vars(copied_algebra)
        assert path_probabilities(s, source, copied_asg) == walked
        assert total_probability(s, source, copied_asg) == total
        assert "kernel" in vars(copied_algebra)


# -- the lowering ----------------------------------------------------------------------

def both_ways_assignment(algebra, rng) -> Assignment:
    """A matrix stored for every ordered pair of MIX_GROUNDS, the reverse
    unrelated to the forward one."""
    return Assignment(algebra, [
        (a, b, random_exact_rows(algebra, len(a.elements), len(b.elements), rng))
        for a, b in itertools.permutations(MIX_GROUNDS, 2)])


@pytest.mark.parametrize("kind", ASSOCIATIVE, ids=KIND_IDS)
@pytest.mark.parametrize("stored", ["one way", "both ways", "float", "mixed", "numpy"])
def test_lowered_rows_are_the_matrix_over_one_denominator(kind, stored):
    """Exact: ints over the lcm of the entry denominators.  Float, mixed
    (ints, Fractions and floats) and numpy integers, all one way: floats
    over 1, since exact mode takes ints and Fractions only."""
    algebra = make_algebra(kind)
    rng = random.Random(f"lower:{kind.label}")
    asg = both_ways_assignment(algebra, rng) if stored == "both ways" \
        else assignment_for(MIX_GROUNDS, algebra, rng, normalized=False)
    if stored == "float":
        asg = converted(asg, float)
    elif stored == "mixed":
        asg = converted(asg, lambda c: float(c) if rng.random() < 0.5 else c)
    elif stored == "numpy":
        asg = converted(asg, lambda c: numpy.int64(c.numerator))
    exact = stored in ("one way", "both ways")
    assert asg.is_exact is exact
    for a, b in itertools.permutations(MIX_GROUNDS, 2):
        rows, den = asg.lowered(a, b)
        matrix = {x: {y: entry(asg, a, b, x, y) for y in b.elements} for x in a.elements}
        if exact:
            assert den == math.lcm(*(c.denominator for row in matrix.values()
                                     for amp in row.values() for c in amp.coeffs))
        else:
            assert den == 1
        assert rows.keys() == matrix.keys()
        for x, row in matrix.items():
            assert rows[x].keys() == row.keys()
            for y, amp in row.items():
                if exact:
                    assert all(type(c) is int for c in rows[x][y])
                    assert tuple(Fraction(c, den) for c in rows[x][y]) == amp.coeffs
                else:
                    assert all(type(c) is float for c in rows[x][y])
                    assert rows[x][y] == tuple(map(float, amp.coeffs))
        assert asg.lowered(a, b) is asg.lowered(a, b)


def int_assignment(algebra, rng) -> Assignment:
    return Assignment(algebra, [
        (a, b, [[[rng.randint(-3, 3) for _ in range(algebra.dim)] for _ in b.elements]
                for _ in a.elements])
        for a, b in itertools.combinations(MIX_GROUNDS, 2)])


def exact_assignments(kind):
    """Fraction one way, Fraction both ways, and int one way."""
    algebra = make_algebra(kind)
    rng = random.Random(f"walk:{kind.label}")
    return [assignment_for(MIX_GROUNDS, algebra, rng, normalized=False),
            both_ways_assignment(algebra, rng),
            int_assignment(algebra, rng)]


@pytest.mark.parametrize("kind", ASSOCIATIVE, ids=KIND_IDS)
def test_amplitudes_equal_enumeration_exactly(kind, mixed_universe_paths):
    """Every fifth path of the mixed universe: both directions of each
    pair, runs of several steps, impossible paths."""
    for asg in exact_assignments(kind):
        ints = all(type(c) is int for a, b in asg.pairs()
                   for amp in asg.stored(a, b).values() for c in amp.coeffs)
        for p in mixed_universe_paths[::5]:
            got = amplitude_of(p, asg)
            want = amplitude_by_enumeration(p, asg)
            assert got == want, p
            assert all(type(c) is int if ints else isinstance(c, (int, Fraction))
                       for c in got.coeffs)


@pytest.mark.parametrize("kind", ASSOCIATIVE, ids=KIND_IDS)
def test_walk_and_sum_rule_equal_enumeration_exactly(kind):
    seqs = universe_sequences(MIX_GROUNDS, 4)[::9]
    for asg in exact_assignments(kind):
        for s in seqs:
            for source in s.steps[0].blocks:
                walked = path_probabilities(s, source, asg)
                assert walked == probabilities_by_enumeration(s, source, asg)
                total = total_probability(s, source, asg)
                assert total == total_by_enumeration(s, source, asg)
                assert isinstance(total, (int, Fraction))


# -- missing pairs ----------------------------------------------------------------------

X = GroundSet("X", ("x1", "x2"))
Y = GroundSet("Y", ("y",))
Z = GroundSet("Z", ("z1", "z2", "z3"))
MISSING = "assignment has no matrix between grounds ['y'] and ['z1', 'z2', 'z3']"


@pytest.mark.parametrize("coefficient", [Fraction(1, 2), 3, 0.5], ids=["Fraction", "int", "float"])
def test_missing_pair_raises_in_every_mode(coefficient):
    ax, ay, az = (atomic_measurement(g) for g in (X, Y, Z))
    rows = [[C.amplitude([coefficient, 0])] for _ in X.elements]
    asg = Assignment(C, [(X, Y, rows)])
    # run 1 over X dies out ({x1} then {x2}); the Y -> Z matrix is still missing
    dead = path([ay, ax, ax, ay, az], [["y"], ["x1"], ["x2"], ["y"], ["z1"]])
    live = path([ax, ay, az], [["x1"], ["y"], ["z2"]])
    for p in (dead, live):
        with pytest.raises(SequenceMismatch) as err:
            amplitude_of(p, asg)
        assert str(err.value) == MISSING
        with pytest.raises(SequenceMismatch) as err:
            path_probabilities(p.sequence, p.results[0], asg)
        assert str(err.value) == MISSING
        with pytest.raises(SequenceMismatch) as err:
            total_probability(p.sequence, p.results[0], asg)
        assert str(err.value) == MISSING


# -- printed output ---------------------------------------------------------------------

MIX_DSL = """\
elements A = {a1, a2}
measurement aA over A = {{a1}, {a2}}
elements B = {b1, b2, b3}
measurement aB over B = {{b1}, {b2}, {b3}}
measurement cB over B = {{b1, b2}, {b3}}
sequence zig = [aA, aB, cB, aA, aB]
path walk over zig = [{a1}, {b2}, {b1, b2}, {a2}, {b3}]
assignment mix over zig algebra H from "mix.json"
"""

MIXED = """\
{"steps": [{"from": "aA", "to": "aB", "matrix": [
  [["1/3", 0, 0.25, -1], [0.1, "-2/7", 1, 0], [0, 0.3, "1/5", 2]],
  [[-0.45, 1, "3/4", 0], ["1/2", 0.6, 0, -0.2], [1, 0, "-1/9", 0.7]]]}]}
"""

RATIONAL = """\
{"steps": [{"from": "aA", "to": "aB", "matrix": [
  [["1/3", 0, "1/4", -1], ["1/10", "-2/7", 1, 0], [0, "3/10", "1/5", 2]],
  [["-9/20", 1, "3/4", 0], ["1/2", "3/5", 0, "-1/5"], [1, 0, "-1/9", "7/10"]]]}]}
"""

MATRICES = {"mixed": MIXED, "rational": RATIONAL}
# written by the Fraction and Amplitude evaluation that the lowering replaced; the
# rational prob-text amplitude prints each coefficient with str, as "probability:" does
OUTPUTS = {
    ("mixed", "prob"): '{"amplitude":[-0.4935238095238095,0.45603174603174607,'
                     '0.5726349206349206,0.5353174603174603],"probability":1.0660062396069538}\n',
    ("mixed", "prob-text"): "amplitude: [-0.4935238095238095, 0.45603174603174607, "
                          "0.5726349206349206, 0.5353174603174603]\n"
                          "probability: 1.0660062396069538\n",
    ("mixed", "sum-rule"): '{"total_probability":160.7125590661647}\n',
    ("rational", "prob"): '{"amplitude":["-2591/5250","2873/6300","9019/15750","1349/2520"],'
                        '"probability":"282065251/264600000"}\n',
    ("rational", "prob-text"): "amplitude: [-2591/5250, 2873/6300, 9019/15750, 1349/2520]\n"
                             "probability: 282065251/264600000\n",
    ("rational", "sum-rule"):
        '{"total_probability":"7939407045362876981/49401285696000000"}\n',
}
ARGV = {
    "prob": ["prob", "walk", "--assignment", "mix"],
    "prob-text": ["prob", "walk", "--assignment", "mix", "--format", "text"],
    "sum-rule": ["sum-rule", "zig", "--assignment", "mix", "--source", "{a1}"],
}


@pytest.mark.parametrize("matrices,command", sorted(OUTPUTS))
def test_cli_output_bytes(tmp_path, capsys, matrices, command):
    """Mixed int, Fraction and float coefficients are float mode, printed
    byte for byte as before; rational ones are exact."""
    (tmp_path / "mix.dsl").write_text(MIX_DSL)
    (tmp_path / "mix.json").write_text(MATRICES[matrices])
    assert main(["-w", str(tmp_path / "mix.dsl"), *ARGV[command]]) == 0
    assert capsys.readouterr().out == OUTPUTS[matrices, command]


# real quaternions, column b1 zero: the walk has zero imaginary parts, and
# every path from b1 back to A has probability zero
REAL = """\
{"steps": [{"from": "aA", "to": "aB", "matrix": [
  [[0.0, 0, 0, 0], [0.5, 0, 0, 0], [-1.5, 0, 0, 0]],
  [[0.0, 0, 0, 0], [0.25, 0, 0, 0], [2.0, 0, 0, 0]]]}]}
"""


def test_float_mode_zero_is_a_float(tmp_path, capsys):
    """An exactly-zero coefficient, probability or total of a float-mode
    result is 0.0."""
    (tmp_path / "mix.dsl").write_text(
        MIX_DSL + "sequence back = [aB, aA]\npath dead over back = [{b1}, {a1}]\n")
    (tmp_path / "mix.json").write_text(REAL)
    workspace = ["-w", str(tmp_path / "mix.dsl")]
    assert main([*workspace, *ARGV["prob"]]) == 0
    assert main([*workspace, "prob", "dead", "--assignment", "mix"]) == 0
    assert main([*workspace, "sum-rule", "back", "--assignment", "mix", "--source", "{b1}"]) == 0
    assert capsys.readouterr().out == '{"amplitude":[0.25,0.0,0.0,0.0],"probability":0.0625}\n' \
                                      '{"amplitude":[0.0,0.0,0.0,0.0],"probability":0.0}\n' \
                                      '{"total_probability":0.0}\n'


def test_float_mode_coefficient_beyond_the_float_range(tmp_path, capsys):
    """An int too large for a float, in a float-mode matrix, is lowered as
    an infinity: a walk that avoids it is unchanged, and a sum rule through
    it names that entry (exit 3), not a traceback; so do a sample from the
    same source and a walk through the entry."""
    (tmp_path / "mix.dsl").write_text(
        MIX_DSL + "path through over zig = [{a1}, {b1}, {b1, b2}, {a2}, {b3}]\n")
    (tmp_path / "mix.json").write_text(REAL.replace("[0.0, 0, 0, 0]", f"[{10 ** 400}, 0, 0, 0]", 1))
    workspace = ["-w", str(tmp_path / "mix.dsl")]
    assert main([*workspace, *ARGV["prob"]]) == 0
    assert capsys.readouterr().out == '{"amplitude":[0.25,0.0,0.0,0.0],"probability":0.0625}\n'
    for argv in (ARGV["sum-rule"], ["sample", "zig", "--assignment", "mix", "--source", "{a1}",
                                    "-n", "10", "--seed", "1"],
                 ["prob", "through", "--assignment", "mix"]):
        assert main([*workspace, *argv]) == 3
        assert capsys.readouterr().err == "validation error: entry a1 -> b1 is not finite\n"
