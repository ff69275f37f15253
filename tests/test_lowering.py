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

from compalg.algebra import Algebra, AlgebraKind, make_algebra, mul, product_plan
from compalg.cli import main
from compalg.dsl import parse
from compalg import engine
from compalg.engine import (
    Assignment,
    _thread_sums,
    amplitude_of,
    probability_of,
    total_probability,
)
from compalg.errors import SequenceMismatch
from compalg.model import (
    GroundSet, Path, atomic_measurement, enumerate_partitions, enumerate_paths,
    fully_coarse_measurement, path, runs, sequence, sorted_blocks,
)

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
    path_probabilities,
    probabilities_by_enumeration,
    rows_of,
    sum_of_products,
    thread_sums_by_dicts,
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


def any_float(rng: random.Random) -> float:
    """A float of every class now and then: a signed zero, a subnormal, an
    infinity, NaN, or a value whose products overflow."""
    return rng.choice([0.0, -0.0, rng.choice([-1, 1]) * rng.randint(1, 9) * 5e-324,
                       math.inf, -math.inf, math.nan, near_overflow(rng), rng.uniform(-2, 2)])


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=KIND_IDS)
def test_array_product_is_the_kernel(kind):
    """``kernel.columns`` equals the kernel element by element, in the
    broadcast shapes of the sampling table: a parent row over (coefficient,
    1, parent class, row, 1, parent slot) against a gathered block over
    (m, k, class, parent class, 1, slot, parent slot), one to three slot
    pairs summed in one call over the trailing axis.  Float64 operands,
    ordinary ones (where a term order other than the kernel's rounds
    differently) and ones of every class, equal it by ``float.hex`` (NaN by
    position), object-dtype ints and Fractions in type and value.  A right
    operand gathered once gives the same sums with a second left operand.
    A table with a row that is not a signed permutation has no array
    product: its gather raises."""
    algebra = make_algebra(kind)
    d, kernel = algebra.dim, algebra.kernel
    rng = random.Random(f"columns:{kind.label}")

    def operand(draw, dtype, *shape):
        return numpy.array([draw(rng) for _ in range(math.prod(shape))], dtype).reshape(shape)
    for draw, dtype in ((lambda r: r.uniform(-2, 2), float), (any_float, float),
                        (random_coefficient, object)):
        for _ in range(12):
            pairs, classes, slots, parents, rows = (rng.randint(1, 3) for _ in range(5))
            block = operand(draw, dtype, d, classes, parents, 1, slots, pairs)
            rights = kernel.columns.gather(block)
            assert rights.shape == (d, d, classes, parents, 1, slots, pairs)
            for _ in range(2):
                lefts = operand(draw, dtype, d, 1, parents, rows, 1, pairs)
                with numpy.errstate(over="ignore", invalid="ignore"):  # as in the table
                    got = kernel.columns(lefts, rights)
                assert got.shape == (d, classes, parents, rows, slots) and got.dtype == dtype
                for c, x, r, t in itertools.product(range(classes), range(parents), range(rows),
                                                    range(slots)):
                    want = kernel([tuple(lefts[:, 0, x, r, 0, u].tolist()) for u in range(pairs)],
                                  [tuple(block[:, c, x, 0, t, u].tolist())
                                   for u in range(pairs)])
                    assert bits(got[:, c, x, r, t].tolist()) == bits(want)
    rows = [list(row) for row in algebra.table]
    rows[0][0] = (d - 1, 1)
    if d > 1:
        broken = Algebra(kind=kind, dim=d, table=tuple(map(tuple, rows)),
                         conj_signs=algebra.conj_signs)
        with pytest.raises(ValueError, match="not a signed permutation"):
            broken.kernel.columns.gather(lefts)


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
        rows, den = rows_of(asg, a, b)
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


WALK_GROUNDS = [*MIX_GROUNDS, GroundSet("U4", ("p", "q", "r", "s"))]


def random_path(rng: random.Random) -> Path:
    """Atomic ends, random partitions between, a random block at each step;
    the ground often repeats, so runs span several steps, keep one or
    several elements alive, or none (an impossible path)."""
    length, ground, steps = rng.randint(2, 7), rng.choice(WALK_GROUNDS), []
    for j in range(length):
        if j and rng.random() < 0.5:
            ground = rng.choice(WALK_GROUNDS)
        steps.append(atomic_measurement(ground) if j in (0, length - 1)
                     else rng.choice(enumerate_partitions(ground)))
    return Path(sequence(steps), tuple(rng.choice(sorted_blocks(m.blocks)) for m in steps))


def overflowing_or_signed_zero(rng: random.Random) -> float:
    """Mostly a value whose products overflow, else a signed zero or an
    ordinary float."""
    if rng.random() < 0.6:
        return near_overflow(rng)
    return rng.choice([0.0, -0.0, rng.uniform(-2, 2)])


@pytest.mark.parametrize("kind", ASSOCIATIVE, ids=KIND_IDS)
def test_walk_is_the_dict_walk(kind):
    """The walk of one path (``_thread_sums``) equals ``thread_sums_by_dicts``,
    which keeps a dict of partial sums per run, in type and bits, sums and
    denominator, on random paths: exact entries, ordinary floats (where
    another order of the pairs rounds differently), and floats among which
    signed zeros and entries whose products overflow, so that some sums are
    infinities and NaNs."""
    algebra = make_algebra(kind)
    rng = random.Random(f"dict walk:{kind.label}")
    seen = dict.fromkeys(["impossible", "one alive", "several alive", "several steps", "inf",
                          "nan"], 0)
    for draw in (random_coefficient, lambda r: r.uniform(-2, 2), overflowing_or_signed_zero):
        asg = Assignment(algebra, [
            (a, b, [[[draw(rng) for _ in range(algebra.dim)] for _ in b.elements]
                    for _ in a.elements])
            for a, b in itertools.combinations(WALK_GROUNDS, 2)])
        for _ in range(100):
            p = random_path(rng)
            (sums, den), (want, want_den) = _thread_sums(p, asg), thread_sums_by_dicts(p, asg)
            assert type(den) is type(want_den) is int and den == want_den, p
            assert (sums is None) == (want is None) and bits(sums or ()) == bits(want or ()), p
            for lo, hi in runs(p)[1:]:
                alive = len(p.results[lo].intersection(*p.results[lo + 1:hi + 1]))
                seen["one alive"] += alive == 1
                seen["several alive"] += alive > 1
                seen["several steps"] += hi > lo
            seen["impossible"] += sums is None
            seen["inf"] += any(map(math.isinf, sums or ()))
            seen["nan"] += any(map(math.isnan, sums or ()))
    assert all(seen.values()), seen


def test_frame_columns_are_built_once_per_kernel(monkeypatch):
    """The walk and the exact sum rule read one kept list of a frame's
    boundary columns: repeated ``probability_of`` over the paths of one
    sequence and an exact ``total_probability`` on it run
    ``_boundary_rows`` once, and once more after the algebra's kernel is
    replaced, as every value built by the kernel is rebuilt."""
    calls = []
    boundary_rows = engine._boundary_rows
    monkeypatch.setattr(engine, "_boundary_rows",
                        lambda *args: calls.append(args) or boundary_rows(*args))
    asg = assignment_for(MIX_GROUNDS, C, random.Random(11))
    g1, g2, g3 = (atomic_measurement(g) for g in MIX_GROUNDS)
    s = sequence([g2, g3, fully_coarse_measurement(MIX_GROUNDS[2]), g1, g2])
    paths, source = enumerate_paths(s), frozenset({"b"})

    def evaluated():
        probabilities = [probability_of(p, asg).probability for p in paths * 2]
        return probabilities, total_probability(s, source, asg)
    first = evaluated()
    assert len(calls) == 1
    kernel = C.kernel

    def replaced(lefts, rights):
        return kernel(lefts, rights)
    replaced.columns = kernel.columns
    monkeypatch.setitem(vars(C), "kernel", replaced)
    assert evaluated() == first and len(calls) == 2


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


def test_float_mode_single_run_results_are_floats(tmp_path, capsys):
    """A single run reads no matrix, yet a float-mode result through it is
    a float like any other: the unit amplitude, probability 1.0 and total
    1.0; only an impossible path's table entry is the exact 0."""
    (tmp_path / "mix.dsl").write_text(
        MIX_DSL + "sequence stay = [aB, cB, aB]\npath kept over stay = [{b1}, {b1, b2}, {b1}]\n")
    (tmp_path / "mix.json").write_text(MIXED)
    ws = parse((tmp_path / "mix.dsl").read_text(), str(tmp_path))
    asg, p = ws.assignments["mix"], ws.paths["kept"]
    assert not asg.is_exact and len(runs(p)) == 1
    result = probability_of(p, asg)
    assert bits(result.amplitude.coeffs) == bits((1.0, 0.0, 0.0, 0.0))
    assert bits([result.probability]) == bits([1.0])
    assert bits([total_probability(p.sequence, p.results[0], asg)]) == bits([1.0])
    table = path_probabilities(p.sequence, p.results[0], asg)
    assert bits([q for _, q in table]) == bits([1.0]) + [(int, 0)] * 5
    workspace = ["-w", str(tmp_path / "mix.dsl")]
    assert main([*workspace, "prob", "kept", "--assignment", "mix"]) == 0
    assert main([*workspace, "sum-rule", "stay", "--assignment", "mix", "--source", "{b1}"]) == 0
    assert capsys.readouterr().out == '{"amplitude":[1.0,0.0,0.0,0.0],"probability":1.0}\n' \
                                      '{"total_probability":1.0}\n'


def test_float_mode_coefficient_beyond_the_float_range(tmp_path, capsys):
    """An int too large for a float, in a float-mode matrix, is not finite
    as a float: the assignment is rejected where it is built, so every
    command on the workspace, a walk that avoids the entry too, is a
    semantic error at the matrix file's span (exit 1), not a traceback."""
    (tmp_path / "mix.dsl").write_text(
        MIX_DSL + "path through over zig = [{a1}, {b1}, {b1, b2}, {a2}, {b3}]\n")
    (tmp_path / "mix.json").write_text(REAL.replace("[0.0, 0, 0, 0]", f"[{10 ** 400}, 0, 0, 0]", 1))
    workspace = ["-w", str(tmp_path / "mix.dsl")]
    for argv in (ARGV["prob"], ARGV["sum-rule"],
                 ["sample", "zig", "--assignment", "mix", "--source", "{a1}", "-n", "10",
                  "--seed", "1"],
                 ["prob", "through", "--assignment", "mix"]):
        assert main([*workspace, *argv]) == 1
        assert capsys.readouterr() == (
            "", "error: 8:40-50: invalid assignment: non-finite coefficient in entry a1 -> b1\n")
