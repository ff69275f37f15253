"""Algebra layer: construction, forms, inverses, and the axiom verifier."""

import json
import math
import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from compalg.algebra import (
    Algebra,
    AlgebraKind,
    bilinear_form,
    gram_determinant,
    inverse,
    is_exact,
    lower,
    make_algebra,
    mul,
    quadratic_form,
    quadratic_form_columns,
    quadratic_form_over,
    scalar_part,
    summed,
    trace_form,
    verify_axioms,
)
from compalg.errors import (
    AlgebraMismatch, CompalgError, NonScalarProduct, NonScalarSum, NotInvertible,
)

from conftest import all_passed, skewed_kernel
from oracle import GAMMAS, cayley_dickson_product, mul_by_table, structure_constant

ALL_KINDS = list(AlgebraKind)
ASSOCIATIVE_KINDS = [k for k in ALL_KINDS if k.is_associative]

R = make_algebra(AlgebraKind.R)
C = make_algebra(AlgebraKind.C)
CS = make_algebra(AlgebraKind.SPLIT_C)
H = make_algebra(AlgebraKind.H)
HS = make_algebra(AlgebraKind.SPLIT_H)
O = make_algebra(AlgebraKind.O)


def rationals():
    return st.fractions(min_value=-9, max_value=9, max_denominator=9)


def amplitudes(kind):
    alg = make_algebra(kind)
    return st.lists(rationals(), min_size=alg.dim, max_size=alg.dim).map(alg.amplitude)


def test_dimensions():
    dims = {k.label: k.dim for k in ALL_KINDS}
    assert dims == {"R": 1, "C": 2, "C'": 2, "H": 4, "H'": 4, "O": 8, "O'": 8}


def test_base_field_table():
    assert R.dim == 1
    assert structure_constant(R, 0, 0, 0) == 1


def test_complex_imaginary_unit_squares_to_minus_one():
    assert mul(C.basis_element(1), C.basis_element(1)) == C.scalar(-1)


def test_split_complex_unit_squares_to_plus_one():
    assert mul(CS.basis_element(1), CS.basis_element(1)) == CS.scalar(1)


def test_quaternion_products():
    e1, e2, e3 = (H.basis_element(i) for i in (1, 2, 3))
    assert mul(e1, e2) == e3
    assert mul(e2, e1) == -e3


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_kernel_is_the_cayley_dickson_product_on_every_basis_pair(kind):
    """The generated kernel against the doubling recursion, which shares no
    code with ``_build_table``, ``_double`` or ``product_plan``."""
    alg = make_algebra(kind)
    basis = [alg.basis_element(i).coeffs for i in range(alg.dim)]
    for a in basis:
        for b in basis:
            assert alg.kernel([a], [b]) == cayley_dickson_product(a, b, GAMMAS[kind.label])


def test_structure_constants_are_signs():
    for kind in ALL_KINDS:
        alg = make_algebra(kind)
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    assert structure_constant(alg, i, j, k) in (-1, 0, 1)


def test_conjugation_signs():
    for kind in ALL_KINDS:
        alg = make_algebra(kind)
        assert alg.conj_signs[0] == 1
        assert all(s == -1 for s in alg.conj_signs[1:])


def test_algebra_mismatch_rejected():
    with pytest.raises(AlgebraMismatch):
        mul(C.unit(), CS.unit())
    with pytest.raises(AlgebraMismatch):
        C.unit() + H.unit()


def test_componentwise_addition():
    assert C.amplitude([1, 2]) + C.amplitude([3, 4]) == C.amplitude([4, 6])
    a = C.amplitude([5, -7])
    assert a + C.zero() == a
    assert (a + (-a)).is_zero()


def test_conjugation_examples():
    assert C.unit().conj() == C.unit()
    assert C.amplitude([1, 2]).conj() == C.amplitude([1, -2])


def test_quadratic_form_examples():
    assert quadratic_form(C.amplitude([3, 4])) == 25
    assert quadratic_form(CS.amplitude([1, 1])) == 0
    assert quadratic_form(HS.amplitude([1, 0, 1, 0])) == 0


def test_quadratic_form_signature():
    # split labeling: the last half of the basis carries the minus signs
    assert quadratic_form(HS.amplitude([1, 2, 0, 0])) == 5
    assert quadratic_form(HS.amplitude([0, 0, 1, 2])) == -5


def test_quadratic_form_numeric_mode():
    q = quadratic_form(C.amplitude([3.0, 4.0]))
    assert isinstance(q, float) and abs(q - 25.0) < 1e-12


def test_non_scalar_product_detected():
    broken = unconjugated(AlgebraKind.C)
    with pytest.raises(NonScalarProduct):
        quadratic_form(broken.amplitude([1, 1]))


def test_bilinear_form_examples():
    assert bilinear_form(C.unit(), C.unit()) == 2
    assert bilinear_form(C.basis_element(0), C.basis_element(1)) == 0
    a = C.amplitude([2, 3])
    assert bilinear_form(a, C.zero()) == 0


def test_trace_form_examples():
    assert trace_form(C.unit()) == 2
    assert trace_form(C.amplitude([0, 1])) == 0
    assert trace_form(C.amplitude([3, 4])) == 6


def test_inverse_examples():
    assert inverse(C.unit()) == C.unit()
    assert inverse(C.amplitude([0, 1])) == C.amplitude([0, -1])
    with pytest.raises(NotInvertible):
        inverse(CS.amplitude([1, 1]))
    with pytest.raises(NotInvertible):
        inverse(C.zero())


def test_inverse_threshold_is_relative():
    """A small invertible amplitude has an inverse in both modes; an
    isotropic one and zero have none, in float mode too."""
    assert inverse(C.amplitude([Fraction(1, 10 ** 7), 0])) == C.amplitude([10 ** 7, 0])
    small = inverse(C.amplitude([1e-7, 0.0]))
    assert small.coeffs[1] == 0 and math.isclose(small.coeffs[0], 1e7, rel_tol=1e-15)
    for a in (CS.amplitude([1.0, 1.0]), CS.amplitude([1e-7, 1e-7]), C.amplitude([0.0, 0.0])):
        with pytest.raises(NotInvertible, match=r"vanishes \(within tolerance\)"):
            inverse(a)


def test_float_mode_beyond_the_float_range():
    """An int beyond the float range beside a float is an infinity, as in
    the engine: every form gives a float result or an algebra error, never
    an OverflowError."""
    a = C.amplitude([10 ** 400, 0.5])
    forms = {"mul": lambda: mul(a, a).coeffs, "quadratic_form": lambda: quadratic_form(a),
             "bilinear_form": lambda: bilinear_form(a, C.unit()),
             "trace_form": lambda: trace_form(a), "inverse": lambda: inverse(a).coeffs}
    got = {}
    for name, form in forms.items():
        try:
            value = form()
        except CompalgError as exc:
            got[name] = type(exc).__name__
            continue
        assert all(type(c) is float for c in (value if isinstance(value, tuple) else (value,)))
        got[name] = repr(value)
    assert got == {"mul": "(inf, inf)", "quadratic_form": "inf", "bilinear_form": "nan",
                   "trace_form": "inf", "inverse": "NotInvertible"}


def test_float_lowering_is_float_with_infinities_past_the_range():
    """Float-mode ``lower`` gives each coefficient as ``float`` does, a
    Python float, and an int or Fraction beyond the float range as the
    infinity of its sign, whichever tuple holds it."""
    def shown(tuples):
        lowered, den = lower(tuples, False)
        assert den == 1
        return [tuple(map(repr, t)) for t in lowered]

    within = [(1, Fraction(1, 3), 0.5, numpy.int64(7)), (-0.0, 2 ** 1023, numpy.float64(-2.5))]
    assert shown(within) == [("1.0", "0.3333333333333333", "0.5", "7.0"),
                             ("-0.0", "8.98846567431158e+307", "-2.5")]
    assert shown(within + [(10 ** 400, 1), (Fraction(-10 ** 400, 3), -0.0)]) \
        == shown(within) + [("inf", "1.0"), ("-inf", "-0.0")]


def test_numpy_integer_is_float_mode():
    """Exact mode takes ints and Fractions only: a numpy integer puts the
    forms in float mode, as a float does."""
    a = C.amplitude([numpy.int64(3), 4])
    assert not is_exact(a.coeffs) and is_exact(C.amplitude([3, Fraction(4)]).coeffs)
    values = (*mul(a, a).coeffs, quadratic_form(a), bilinear_form(a, C.unit()),
              trace_form(a), *inverse(a).coeffs)
    assert values == (-7.0, 24.0, 25.0, 6.0, 6.0, 0.12, -0.16)
    assert all(type(v) is float for v in values)


def test_operators_beyond_the_float_range():
    """+ and scalar multiples follow the forms' rule: an int beyond the float
    range beside a float is an infinity, never an OverflowError.  A scalar
    multiple is a product, so the infinity times a zero term is NaN."""
    big = C.amplitude([10 ** 400, 0])
    results = (big + C.amplitude([0.5, 0]), big.scale(0.5), 0.5 * big)
    assert [repr(r.coeffs) for r in results] == ["(inf, 0.0)", "(inf, nan)", "(inf, nan)"]
    assert all(type(c) is float for r in results for c in r.coeffs)


def test_exact_operators_are_the_rational_results():
    """Exact + and scale give the rationals of raw arithmetic, as an int
    where whole."""
    a = H.amplitude([Fraction(1, 2), Fraction(2, 3), -3, Fraction(-5, 6)])
    b = H.amplitude([Fraction(1, 2), Fraction(1, 3), Fraction(7, 4), Fraction(5, 6)])
    factor = Fraction(2, 3)
    for value, raw in ((a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)]),
                       (a.scale(factor), [factor * x for x in a.coeffs]),
                       (factor * b, [factor * x for x in b.coeffs])):
        assert list(value.coeffs) == raw
        assert [type(c) for c in value.coeffs] == [
            int if c.denominator == 1 else Fraction for c in map(Fraction, raw)]


def test_float_addition_is_summed_bitwise():
    a = H.amplitude([0.1, -0.0, 1e308, 2.5e-300])
    b = H.amplitude([0.2, -0.0, 1e308, -1.0])
    expected = summed((a.coeffs, b.coeffs), H.dim)
    assert [c.hex() for c in (a + b).coeffs] == [c.hex() for c in expected]
    assert (a + b).coeffs[1:3] == (0.0, math.inf) and math.copysign(1, (a + b).coeffs[1]) == 1


def test_gram_determinants():
    assert gram_determinant(R) == 2
    assert gram_determinant(C) == 4
    assert gram_determinant(CS) == -4
    for kind in ALL_KINDS:
        assert gram_determinant(make_algebra(kind)) != 0


@pytest.mark.parametrize("kind", ASSOCIATIVE_KINDS, ids=lambda k: k.label)
def test_axiom_report_associative(kind):
    report = verify_axioms(make_algebra(kind), samples=150, seed=1)
    assert all_passed(report), [c.name for c in report.checks if not c.passed]


@pytest.mark.parametrize("kind", [AlgebraKind.O, AlgebraKind.SPLIT_O],
                         ids=lambda k: k.label)
def test_axiom_report_octonion(kind):
    report = verify_axioms(make_algebra(kind), samples=150, seed=1)
    assoc = report.check("associativity")
    assert not assoc.passed and assoc.witness is not None
    assert "triple" in assoc.witness
    assert report.check("composition").passed
    assert report.check("alternativity").passed
    assert report.check("no_absolute_zero_divisors").passed


def test_axiom_report_json_shape():
    report = verify_axioms(O, samples=20, seed=0)
    doc = report.to_json()
    assert doc["algebra"] == "O" and doc["dim"] == 8
    assert doc["axioms"]["associativity"]["passed"] is False
    assert "witness" in doc["axioms"]["associativity"]
    assert doc["axioms"]["composition"] == {"passed": True}


def test_axiom_report_covers_the_engine_product(monkeypatch):
    """``mul`` and ``quadratic_form`` multiply through ``Algebra.kernel``,
    the product of every amplitude and probability: with a skewed kernel
    ``mul`` returns the skewed product in both modes and the composition
    check fails, while the table product is unchanged."""
    monkeypatch.setitem(vars(C), "kernel", skewed_kernel(C))
    a, b = C.amplitude([Fraction(1, 2), 2]), C.amplitude([3, 4])
    assert mul(a, b) == C.amplitude([Fraction(-13, 2), Fraction(3, 2)])
    assert mul(C.amplitude([0.5, 2.0]), b) == C.amplitude([-6.5, 1.5])
    assert mul_by_table(a, b) == C.amplitude([Fraction(-13, 2), 8])
    composition = verify_axioms(C, samples=20, seed=0).check("composition")
    assert not composition.passed and composition.witness == {"pair": [0, 0]}


def with_product(kind, i, j, product):
    """The table of ``kind`` with e_i * e_j = sign * e_k, for product = (k, sign)."""
    alg = make_algebra(kind)
    rows = [list(row) for row in alg.table]
    rows[i][j] = product
    return Algebra(kind=kind, dim=alg.dim, table=tuple(map(tuple, rows)),
                   conj_signs=alg.conj_signs)


def flipped(kind, i, j):
    """The table of ``kind`` with the sign of e_i * e_j flipped."""
    k, sign = make_algebra(kind).table[i][j]
    return with_product(kind, i, j, (k, -sign))


def unconjugated(kind):
    """The table of ``kind`` with every conjugation sign +1."""
    alg = make_algebra(kind)
    return Algebra(kind=kind, dim=alg.dim, table=alg.table, conj_signs=(1,) * alg.dim)


# verify_axioms(...).to_json() with sorted keys, byte for byte.  Only
# no_absolute_zero_divisors draws from the seeded stream; every other
# witness is a basis tuple.  Keyed by (kind, flipped table entry or None,
# samples, seed).
PINNED_REPORTS = {
    ("R", None, 150, 1):
        '{"algebra": "R", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 1}',
    ("R", None, 7, 3):
        '{"algebra": "R", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 1}',
    ("C", None, 150, 1):
        '{"algebra": "C", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 2}',
    ("C", None, 7, 3):
        '{"algebra": "C", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 2}',
    ("C'", None, 150, 1):
        '{"algebra": "C\'", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 2}',
    ("C'", None, 7, 3):
        '{"algebra": "C\'", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 2}',
    ("H", None, 150, 1):
        '{"algebra": "H", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 4}',
    ("H", None, 7, 3):
        '{"algebra": "H", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 4}',
    ("H'", None, 150, 1):
        '{"algebra": "H\'", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 4}',
    ("H'", None, 7, 3):
        '{"algebra": "H\'", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": true}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 4}',
    ("O", None, 150, 1):
        '{"algebra": "O", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": false, "witness": {"left": ["0", "0", "0", "0", "0", "0", "0", "1"], "right": ["0", "0", "0", "0", "0", "0", "0", "-1"], "triple": [1, 2, 4]}}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 8}',
    ("O", None, 7, 3):
        '{"algebra": "O", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": false, "witness": {"left": ["0", "0", "0", "0", "0", "0", "0", "1"], "right": ["0", "0", "0", "0", "0", "0", "0", "-1"], "triple": [1, 2, 4]}}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 8}',
    ("O'", None, 150, 1):
        '{"algebra": "O\'", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": false, "witness": {"left": ["0", "0", "0", "0", "0", "0", "0", "1"], "right": ["0", "0", "0", "0", "0", "0", "0", "-1"], "triple": [1, 2, 4]}}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 8}',
    ("O'", None, 7, 3):
        '{"algebra": "O\'", "axioms": {"alternativity": {"passed": true}, "associativity": {"passed": false, "witness": {"left": ["0", "0", "0", "0", "0", "0", "0", "1"], "right": ["0", "0", "0", "0", "0", "0", "0", "-1"], "triple": [1, 2, 4]}}, "composition": {"passed": true}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 8}',
    ("C", (0, 0), 7, 3):
        '{"algebra": "C", "axioms": {"alternativity": {"passed": false, "witness": {"triple": [0, 0, 1]}}, "associativity": {"passed": false, "witness": {"left": ["0", "-1"], "right": ["0", "1"], "triple": [0, 0, 1]}}, "composition": {"passed": false, "witness": {"pair": [0, 0]}}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": false, "witness": {"basis": 0}}}, "dim": 2}',
    ("H", (1, 1), 7, 3):
        '{"algebra": "H", "axioms": {"alternativity": {"passed": false, "witness": {"triple": [1, 1, 2]}}, "associativity": {"passed": false, "witness": {"left": ["0", "0", "1", "0"], "right": ["0", "0", "-1", "0"], "triple": [1, 1, 2]}}, "composition": {"passed": false, "witness": {"pair": [1, 2]}}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 4}',
    ("O", (3, 3), 7, 3):
        '{"algebra": "O", "axioms": {"alternativity": {"passed": false, "witness": {"triple": [1, 2, 3]}}, "associativity": {"passed": false, "witness": {"left": ["1", "0", "0", "0", "0", "0", "0", "0"], "right": ["-1", "0", "0", "0", "0", "0", "0", "0"], "triple": [1, 2, 3]}}, "composition": {"passed": false, "witness": {"pair": [1, 2]}}, "conjugation_anti_automorphism": {"passed": true}, "involution": {"passed": true}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": true}, "trace_real": {"passed": true}, "unitality": {"passed": true}}, "dim": 8}',
    ("C", (0, 1), 0, 0):
        '{"algebra": "C", "axioms": {"alternativity": {"passed": false, "witness": {"triple": [0, 0, 1]}}, "associativity": {"passed": false, "witness": {"left": ["0", "-1"], "right": ["0", "1"], "triple": [0, 0, 1]}}, "composition": {"passed": false, "witness": {"quadruple": [0, 0, 0, 1]}}, "conjugation_anti_automorphism": {"passed": false, "witness": {"pair": [0, 1]}}, "involution": {"passed": false, "witness": {"pair": [0, 1]}}, "no_absolute_zero_divisors": {"passed": true}, "nondegenerate_form": {"passed": false, "witness": {"pair": [0, 1]}}, "trace_real": {"passed": true}, "unitality": {"passed": false, "witness": {"basis": 1}}}, "dim": 2}',
}


@pytest.mark.parametrize("key", PINNED_REPORTS, ids=lambda k: "-".join(map(str, k)))
def test_axiom_report_bytes_pinned(key):
    label, flip, samples, seed = key
    kind = AlgebraKind.from_label(label)
    alg = make_algebra(kind) if flip is None else flipped(kind, *flip)
    report = verify_axioms(alg, samples=samples, seed=seed)
    assert json.dumps(report.to_json(), sort_keys=True) == PINNED_REPORTS[key]


# tables whose quadratic form is not scalar on some amplitude: every sign
# flip off the diagonal, e_1 * e_1 = e_1, and conjugation fixing the basis
NON_SCALAR_TABLES = [
    (f"flip-{kind.label}-{i}-{j}", lambda kind=kind, i=i, j=j: flipped(kind, i, j))
    for kind in (AlgebraKind.C, AlgebraKind.H, AlgebraKind.SPLIT_H, AlgebraKind.O)
    for i in range(kind.dim) for j in range(kind.dim) if i != j
] + [
    (f"idempotent-e1-{kind.label}", lambda kind=kind: with_product(kind, 1, 1, (1, 1)))
    for kind in ALL_KINDS if kind.dim > 1
] + [
    (f"unconjugated-{kind.label}", lambda kind=kind: unconjugated(kind))
    for kind in ALL_KINDS if kind.dim > 1
]


@pytest.mark.parametrize("build", [b for _, b in NON_SCALAR_TABLES],
                         ids=[name for name, _ in NON_SCALAR_TABLES])
def test_non_scalar_tables_reported_not_raised(build):
    for samples in (0, 7):  # composition is decided on basis tuples alone
        report = verify_axioms(build(), samples=samples, seed=3)
        assert not all_passed(report)
        assert not report.check("composition").passed


# (form, table, coefficients) -> (exception name, message) or ("value", repr),
# byte for byte, in exact and float mode
PINNED_SCALAR_CHECKS = {
    ("quadratic_form", "unconjugated-C", (1, 2)):
        ("NonScalarProduct", "a*conj(a) not scalar: Amplitude(C, [-3, 4])"),
    ("quadratic_form", "unconjugated-C", (0.1, 0.3)):
        ("NonScalarProduct", "a*conj(a) not scalar within 1e-13: "
                             "Amplitude(C, [-0.07999999999999999, 0.06])"),
    ("trace_form", "unconjugated-C", (1, 2)):
        ("NonScalarSum", "a+conj(a) not scalar: Amplitude(C, [2, 4])"),
    ("trace_form", "unconjugated-C", (0.1, 0.3)):
        ("NonScalarSum", "a+conj(a) not scalar within 1e-13: Amplitude(C, [0.2, 0.6])"),
    ("quadratic_form", "flip-H-1-2", (0, 1, 2, 0)):
        ("NonScalarProduct", "a*conj(a) not scalar: Amplitude(H, [5, 0, 0, 4])"),
    ("quadratic_form", "flip-H-1-2", (0.1, 0.2, 0.3, 0.4)):
        ("NonScalarProduct", "a*conj(a) not scalar within 3.0000000000000003e-13: "
                             "Amplitude(H, [0.30000000000000004, 0.0, 0.0, 0.12])"),
    ("trace_form", "flip-H-1-2", (0, 1, 2, 0)): ("value", "0"),
    ("trace_form", "flip-H-1-2", (0.1, 0.2, 0.3, 0.4)): ("value", "0.2"),
}
PINNED_TABLES = {"unconjugated-C": lambda: unconjugated(AlgebraKind.C),
                 "flip-H-1-2": lambda: flipped(AlgebraKind.H, 1, 2)}


@pytest.mark.parametrize("key", list(PINNED_SCALAR_CHECKS), ids=str)
def test_scalar_check_messages_pinned(key):
    form, table, coeffs = key
    amplitude = PINNED_TABLES[table]().amplitude(coeffs)
    try:
        got = ("value", repr({"quadratic_form": quadratic_form,
                              "trace_form": trace_form}[form](amplitude)))
    except (NonScalarProduct, NonScalarSum) as exc:
        got = (type(exc).__name__, str(exc))
    assert got == PINNED_SCALAR_CHECKS[key]


def test_scalar_part_tolerance_and_laziness():
    def unused():
        raise AssertionError("magnitude evaluated for a zero tail")

    assert scalar_part(C.amplitude([Fraction(1, 3), 0]), True, unused, "x") == Fraction(1, 3)
    assert scalar_part(C.amplitude([0.5, 0.0]), False, unused, "x") == 0.5
    assert scalar_part(C.amplitude([0.5, 1e-13]), False, lambda: 1.0, "x") == 0.5
    with pytest.raises(NonScalarSum, match=r"^x not scalar within 1e-12: "):
        scalar_part(C.amplitude([0.5, 2e-12]), False, lambda: 1.0, "x", NonScalarSum)
    with pytest.raises(NonScalarProduct, match=r"^x not scalar: "):
        scalar_part(C.amplitude([1, Fraction(1, 10 ** 30)]), True, unused, "x")


def test_quadratic_form_columns_is_quadratic_form_over_per_row(monkeypatch):
    """On numpy columns every row gets quadratic_form_over's value, bit for
    bit and as a Python scalar, and the first row whose scalar check fails
    raises that row's error.  In float mode the product adds 1e-12 times e0
    to e1, then 7e-29 times e0, which rounds the tail up past SCALAR_RTOL
    times the squared norm in about a third of the rows, and its array twin
    ``columns`` does the same to the array product's sums, as the columns
    are squared by ``kernel.columns``; in exact mode it adds all of e0
    (``skewed_kernel``), so leading rows of zeros pass and the first other
    row fails."""
    rng = random.Random(31)
    for algebra in (R, C, H):
        kernel, skewed = algebra.kernel, skewed_kernel(algebra)

        def near_tolerance(lefts, rights):
            out = kernel(lefts, rights)
            if len(out) == 1:
                return out
            return (out[0], out[1] + out[0] * 1e-12 + out[0] * 7e-29) + out[2:]

        def near_tolerance_columns(lefts, rights):
            out = kernel.columns(lefts, rights)
            if len(out) > 1:
                out[1] = out[1] + out[0] * 1e-12 + out[0] * 7e-29
            return out
        near_tolerance_columns.gather = kernel.columns.gather
        near_tolerance.columns = near_tolerance_columns

        outcomes = set()
        for trial in range(300):
            exact = trial % 3 == 0
            monkeypatch.setitem(vars(algebra), "kernel", skewed if exact else near_tolerance)
            rows = [tuple(rng.randint(-9, 9) * (row >= trial % 5) if exact else rng.uniform(-3, 3)
                          for _ in range(algebra.dim)) for row in range(5)]
            want = []
            for row in rows:
                try:
                    want.append(quadratic_form_over(algebra, row, 3, exact))
                except NonScalarProduct as exc:
                    want.append(exc)
                    break
            columns = tuple(numpy.array(c, dtype=object if exact else float) for c in zip(*rows))
            try:
                got = quadratic_form_columns(algebra, columns, 3, exact)
            except NonScalarProduct as exc:
                got = exc
            if isinstance(want[-1], NonScalarProduct):
                assert str(got) == str(want[-1])
            else:
                assert [(type(q), repr(q)) for q in got] == [(type(q), repr(q)) for q in want]
            outcomes.add((exact, len(want), isinstance(want[-1], NonScalarProduct)))
        if algebra is R:
            assert outcomes == {(True, 5, False), (False, 5, False)}
        else:
            assert {(e, n) for e, n, failed in outcomes if failed} \
                >= {(e, n) for e in (True, False) for n in range(1, 6)}
            assert (False, 5, False) in outcomes


# -- algebraic laws, property-based ------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_composition_law(kind, data):
    a = data.draw(amplitudes(kind))
    b = data.draw(amplitudes(kind))
    assert quadratic_form(mul(a, b)) == quadratic_form(a) * quadratic_form(b)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_involution_laws(kind, data):
    a = data.draw(amplitudes(kind))
    b = data.draw(amplitudes(kind))
    assert a.conj().conj() == a
    assert quadratic_form(a.conj()) == quadratic_form(a)
    assert mul(a, b).conj() == mul(b.conj(), a.conj())


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quadratic_homogeneity(kind, data):
    a = data.draw(amplitudes(kind))
    lam = data.draw(rationals())
    assert quadratic_form(a.scale(lam)) == lam * lam * quadratic_form(a)


@pytest.mark.parametrize("kind", ASSOCIATIVE_KINDS, ids=lambda k: k.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_associativity_random(kind, data):
    a = data.draw(amplitudes(kind))
    b = data.draw(amplitudes(kind))
    c = data.draw(amplitudes(kind))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_roundtrip(kind, data):
    a = data.draw(amplitudes(kind))
    try:
        inv = inverse(a)
    except NotInvertible:
        assert quadratic_form(a) == 0
        return
    if kind.is_associative:
        assert mul(a, inv) == a.algebra.unit()
        assert mul(inv, a) == a.algebra.unit()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trace_is_polar_pairing_with_unit(kind, data):
    a = data.draw(amplitudes(kind))
    assert trace_form(a) == bilinear_form(a, a.algebra.unit())


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_unit_law_random(kind):
    import random
    rng = random.Random(3)
    alg = make_algebra(kind)
    for _ in range(20):
        a = alg.amplitude(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(alg.dim))
        assert mul(alg.unit(), a) == a == mul(a, alg.unit())


def test_octonion_non_associativity_witness_concrete():
    report = verify_axioms(O, samples=10, seed=0)
    i, j, k = report.check("associativity").witness["triple"]
    ei, ej, ek = O.basis_element(i), O.basis_element(j), O.basis_element(k)
    assert mul(mul(ei, ej), ek) != mul(ei, mul(ej, ek))
