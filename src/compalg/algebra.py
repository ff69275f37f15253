"""Real Cayley-Dickson composition algebras with exact arithmetic.

Seven algebras are supported: the reals R, the complex numbers C, the
quaternions H, the octonions O, and the split variants C', H', O'.  Each
algebra carries an explicit structure-constant table built by iterated
doubling, conjugation signs, the quadratic form and its polarization, the
trace form, and inverses.  ``verify_axioms`` checks the axiom sets that
characterize composition algebras as one table of staged checks: each
check runs its stages (exhaustive basis tuples in exact arithmetic, then
seeded random exact-rational samples) in order and reports the first
failing case with a witness.

Coefficients may be exact rationals (``int``/``Fraction``; verification
mode) or 64-bit floats (numeric mode).  Every scalar-ness assertion, on
Q(a), T(a) and the engine's sum rules, goes through ``scalar_part``: the
imaginary tail must vanish exactly in verification mode, and within
SCALAR_RTOL relative to a magnitude of the summed terms in numeric mode.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Iterable, Optional, Union

from .errors import AlgebraMismatch, NonScalarProduct, NonScalarSum, NotInvertible

Scalar = Union[int, Fraction, float]

#: Relative tolerance for scalar-ness assertions on float-backed amplitudes.
SCALAR_RTOL = 1e-12


class AlgebraKind(enum.Enum):
    """The seven real Cayley-Dickson algebras, named by ASCII labels."""

    R = "R"
    C = "C"
    SPLIT_C = "C'"
    H = "H"
    SPLIT_H = "H'"
    O = "O"
    SPLIT_O = "O'"

    @property
    def label(self) -> str:
        return self.value

    @property
    def dim(self) -> int:
        return 2 ** len(_DOUBLINGS[self])

    @property
    def is_split(self) -> bool:
        return self in (AlgebraKind.SPLIT_C, AlgebraKind.SPLIT_H, AlgebraKind.SPLIT_O)

    @property
    def is_associative(self) -> bool:
        return self.dim <= 4

    @property
    def is_positive_definite(self) -> bool:
        """True when the quadratic form is the Euclidean norm (R, C, H)."""
        return not self.is_split

    @classmethod
    def from_label(cls, label: str) -> "AlgebraKind":
        for kind in cls:
            if kind.value == label:
                return kind
        raise ValueError(f"unknown algebra label {label!r}; expected one of "
                         f"{', '.join(k.value for k in cls)}")


# Doubling parameters, applied left to right starting from R.  gamma = +1
# is an ordinary doubling step, gamma = -1 a split one; only the final step
# distinguishes a split algebra from its ordinary sibling.
_DOUBLINGS = {
    AlgebraKind.R: (),
    AlgebraKind.C: (1,),
    AlgebraKind.SPLIT_C: (-1,),
    AlgebraKind.H: (1, 1),
    AlgebraKind.SPLIT_H: (1, -1),
    AlgebraKind.O: (1, 1, 1),
    AlgebraKind.SPLIT_O: (1, 1, -1),
}

# Basis products are signed basis elements, so the multiplication table is
# stored as table[i][j] = (k, sign) meaning e_i * e_j = sign * e_k.

def _double(table, gamma: int):
    """One doubling step: (a,b)(c,d) = (ac - gamma*conj(d)b, da + b*conj(c))."""
    h = len(table)
    n = 2 * h

    def sigma(j: int) -> int:  # conjugation sign of basis j in the half algebra
        return 1 if j == 0 else -1

    new = [[None] * n for _ in range(n)]
    for i in range(h):
        for j in range(h):
            k, s = table[i][j]
            kt, st = table[j][i]
            new[i][j] = (k, s)
            new[i][j + h] = (kt + h, st)
            new[i + h][j] = (k + h, s * sigma(j))
            new[i + h][j + h] = (kt, -gamma * sigma(j) * st)
    return tuple(tuple(row) for row in new)


def _build_table(kind: AlgebraKind):
    table = ((( 0, 1),),)
    for gamma in _DOUBLINGS[kind]:
        table = _double(table, gamma)
    return table


@dataclass(frozen=True)
class Algebra:
    """A finite-dimensional real algebra given by its basis product table.

    ``table[i][j] = (k, sign)`` encodes e_i * e_j = sign * e_k; all structure
    constants are in {-1, 0, +1}.  ``conj_signs[r]`` is the action of the
    involution on basis element r.
    """

    kind: AlgebraKind
    dim: int
    table: tuple
    conj_signs: tuple

    def __repr__(self) -> str:
        return f"Algebra({self.kind.label})"

    def structure_constant(self, i: int, j: int, k: int) -> int:
        kk, s = self.table[i][j]
        return s if kk == k else 0

    def amplitude(self, coeffs: Iterable[Scalar]) -> "Amplitude":
        return Amplitude(self, tuple(coeffs))

    def basis_element(self, r: int) -> "Amplitude":
        if not 0 <= r < self.dim:
            raise IndexError(f"basis index {r} out of range for dim {self.dim}")
        return self.amplitude(1 if i == r else 0 for i in range(self.dim))

    def unit(self) -> "Amplitude":
        return self.basis_element(0)

    def zero(self) -> "Amplitude":
        return self.amplitude(0 for _ in range(self.dim))

    def scalar(self, value: Scalar) -> "Amplitude":
        """Embed a real scalar as value * e_0."""
        return self.amplitude(value if i == 0 else 0 for i in range(self.dim))


@lru_cache(maxsize=None)
def make_algebra(kind: AlgebraKind) -> Algebra:
    """Build (and intern) the algebra of the given kind by iterated doubling."""
    table = _build_table(kind)
    n = kind.dim
    conj_signs = tuple(1 if r == 0 else -1 for r in range(n))
    alg = Algebra(kind=kind, dim=n, table=table, conj_signs=conj_signs)
    for j in range(n):  # e_0 must be a two-sided unit
        assert alg.table[0][j] == (j, 1) and alg.table[j][0] == (j, 1)
    return alg


@dataclass(frozen=True)
class Amplitude:
    """A coefficient vector over an algebra's basis."""

    algebra: Algebra
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise ValueError(
                f"expected {self.algebra.dim} coefficients, got {len(self.coeffs)}")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Rational) for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def conj(self) -> "Amplitude":
        return Amplitude(self.algebra, tuple(
            s * c for s, c in zip(self.algebra.conj_signs, self.coeffs)))

    def __add__(self, other: "Amplitude") -> "Amplitude":
        _require_same_algebra(self, other)
        return Amplitude(self.algebra, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Amplitude") -> "Amplitude":
        return self + (-other)

    def __neg__(self) -> "Amplitude":
        return Amplitude(self.algebra, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Amplitude):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # Scalars commute with every amplitude.
        return self.scale(other)

    def scale(self, factor: Scalar) -> "Amplitude":
        return Amplitude(self.algebra, tuple(factor * c for c in self.coeffs))

    def __repr__(self) -> str:
        return f"Amplitude({self.algebra.kind.label}, {list(self.coeffs)})"


def _require_same_algebra(a: Amplitude, b: Amplitude) -> None:
    if a.algebra is not b.algebra and a.algebra != b.algebra:
        raise AlgebraMismatch(
            f"cannot combine {a.algebra.kind.label} with {b.algebra.kind.label}")


def mul(a: Amplitude, b: Amplitude) -> Amplitude:
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


@lru_cache(maxsize=None)
def product_plan(algebra: Algebra) -> tuple:
    """The table of ``mul`` regrouped by output: for each basis index k, the
    triples (i, j, negate) with e_i * e_j = -e_k if negate else +e_k, in
    ``mul``'s (i, j) order."""
    plan = [[] for _ in range(algebra.dim)]
    for i, row in enumerate(algebra.table):
        for j, (k, sign) in enumerate(row):
            plan[k].append((i, j, sign < 0))
    return tuple(map(tuple, plan))


def sum_of_products(plan: tuple, lefts, rights) -> tuple:
    """The coefficients of the sum of a * b over a in lefts and b in rights
    taken in step, coefficient tuples multiplied by a ``product_plan``.

    Each product is formed term by term in ``mul``'s order and then added
    to the running sum, so the result equals summing ``mul`` over the pairs
    from zero: exactly for rationals, and bit for bit for finite floats
    (where ``mul`` skips a zero term and keeps an int 0, this gives 0.0)."""
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


def conj(a: Amplitude) -> Amplitude:
    return a.conj()


def scalar_part(value: Amplitude, exact: bool, magnitude, what: str,
                error=NonScalarProduct) -> Scalar:
    """The e_0 coefficient of a value that must be a real multiple of the unit.

    Raises ``error`` when the tail is not zero: in exact mode on any nonzero
    tail coefficient, in float mode on one beyond SCALAR_RTOL * magnitude(),
    where ``magnitude`` bounds the size of the terms summed into the value.
    ``magnitude`` is called only when some tail coefficient is nonzero.
    """
    tail = value.coeffs[1:]
    if any(c != 0 for c in tail):
        if exact:
            raise error(f"{what} not scalar: {value!r}")
        tol = SCALAR_RTOL * magnitude()
        if any(abs(float(c)) > tol for c in tail):
            raise error(f"{what} not scalar within {tol}: {value!r}")
    return value.coeffs[0]


def _squared_norm(a: Amplitude) -> float:
    return float(sum(float(c) * float(c) for c in a.coeffs))


def quadratic_form(a: Amplitude) -> Scalar:
    """Q(a) with a * conj(a) = Q(a) * e_0; asserts the product is scalar."""
    return scalar_part(mul(a, a.conj()), a.is_exact, lambda: _squared_norm(a),
                       "a*conj(a)")


def bilinear_form(a: Amplitude, b: Amplitude) -> Scalar:
    """Polarization of the quadratic form: Q(a+b) - Q(a) - Q(b)."""
    _require_same_algebra(a, b)
    return quadratic_form(a + b) - quadratic_form(a) - quadratic_form(b)


def trace_form(a: Amplitude) -> Scalar:
    """T(a) with a + conj(a) = T(a) * e_0; asserts the sum is scalar."""
    return scalar_part(a + a.conj(), a.is_exact, lambda: _squared_norm(a),
                       "a+conj(a)", NonScalarSum)


def inverse(a: Amplitude) -> Amplitude:
    """conj(a) / Q(a); undefined on the isotropic cone of split algebras."""
    q = quadratic_form(a)
    if a.is_exact:
        if q == 0:
            raise NotInvertible("quadratic form vanishes")
        factor = Fraction(1, 1) / q
    else:
        if abs(float(q)) <= 1e-12:
            raise NotInvertible("quadratic form vanishes (within tolerance)")
        factor = 1.0 / q
    return a.conj().scale(factor)


def gram_determinant(algebra: Algebra) -> Fraction:
    """Determinant of the Gram matrix G[r][s] = B(e_r, e_s), computed exactly."""
    n = algebra.dim
    basis = [algebra.basis_element(r) for r in range(n)]
    g = [[Fraction(bilinear_form(basis[r], basis[s])) for s in range(n)]
         for r in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if g[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            g[col], g[pivot] = g[pivot], g[col]
            det = -det
        det *= g[col][col]
        inv = Fraction(1) / g[col][col]
        for r in range(col + 1, n):
            factor = g[r][col] * inv
            if factor:
                g[r] = [x - factor * y for x, y in zip(g[r], g[col])]
    return det


# -- axiom verification ---------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[dict] = None


@dataclass(frozen=True)
class AxiomReport:
    kind: AlgebraKind
    checks: tuple

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "algebra": self.kind.label,
            "dim": self.kind.dim,
            "axioms": {
                c.name: (
                    {"passed": c.passed} if c.witness is None
                    else {"passed": c.passed, "witness": c.witness}
                )
                for c in self.checks
            },
        }


def _random_exact_amplitude(rng: random.Random, alg: Algebra,
                            nonzero: bool = False) -> Amplitude:
    while True:
        a = alg.amplitude(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(alg.dim))
        if not nonzero or not a.is_zero():
            return a


def _first_failure(cases, fails):
    """The first case (a tuple of arguments) on which ``fails`` holds, or None.

    A NonScalarProduct raised by ``fails`` is a failure at that case: a table
    whose quadratic form is not scalar fails the check instead of aborting it.
    """
    for case in cases:
        try:
            if fails(*case):
                return case
        except NonScalarProduct:
            return case
    return None


def verify_axioms(algebra: Algebra, samples: int = 1000, seed: int = 0) -> AxiomReport:
    """Check the composition-algebra axiom sets on an algebra table.

    Each check is a name and ordered stages ``(cases, fails, witness)``:
    basis-element tuples in exact integer arithmetic (complete wherever the
    law is multilinear), then ``samples`` or ``samples // 10`` random
    exact-rational amplitudes drawn from a generator seeded with ``seed``.
    A check reports the first case of the first stage that fails through
    that stage's witness and runs no later stage.  Random amplitudes are
    drawn only while their stage runs, so a check that fails early leaves
    the stream to the checks after it.  Failures are reported with a
    witness, never raised.
    """
    rng = random.Random(seed)
    alg = algebra
    n = alg.dim
    e = [alg.basis_element(r) for r in range(n)]
    unit = e[0]
    q = quadratic_form

    def draws(count, width, nonzero=False):
        return (tuple(_random_exact_amplitude(rng, alg, nonzero) for _ in range(width))
                for _ in range(count))

    def tuples(width):
        return itertools.product(range(n), repeat=width)

    def coeffs(a: Amplitude):
        return [str(c) for c in a.coeffs]

    def assoc(a, b, c):
        return mul(mul(a, b), c) - mul(a, mul(b, c))

    def not_alternative(i, j, k):  # the linearized laws on a basis triple
        a = assoc(e[i], e[j], e[k])
        return not (a + assoc(e[j], e[i], e[k])).is_zero() \
            or not (a + assoc(e[i], e[k], e[j])).is_zero()

    def gram_entry_not_scalar(i, j):
        bilinear_form(e[i], e[j])  # raises NonScalarProduct when not scalar
        return False

    def basis_witness(r):
        return {"basis": r}

    def amplitude_witness(a):
        return {"amplitude": coeffs(a)}

    def pair_witness(i, j):
        return {"pair": [i, j]}

    def ab_witness(a, b):
        return {"a": coeffs(a), "b": coeffs(b)}

    table = (
        # e_0 is a two-sided multiplicative unit
        ("unitality", (
            (tuples(1), lambda r: alg.table[0][r] != (r, 1) or alg.table[r][0] != (r, 1),
             basis_witness),
            (draws(samples // 10, 1), lambda a: mul(unit, a) != a or mul(a, unit) != a,
             amplitude_witness),
        )),
        # Q(ab) = Q(a) Q(b)
        ("composition", (
            (tuples(2), lambda i, j: q(mul(e[i], e[j])) != q(e[i]) * q(e[j]), pair_witness),
            (draws(samples, 2), lambda a, b: q(mul(a, b)) != q(a) * q(b), ab_witness),
        )),
        # conj(conj(a)) = a and Q(conj(a)) = Q(a)
        ("involution", (
            (draws(samples // 10, 1), lambda a: a.conj().conj() != a or q(a.conj()) != q(a),
             amplitude_witness),
        )),
        # conj(ab) = conj(b) conj(a)
        ("conjugation_anti_automorphism", (
            (tuples(2), lambda i, j: mul(e[i], e[j]).conj() != mul(e[j].conj(), e[i].conj()),
             pair_witness),
            (draws(samples // 10, 2), lambda a, b: mul(a, b).conj() != mul(b.conj(), a.conj()),
             ab_witness),
        )),
        # a + conj(a) is a real multiple of the unit
        ("trace_real", (
            (tuples(1), lambda r: any(c != 0 for c in (e[r] + e[r].conj()).coeffs[1:]),
             basis_witness),
        )),
        # a(ab) = (aa)b and (ba)a = b(aa): the linearized forms are trilinear,
        # so basis triples suffice; random direct checks follow
        ("alternativity", (
            (tuples(3), not_alternative, lambda i, j, k: {"triple": [i, j, k]}),
            (draws(samples // 10, 2), lambda a, b: not assoc(a, a, b).is_zero()
             or not assoc(b, a, a).is_zero(),
             ab_witness),
        )),
        # full associativity over basis triples (complete, by trilinearity)
        ("associativity", (
            (tuples(3), lambda i, j, k: not assoc(e[i], e[j], e[k]).is_zero(),
             lambda i, j, k: {"triple": [i, j, k],
                              "left": coeffs(mul(mul(e[i], e[j]), e[k])),
                              "right": coeffs(mul(e[i], mul(e[j], e[k])))}),
        )),
        # the bilinear form is defined on the basis, and its Gram matrix is
        # nonsingular
        ("nondegenerate_form", (
            (tuples(2), gram_entry_not_scalar, pair_witness),
            (((alg,),), lambda a: gram_determinant(a) == 0,
             lambda a: {"gram_det": str(gram_determinant(a))}),
        )),
        # no nonzero c with (c a) c = 0 for all a
        ("no_absolute_zero_divisors", (
            (itertools.chain(((c,) for c in e), draws(samples, 1, nonzero=True)),
             lambda c: all(mul(mul(c, x), c).is_zero() for x in e),
             lambda c: {"candidate": coeffs(c)}),
        )),
    )
    checks = []
    for name, stages in table:
        witness = None
        for cases, fails, describe in stages:
            case = _first_failure(cases, fails)
            if case is not None:
                witness = describe(*case)
                break
        checks.append(AxiomCheck(name, witness is None, witness))
    return AxiomReport(kind=alg.kind, checks=tuple(checks))
