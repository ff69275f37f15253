"""Real Cayley-Dickson composition algebras with exact arithmetic.

Seven algebras are supported: the reals R, the complex numbers C, the
quaternions H, the octonions O, and the split variants C', H', O'.  Each
algebra carries an explicit structure-constant table built by iterated
doubling, conjugation signs, the quadratic form and its polarization, the
trace form, and inverses.  ``verify_axioms`` checks the axiom sets that
characterize composition algebras, exhaustively over basis triples in
exact rational arithmetic plus seeded random sampling.

Coefficients may be exact rationals (``int``/``Fraction``; verification
mode) or 64-bit floats (numeric mode).  Scalar-ness assertions are exact
in verification mode and use a relative tolerance in numeric mode.
"""

from __future__ import annotations

import enum
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
        return _DIMS[self]

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


_DIMS = {
    AlgebraKind.R: 1,
    AlgebraKind.C: 2,
    AlgebraKind.SPLIT_C: 2,
    AlgebraKind.H: 4,
    AlgebraKind.SPLIT_H: 4,
    AlgebraKind.O: 8,
    AlgebraKind.SPLIT_O: 8,
}

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


def conj(a: Amplitude) -> Amplitude:
    return a.conj()


def _scalar_tolerance(a: Amplitude) -> float:
    return SCALAR_RTOL * float(sum(float(c) * float(c) for c in a.coeffs))


def quadratic_form(a: Amplitude) -> Scalar:
    """Q(a) with a * conj(a) = Q(a) * e_0; asserts the product is scalar."""
    prod = mul(a, a.conj())
    tail = prod.coeffs[1:]
    if a.is_exact:
        if any(c != 0 for c in tail):
            raise NonScalarProduct(f"a*conj(a) not scalar: {prod!r}")
    else:
        tol = _scalar_tolerance(a)
        if any(abs(float(c)) > tol for c in tail):
            raise NonScalarProduct(f"a*conj(a) not scalar within {tol}: {prod!r}")
    return prod.coeffs[0]


def bilinear_form(a: Amplitude, b: Amplitude) -> Scalar:
    """Polarization of the quadratic form: Q(a+b) - Q(a) - Q(b)."""
    _require_same_algebra(a, b)
    return quadratic_form(a + b) - quadratic_form(a) - quadratic_form(b)


def trace_form(a: Amplitude) -> Scalar:
    """T(a) with a + conj(a) = T(a) * e_0; asserts the sum is scalar."""
    s = a + a.conj()
    tail = s.coeffs[1:]
    if a.is_exact:
        if any(c != 0 for c in tail):
            raise NonScalarSum(f"a+conj(a) not scalar: {s!r}")
    else:
        tol = _scalar_tolerance(a)
        if any(abs(float(c)) > tol for c in tail):
            raise NonScalarSum(f"a+conj(a) not scalar within {tol}: {s!r}")
    return s.coeffs[0]


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


def _associator_on_basis(alg: Algebra, i: int, j: int, k: int):
    """(e_i e_j) e_k - e_i (e_j e_k), as a signed-monomial pair difference."""
    k1, s1 = alg.table[i][j]
    kl, sl = alg.table[k1][k]
    k2, s2 = alg.table[j][k]
    kr, sr = alg.table[i][k2]
    out = {}
    out[kl] = out.get(kl, 0) + s1 * sl
    out[kr] = out.get(kr, 0) - s2 * sr
    return {idx: v for idx, v in out.items() if v != 0}


def verify_axioms(algebra: Algebra, samples: int = 1000, seed: int = 0) -> AxiomReport:
    """Check the composition-algebra axiom sets on an algebra table.

    Each axiom is verified exhaustively over basis-element tuples in exact
    integer arithmetic, plus ``samples`` random exact-rational amplitudes
    drawn from a generator seeded with ``seed``.  Failures are reported with
    a witness, never raised.
    """
    rng = random.Random(seed)
    alg = algebra
    n = alg.dim
    basis = [alg.basis_element(r) for r in range(n)]
    unit = alg.unit()
    checks = []

    def witness_coeffs(a: Amplitude):
        return [str(c) for c in a.coeffs]

    # unitality: e_0 is a two-sided multiplicative unit
    passed, witness = True, None
    for r in range(n):
        if alg.table[0][r] != (r, 1) or alg.table[r][0] != (r, 1):
            passed, witness = False, {"basis": r}
            break
    if passed:
        for _ in range(samples // 10):
            a = _random_exact_amplitude(rng, alg)
            if mul(unit, a) != a or mul(a, unit) != a:
                passed, witness = False, {"amplitude": witness_coeffs(a)}
                break
    checks.append(AxiomCheck("unitality", passed, witness))

    # composition: Q(ab) = Q(a) Q(b)
    passed, witness = True, None
    for i in range(n):
        for j in range(n):
            ei, ej = basis[i], basis[j]
            if quadratic_form(mul(ei, ej)) != quadratic_form(ei) * quadratic_form(ej):
                passed, witness = False, {"pair": [i, j]}
                break
        if not passed:
            break
    if passed:
        for _ in range(samples):
            a = _random_exact_amplitude(rng, alg)
            b = _random_exact_amplitude(rng, alg)
            try:
                ok = quadratic_form(mul(a, b)) == quadratic_form(a) * quadratic_form(b)
            except NonScalarProduct:
                ok = False
            if not ok:
                passed = False
                witness = {"a": witness_coeffs(a), "b": witness_coeffs(b)}
                break
    checks.append(AxiomCheck("composition", passed, witness))

    # involution: conj(conj(a)) = a and Q(conj(a)) = Q(a)
    passed, witness = True, None
    for _ in range(samples // 10):
        a = _random_exact_amplitude(rng, alg)
        if a.conj().conj() != a or quadratic_form(a.conj()) != quadratic_form(a):
            passed, witness = False, {"amplitude": witness_coeffs(a)}
            break
    checks.append(AxiomCheck("involution", passed, witness))

    # conjugation reverses products: conj(ab) = conj(b) conj(a)
    passed, witness = True, None
    for i in range(n):
        for j in range(n):
            ei, ej = basis[i], basis[j]
            if mul(ei, ej).conj() != mul(ej.conj(), ei.conj()):
                passed, witness = False, {"pair": [i, j]}
                break
        if not passed:
            break
    if passed:
        for _ in range(samples // 10):
            a = _random_exact_amplitude(rng, alg)
            b = _random_exact_amplitude(rng, alg)
            if mul(a, b).conj() != mul(b.conj(), a.conj()):
                passed = False
                witness = {"a": witness_coeffs(a), "b": witness_coeffs(b)}
                break
    checks.append(AxiomCheck("conjugation_anti_automorphism", passed, witness))

    # trace realness: a + conj(a) is a real multiple of the unit
    passed, witness = True, None
    for r in range(n):
        s = basis[r] + basis[r].conj()
        if any(c != 0 for c in s.coeffs[1:]):
            passed, witness = False, {"basis": r}
            break
    checks.append(AxiomCheck("trace_real", passed, witness))

    # alternativity: a(ab) = (aa)b and (ba)a = b(aa).  The linearized forms
    # are trilinear, so basis triples suffice; random direct checks added.
    passed, witness = True, None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = _associator_on_basis(alg, i, j, k)
                left_sym = _associator_on_basis(alg, j, i, k)
                right_sym = _associator_on_basis(alg, i, k, j)
                merged_l = dict(left)
                for idx, v in left_sym.items():
                    merged_l[idx] = merged_l.get(idx, 0) + v
                merged_r = dict(left)
                for idx, v in right_sym.items():
                    merged_r[idx] = merged_r.get(idx, 0) + v
                if any(v != 0 for v in merged_l.values()) or \
                   any(v != 0 for v in merged_r.values()):
                    passed, witness = False, {"triple": [i, j, k]}
                    break
            if not passed:
                break
        if not passed:
            break
    if passed:
        for _ in range(samples // 10):
            a = _random_exact_amplitude(rng, alg)
            b = _random_exact_amplitude(rng, alg)
            if mul(a, mul(a, b)) != mul(mul(a, a), b) or \
               mul(mul(b, a), a) != mul(b, mul(a, a)):
                passed = False
                witness = {"a": witness_coeffs(a), "b": witness_coeffs(b)}
                break
    checks.append(AxiomCheck("alternativity", passed, witness))

    # full associativity over basis triples (complete, by trilinearity)
    passed, witness = True, None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if _associator_on_basis(alg, i, j, k):
                    lhs = mul(mul(basis[i], basis[j]), basis[k])
                    rhs = mul(basis[i], mul(basis[j], basis[k]))
                    passed = False
                    witness = {
                        "triple": [i, j, k],
                        "left": [str(c) for c in lhs.coeffs],
                        "right": [str(c) for c in rhs.coeffs],
                    }
                    break
            if not passed:
                break
        if not passed:
            break
    checks.append(AxiomCheck("associativity", passed, witness))

    # nondegeneracy of the bilinear form
    det = gram_determinant(alg)
    checks.append(AxiomCheck(
        "nondegenerate_form", det != 0, None if det != 0 else {"gram_det": str(det)}))

    # absence of absolute zero divisors: no nonzero c with (c a) c = 0 for all a
    passed, witness = True, None
    candidates = list(basis)
    for _ in range(samples):
        candidates.append(_random_exact_amplitude(rng, alg, nonzero=True))
    for c in candidates:
        if c.is_zero():
            continue
        if all(mul(mul(c, e), c).is_zero() for e in basis):
            passed, witness = False, {"candidate": witness_coeffs(c)}
            break
    checks.append(AxiomCheck("no_absolute_zero_divisors", passed, witness))

    return AxiomReport(kind=alg.kind, checks=tuple(checks))
