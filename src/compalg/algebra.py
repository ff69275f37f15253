"""Real Cayley-Dickson composition algebras with exact arithmetic.

Seven algebras are supported: the reals R, the complex numbers C, the
quaternions H, the octonions O, and the split variants C', H', O'.  Each
algebra carries an explicit structure-constant table built by iterated
doubling, conjugation signs, the quadratic form and its polarization, the
trace form, and inverses.  ``verify_axioms`` checks the axiom sets that
characterize composition algebras as one table of staged checks: each
check runs its stages over exhaustive basis tuples in exact arithmetic in
order and reports the first failing case with a witness.  Basis tuples
decide every multilinear axiom, composition by its polarization on basis
quadruples; only the search for an absolute zero divisor, which is not
multilinear, goes on to seeded random exact-rational candidates.

Only this module operates on coefficient tuples; ``Amplitude`` and the
engine call it.  ``Algebra.kernel`` is the one product (so the axiom
report certifies the product behind every probability), with its array
twin ``kernel.columns``, the same operations on numpy arrays;
``Algebra.conj`` is the one involution and ``summed`` the one sum; a
scalar multiple is a product under ``mul``.

Coefficients are exact rationals (verification mode) or 64-bit floats
(numeric mode), by one rule, which ``mul``, ``+``, scalar multiples and
the forms follow: ``is_exact`` decides the mode, ``lower`` turns
coefficients into kernel operands (ints over one denominator, or floats)
and ``lift`` rebuilds results.  Every scalar-ness assertion, on
Q(a), T(a), the engine's Born probabilities and its sum rules, goes
through ``scalar_part``: the imaginary tail must vanish exactly in
verification mode, and within SCALAR_RTOL relative to a magnitude of the
summed terms in numeric mode (``quadratic_form_columns`` applies the
same test to numpy columns of many values and sends the first failing
one through ``scalar_part``).  ``inverse`` treats Q(a) as vanishing in
numeric mode within SCALAR_RTOL times the squared norm of a.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Optional, Sequence, Union

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
    involution on basis element r; ``conj`` applies it.
    """

    kind: AlgebraKind
    dim: int
    table: tuple
    conj_signs: tuple

    def __repr__(self) -> str:
        return f"Algebra({self.kind.label})"

    def __getstate__(self) -> dict:
        # a generated function does not pickle; it is rebuilt on first use
        return {k: v for k, v in vars(self).items() if k != "kernel"}

    @cached_property
    def kernel(self):
        """The sum of products, as one straight-line function generated from
        ``product_plan`` on first use and kept: the algebra's only product.

        ``kernel(lefts, rights)`` returns the coefficient tuple of the sum of
        a * b over the coefficient tuples a in lefts and b in rights taken in
        step (all zeros, as ints, when there are none).  For each pair it
        unpacks a0..a(d-1) and b0..b(d-1) and adds to each output coefficient
        ``a_i * b_j - ...``, the plan's terms in order, skipping none (``0 -
        ...`` when the first is negated, which no table built by doubling
        has).  Each output starts at the int 0, so it is never -0.0, and a
        pair whose sum is -0.0 leaves it as it is: the bits of adding ``0 +
        a_i * b_j - ...``.

        ``kernel.columns`` is the same sum of products on numpy arrays
        (``_array_product``), bit for bit, over right operands laid out by
        its ``gather``; both travel with the function, so a kernel put in
        its place brings its own.
        """
        d, plan = self.dim, product_plan(self)
        a = "".join(f"a{i}, " for i in range(d))
        b = "".join(f"b{j}, " for j in range(d))
        out = [f"o{k}" for k in range(d)]
        lines = ["def kernel(lefts, rights):",
                 f"    {' = '.join(out)} = 0",
                 f"    for ({a}), ({b}) in zip(lefts, rights):"]
        for o, terms in zip(out, plan):
            pair = "".join(f" {'-' if negate else '+'} a{i} * b{j}" for i, j, negate in terms)
            lines.append(f"        {o} += " + (pair[3:] if pair.startswith(" +") else f"0{pair}"))
        lines.append(f"    return ({', '.join(out)},)")
        namespace = {}
        exec(compile("\n".join(lines), f"<product kernel {self.kind.label}>", "exec"),
             namespace)
        kernel = namespace["kernel"]
        kernel.columns = _array_product(plan)
        return kernel

    def conj(self, coeffs: tuple) -> tuple:
        """The involution on a coefficient tuple, by ``conj_signs``."""
        return tuple(map(operator.mul, self.conj_signs, coeffs))

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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def conj(self) -> "Amplitude":
        return Amplitude(self.algebra, self.algebra.conj(self.coeffs))

    def __add__(self, other: "Amplitude") -> "Amplitude":
        """``summed`` on both operands lowered together, lifted once."""
        _require_same_algebra(self, other)
        exact = is_exact(self.coeffs + other.coeffs)
        lowered, den = lower((self.coeffs, other.coeffs), exact)
        return Amplitude(self.algebra, lift(summed(lowered, self.algebra.dim), den, exact))

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
        """The product with factor * e_0 under ``mul``."""
        return mul(self, self.algebra.scalar(factor))

    def __repr__(self) -> str:
        return f"Amplitude({self.algebra.kind.label}, {list(self.coeffs)})"


def _require_same_algebra(a: Amplitude, b: Amplitude) -> None:
    if a.algebra is not b.algebra and a.algebra != b.algebra:
        raise AlgebraMismatch(
            f"cannot combine {a.algebra.kind.label} with {b.algebra.kind.label}")


def is_exact(coeffs: Iterable) -> bool:
    """Exact mode: every coefficient is an int or a Fraction; else float mode."""
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


def _float(c) -> float:
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def lower(tuples: Sequence[tuple], exact: bool) -> tuple:
    """(lowered tuples, D): ints over the lcm D of the denominators when
    exact, else floats over 1, one beyond the float range an infinity
    (``float`` on every coefficient, ``_float`` only once that overflows)."""
    if not exact:
        try:
            return [tuple(map(float, t)) for t in tuples], 1
        except OverflowError:  # an int or Fraction beyond the float range
            return [tuple(map(_float, t)) for t in tuples], 1
    den = math.lcm(*[c.denominator for t in tuples for c in t])
    return [tuple([c.numerator * (den // c.denominator) for c in t]) for t in tuples], den


def lift(coeffs: Iterable, denominator: int, exact: bool) -> tuple:
    """Each coefficient over D: an int when whole, else a Fraction; floats in float mode."""
    if not exact:
        return tuple(map(float, coeffs))
    return tuple([Fraction(c, denominator) if c % denominator else c // denominator
                  for c in coeffs])


def summed(tuples: Iterable[tuple], dim: int) -> tuple:
    """The sum of coefficient tuples, added left to right from zero
    (``reduce``: from Python 3.12 on ``sum`` compensates float rounding)."""
    return tuple(reduce(operator.add, c) for c in zip((0,) * dim, *tuples))


def mul(a: Amplitude, b: Amplitude) -> Amplitude:
    """Bilinear product: one kernel call on the lowered operands."""
    _require_same_algebra(a, b)
    exact = is_exact(a.coeffs + b.coeffs)
    (x, y), den = lower((a.coeffs, b.coeffs), exact)
    return Amplitude(a.algebra, lift(a.algebra.kernel((x,), (y,)), den * den, exact))


def product_plan(algebra: Algebra) -> tuple:
    """The structure table regrouped by output: for each basis index k, the
    triples (i, j, negate) with e_i * e_j = -e_k if negate else +e_k, in
    (i, j) order."""
    plan = [[] for _ in range(algebra.dim)]
    for i, row in enumerate(algebra.table):
        for j, (k, sign) in enumerate(row):
            plan[k].append((i, j, sign < 0))
    return tuple(map(tuple, plan))


def _array_product(plan: tuple):
    """The sum of products of a product plan on numpy arrays:
    ``Algebra.kernel.columns``, with ``columns.gather``, which lays out its
    right operands.

    ``columns.gather(b)`` takes an array whose first axis holds the d
    coefficients and returns b'[m, k, ...], the right factor of output k's
    m-th term, signed: in a table built by doubling every row is a signed
    permutation, so that term is a_m * (+-b_j).  ``columns(lefts, rights)``
    takes a left array a over (coefficient, ..., pair) and a gathered right
    array b' over (m, k, ..., pair), float64 or of object dtype, with as
    many axes between, which broadcast against each other; the last axis
    holds the pairs to sum, at least one.  It returns the sum over the
    pairs of a * b, over (coefficient, ...), the broadcast shape.
    The d products a_m * b'_m give every pair's sum ``a_0 * b'_0 + ... +
    a_(d-1) * b'_(d-1)``, one term at a time over whole arrays, plus 0, and
    the pairs' sums are added in order: the first pair's, plus the
    second's, and so on.  These are the float operations of the kernel's
    ``o_k += a_i * b_j - ...`` bit for bit: x - y is x + (-y) in IEEE
    arithmetic, and a sign flip is exact.  The ``+ 0`` on the pair sums
    stands for the kernel's outputs starting at the int 0: the total starts
    from the first pair's sum, so, like the kernel's outputs, it is never
    -0.0, and a later pair's -0.0 changes nothing in either.
    A right operand may be gathered once and multiplied many times.  The
    index and sign arrays are built on the first gather, so numpy is
    imported only where arrays are multiplied; a table with a row that is
    not a signed permutation raises ValueError there.
    """
    d = len(plan)
    signed = []  # (j, sign), each d x d over (m, k)

    def gather(b):
        if not signed:
            import numpy as np

            if any(len(terms) != d or any(i != m for m, (i, _, _) in enumerate(terms))
                   for terms in plan):
                raise ValueError("no array product: a row of the table is not a signed permutation")
            signed.append(np.array([[terms[m][1] for terms in plan] for m in range(d)]))
            signed.append(np.array([[-1 if terms[m][2] else 1 for terms in plan]
                                    for m in range(d)]))
        at, sign = signed
        return b[at] * sign.reshape(d, d, *[1] * (b.ndim - 1))

    def columns(lefts, rights):
        pairs = lefts[0] * rights[0]
        pairs += 0
        for m in range(1, d):
            pairs += lefts[m] * rights[m]
        total = pairs[..., 0]
        for t in range(1, pairs.shape[-1]):
            total += pairs[..., t]
        return total
    columns.gather = gather
    return columns


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


def squared_norm(coeffs: tuple) -> float:
    """The sum of the squared float coefficients, added left to right from
    zero as ``summed`` adds (so a tuple of numpy columns gives the column of
    each row's value): the magnitude that bounds the terms of a * conj(a)
    and a + conj(a)."""
    return reduce(operator.add, [c * c for c in coeffs], 0)


def quadratic_form_over(algebra: Algebra, coeffs: tuple, denominator: int,
                        exact: bool) -> Scalar:
    """Q of lowered coeffs over denominator: e0 of coeffs * conj(coeffs), one
    kernel call, over denominator squared; a nonzero tail goes through
    ``scalar_part``."""
    square = algebra.kernel((coeffs,), (algebra.conj(coeffs),))
    scale = denominator * denominator
    if any(square[1:]):
        return scalar_part(Amplitude(algebra, lift(square, scale, exact)), exact,
                           lambda: squared_norm(coeffs), "a*conj(a)")
    return lift(square[:1], scale, exact)[0]


def quadratic_form_columns(algebra: Algebra, columns: tuple, denominator: int,
                           exact: bool) -> list:
    """``quadratic_form_over`` of every row of d coefficient columns (numpy
    arrays of one length, float64 or object dtype), as a list of Python
    scalars in row order: one call of the kernel's array product
    (``kernel.columns``), the kernel's operations in its order for every
    element, so each value equals the row's own bit for bit.

    A row fails the scalar check of ``scalar_part`` when a tail coefficient
    is nonzero in exact mode, or exceeds SCALAR_RTOL times the row's
    ``squared_norm`` in float mode; the first failing row then goes through
    ``quadratic_form_over`` itself, so it raises that error and message.
    """
    import numpy as np

    product = algebra.kernel.columns
    square = product(np.array(columns)[..., None],
                     product.gather(np.array(algebra.conj(columns))[..., None]))
    if exact:
        bad = [c != 0 for c in square[1:]]
    else:
        tol = SCALAR_RTOL * squared_norm(columns)
        bad = [abs(c) > tol for c in square[1:]]
    if bad:  # R has no tail
        failed = reduce(operator.or_, bad)
        if failed.any():
            first = int(failed.argmax())
            quadratic_form_over(algebra, tuple(c[first:first + 1].tolist()[0] for c in columns),
                                denominator, exact)
    return list(lift(square[0].tolist(), denominator * denominator, exact))


def quadratic_form(a: Amplitude) -> Scalar:
    """Q(a) with a * conj(a) = Q(a) * e_0; asserts the product is scalar."""
    exact = is_exact(a.coeffs)
    (x,), den = lower((a.coeffs,), exact)
    return quadratic_form_over(a.algebra, x, den, exact)


def bilinear_form(a: Amplitude, b: Amplitude) -> Scalar:
    """Polarization of the quadratic form: Q(a+b) - Q(a) - Q(b)."""
    _require_same_algebra(a, b)
    exact = is_exact(a.coeffs + b.coeffs)
    (x, y), den = lower((a.coeffs, b.coeffs), exact)
    q_sum, q_a, q_b = (quadratic_form_over(a.algebra, c, den, exact)
                       for c in (summed((x, y), a.algebra.dim), x, y))
    return q_sum - q_a - q_b


def trace_form(a: Amplitude) -> Scalar:
    """T(a) with a + conj(a) = T(a) * e_0; asserts the sum is scalar."""
    exact = is_exact(a.coeffs)
    (x,), den = lower((a.coeffs,), exact)
    value = lift(summed((x, a.algebra.conj(x)), a.algebra.dim), den, exact)
    return scalar_part(Amplitude(a.algebra, value), exact, lambda: squared_norm(x),
                       "a+conj(a)", NonScalarSum)


def inverse(a: Amplitude) -> Amplitude:
    """conj(a) / Q(a); undefined on the isotropic cone of split algebras.

    In float mode Q(a) vanishes when it is at most SCALAR_RTOL times the
    squared norm of a, a bound relative to the size of a as for scalar
    tails: a small but invertible a has an inverse in both modes.
    """
    exact = is_exact(a.coeffs)
    (x,), den = lower((a.coeffs,), exact)
    q = quadratic_form_over(a.algebra, x, den, exact)
    if (q == 0) if exact else abs(q) <= SCALAR_RTOL * squared_norm(x):
        raise NotInvertible("quadratic form vanishes" + ("" if exact else " (within tolerance)"))
    factor = Fraction(1, den) / q if exact else 1.0 / q
    return Amplitude(a.algebra, tuple(c * factor for c in a.algebra.conj(x)))


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


def _random_exact_amplitude(rng: random.Random, alg: Algebra) -> Amplitude:
    """A nonzero amplitude of rationals n/m, -9 <= n <= 9 and 1 <= m <= 9."""
    while True:
        a = alg.amplitude(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(alg.dim))
        if not a.is_zero():
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

    Each check is a name and ordered stages ``(cases, fails, witness)`` in
    exact arithmetic.  Every check but the last is decided on basis-element
    tuples: its laws are multilinear, or linearized from laws of higher
    degree, so in characteristic 0 the basis tuples are complete.
    Composition, Q(ab) = Q(a) Q(b), is checked on basis pairs, then by its
    full polarization on basis quadruples; ``nondegenerate_form`` ends on
    the Gram determinant.  The basis products e_i e_j are taken once
    through ``mul`` and the Gram entries b(e_r, e_s) once each through
    ``bilinear_form``, as first needed, so the kernel is the product
    checked.  ``no_absolute_zero_divisors`` is not multilinear: after the
    basis elements it tries ``samples`` nonzero exact-rational candidates
    drawn from a generator seeded with ``seed``, the only stage that
    draws.  A check reports the first case of the first stage that fails
    through that stage's witness and runs no later stage.  Failures are
    reported with a witness, never raised.
    """
    alg = algebra
    n = alg.dim
    e = [alg.basis_element(r) for r in range(n)]
    product = [[mul(x, y) for y in e] for x in e]
    q = quadratic_form

    @lru_cache(maxsize=None)
    def gram(r, s):  # raises NonScalarProduct when the form is not scalar there
        return bilinear_form(e[r], e[s])

    def b(x: Amplitude, y: Amplitude):  # bilinear_form, by the Gram entries
        return sum(c * c2 * gram(r, s) for r, c in enumerate(x.coeffs) if c
                   for s, c2 in enumerate(y.coeffs) if c2)

    def tuples(width):
        return itertools.product(range(n), repeat=width)

    def coeffs(a: Amplitude):
        return [str(c) for c in a.coeffs]

    @lru_cache(maxsize=None)  # each basis associator enters up to three laws
    def assoc(i, j, k):
        return mul(product[i][j], e[k]) - mul(e[i], product[j][k])

    def not_alternative(i, j, k):  # the linearized laws on a basis triple
        a = assoc(i, j, k)
        return not (a + assoc(j, i, k)).is_zero() or not (a + assoc(i, k, j)).is_zero()

    def not_composition(i, j, k, l):
        # b(e_i e_j, e_k e_l) + b(e_i e_l, e_k e_j) = b(e_i, e_k) b(e_j, e_l)
        return b(product[i][j], product[k][l]) + b(product[i][l], product[k][j]) \
            != gram(i, k) * gram(j, l)

    def basis_witness(r):
        return {"basis": r}

    def pair_witness(i, j):
        return {"pair": [i, j]}

    rng = random.Random(seed)
    table = (
        # e_0 is a two-sided multiplicative unit
        ("unitality", (
            (tuples(1), lambda r: product[0][r] != e[r] or product[r][0] != e[r],
             basis_witness),
        )),
        # Q(ab) = Q(a) Q(b): on basis pairs, then polarized in a and in b
        ("composition", (
            (tuples(2), lambda i, j: q(product[i][j]) != q(e[i]) * q(e[j]), pair_witness),
            (tuples(4), not_composition, lambda i, j, k, l: {"quadruple": [i, j, k, l]}),
        )),
        # conj(conj(a)) = a and Q(conj(a)) = Q(a), polarized
        ("involution", (
            (tuples(1), lambda r: e[r].conj().conj() != e[r], basis_witness),
            (tuples(2), lambda i, j: b(e[i].conj(), e[j].conj()) != gram(i, j), pair_witness),
        )),
        # conj(ab) = conj(b) conj(a)
        ("conjugation_anti_automorphism", (
            (tuples(2), lambda i, j: product[i][j].conj() != mul(e[j].conj(), e[i].conj()),
             pair_witness),
        )),
        # a + conj(a) is a real multiple of the unit
        ("trace_real", (
            (tuples(1), lambda r: any(c != 0 for c in (e[r] + e[r].conj()).coeffs[1:]),
             basis_witness),
        )),
        # a(ab) = (aa)b and (ba)a = b(aa), linearized to trilinear laws
        ("alternativity", (
            (tuples(3), not_alternative, lambda i, j, k: {"triple": [i, j, k]}),
        )),
        # full associativity over basis triples
        ("associativity", (
            (tuples(3), lambda i, j, k: not assoc(i, j, k).is_zero(),
             lambda i, j, k: {"triple": [i, j, k],
                              "left": coeffs(mul(product[i][j], e[k])),
                              "right": coeffs(mul(e[i], product[j][k]))}),
        )),
        # the bilinear form is defined on the basis (gram raises where it is
        # not), and its Gram matrix is nonsingular
        ("nondegenerate_form", (
            (tuples(2), lambda i, j: gram(i, j) is None, pair_witness),
            (((alg,),), lambda a: gram_determinant(a) == 0,
             lambda a: {"gram_det": str(gram_determinant(a))}),
        )),
        # no nonzero c with (c a) c = 0 for all a
        ("no_absolute_zero_divisors", (
            (itertools.chain(((c,) for c in e),
                             ((_random_exact_amplitude(rng, alg),) for _ in range(samples))),
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
