"""Reference evaluators that share no code with the package under test.

Products follow the Cayley-Dickson doubling formula directly on
coefficient tuples, and path amplitudes are evaluated from the raw
generated matrices, never from ``compalg`` objects:

- exact inputs: Python integers over one common denominator per matrix,
  so the result is an exact rational that must equal the program's;
- float inputs: float64 numpy over the right-regular representation,
  together with the same evaluation on absolute values, which bounds
  the rounding error of every coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: Doubling signs per kind label, innermost first (gamma = -1 is split).
GAMMAS = {"R": (), "C": (1,), "C'": (-1,), "H": (1, 1), "H'": (1, -1),
          "O": (1, 1, 1), "O'": (1, 1, -1)}


def conj(a: tuple) -> tuple:
    return (a[0],) + tuple(-c for c in a[1:])


def cd_mul(a: tuple, b: tuple, gammas: tuple) -> tuple:
    """(p, q)(r, s) = (pr - gamma conj(s) q, sp + q conj(r)), recursively."""
    if not gammas:
        return (a[0] * b[0],)
    h = len(a) // 2
    inner, gamma = gammas[:-1], gammas[-1]
    p, q, r, s = a[:h], a[h:], b[:h], b[h:]
    left = cd_mul(p, r, inner)
    right = cd_mul(conj(s), q, inner)
    top = tuple(x - gamma * y for x, y in zip(left, right))
    bottom = tuple(x + y for x, y in zip(cd_mul(s, p, inner), cd_mul(q, conj(r), inner)))
    return top + bottom


@lru_cache(maxsize=None)
def _norm_signs(gammas: tuple) -> tuple:
    """Q(e_i) for each basis element: the scalar part of e_i conj(e_i)."""
    dim = 1 << len(gammas)
    out = []
    for i in range(dim):
        e = tuple(1 if k == i else 0 for k in range(dim))
        out.append(cd_mul(e, conj(e), gammas)[0])
    return tuple(out)


def quadratic_form(a: tuple, label: str) -> object:
    signs = _norm_signs(GAMMAS[label])
    return sum(c * c * s for c, s in zip(a, signs))


# -- thread supports -------------------------------------------------------------


def supports(grounds: list, results: list):
    """(ground index, sorted surviving elements) per maximal same-ground run,
    or None when some run's results have an empty intersection."""
    out = []
    for g, r in zip(grounds, results):
        if out and out[-1][0] == g:
            alive = out[-1][1] & r
            if not alive:
                return None
            out[-1] = (g, alive)
        else:
            out.append((g, frozenset(r)))
    return [(g, sorted(a)) for g, a in out]


def _entry(matrices: dict, elements: dict, g_from: int, g_to: int, x: str, y: str):
    """Raw entry x -> y; conjugate transpose when only the reverse is stored."""
    if (g_from, g_to) in matrices:
        rows = matrices[(g_from, g_to)]
        return rows[elements[g_from].index(x)][elements[g_to].index(y)]
    rows = matrices[(g_to, g_from)]
    return conj(rows[elements[g_to].index(y)][elements[g_from].index(x)])


def exact_amplitude(label: str, dim: int, matrices: dict, elements: dict,
                    grounds: list, results: list) -> tuple:
    """The exact amplitude as a tuple of Fractions."""
    sup = supports(grounds, results)
    if sup is None:
        return tuple(Fraction(0) for _ in range(dim))
    gammas = GAMMAS[label]
    unit = tuple(1 if i == 0 else 0 for i in range(dim))
    acc = {x: unit for x in sup[0][1]}
    den = 1
    for (g0, _), (g1, alive) in zip(sup, sup[1:]):
        rows = {(x, y): _entry(matrices, elements, g0, g1, x, y)
                for x in acc for y in alive}
        scale = math.lcm(*(c.denominator for e in rows.values() for c in e))
        ints = {k: tuple(int(c * scale) for c in e) for k, e in rows.items()}
        nxt = {}
        for y in alive:
            total = (0,) * dim
            for x, a in acc.items():
                total = tuple(s + t for s, t in zip(total, cd_mul(a, ints[(x, y)], gammas)))
            nxt[y] = total
        acc = nxt
        den *= scale
    total = (0,) * dim
    for a in acc.values():
        total = tuple(s + t for s, t in zip(total, a))
    return tuple(Fraction(c, den) for c in total)


@lru_cache(maxsize=None)
def _regular_basis(gammas: tuple) -> np.ndarray:
    """B[k] with coeffs(u * e_k) = coeffs(u) @ B[k]."""
    dim = 1 << len(gammas)
    eye = [tuple(1.0 if k == i else 0.0 for k in range(dim)) for i in range(dim)]
    return np.asarray([[cd_mul(eye[i], eye[k], gammas) for i in range(dim)]
                       for k in range(dim)])


def float_amplitude(label: str, dim: int, matrices: dict, elements: dict,
                    grounds: list, results: list):
    """(amplitude, bound): float64 amplitude and, per coefficient, the same
    evaluation on absolute values, which bounds every summed term."""
    sup = supports(grounds, results)
    if sup is None:
        zero = np.zeros(dim)
        return zero, zero
    basis = _regular_basis(GAMMAS[label])
    acc = np.zeros((len(sup[0][1]), dim))
    acc[:, 0] = 1.0
    bound = acc.copy()
    for (g0, xs), (g1, ys) in zip(sup, sup[1:]):
        entries = np.asarray([[_entry(matrices, elements, g0, g1, x, y) for y in ys]
                              for x in xs], dtype=float)
        reg = np.einsum("xyk,kij->xyij", entries, basis)
        acc = np.einsum("xi,xyij->yj", acc, reg)
        bound = np.einsum("xi,xyij->yj", bound, np.abs(reg))
    return acc.sum(axis=0), bound.sum(axis=0)


def float_close(got, want, bound, rtol: float) -> bool:
    """Every coefficient within rtol of the larger of the value and its bound."""
    got = np.asarray([float(c) for c in got])
    scale = np.maximum(np.abs(want), bound)
    return bool(np.all(np.abs(got - want) <= rtol * np.maximum(scale, 1e-300)))


# -- combinatorics ------------------------------------------------------------------


def bell(n: int) -> int:
    """Bell numbers by the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def impossible_pairs(grounds: list, results: list) -> tuple:
    """Adjacent index pairs where a same-ground run's surviving set dies out."""
    out = []
    alive = None
    for j, (g, r) in enumerate(zip(grounds, results)):
        if j and grounds[j - 1] == g:
            survived = alive & r
            if survived:
                alive = survived
            else:
                out.append((j - 1, j))
                alive = frozenset(r)
        else:
            alive = frozenset(r)
    return tuple(out)
