"""Shared fixtures and enumeration oracles.

The oracles work on plain integer tuples with explicit moduli so they do
not touch the package's linear algebra at all; anything they certify is
certified independently.
"""

from itertools import product
from math import gcd

import pytest

from freeabcat import ChainObject, FpSquare, Matrix, ZZ


@pytest.fixture
def x_ex() -> ChainObject:
    """The worked 1 -> 2 -> 1 chain whose class is the 2-torsion modules."""
    return ChainObject(
        ZZ,
        Matrix.from_rows(ZZ, [[-1], [2]]),
        Matrix.from_rows(ZZ, [[0, -1]]),
    )


@pytest.fixture
def sq_ex() -> FpSquare:
    return FpSquare(
        ZZ,
        Matrix.from_rows(ZZ, [[1]]),
        Matrix.from_rows(ZZ, [[2]]),
        Matrix.zeros(ZZ, 0, 1),
        Matrix.zeros(ZZ, 0, 1),
    )


# -- independent enumeration oracle -------------------------------------
#
# A finite module is given to the oracle as its list of cyclic moduli
# [d1, ..., dk]; M^p is flattened to p blocks of k coordinates, matching
# the package's coordinate layout but computed with bare ints.


def enum_power(mods: list[int], power: int) -> list[tuple[int, ...]]:
    return [tuple(v) for v in product(*([range(d) for d in mods] * power))]


def act(rows: list[list[int]], mods: list[int], x: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the matrix blockwise: (U x)[i-th block] = sum_l U[i][l] x[l-th block]."""
    k = len(mods)
    out = []
    for row in rows:
        for j in range(k):
            s = sum(coef * x[l * k + j] for l, coef in enumerate(row))
            out.append(s % mods[j])
    return tuple(out)


def kernel_set(rows: list[list[int]], mods: list[int], cols: int) -> set:
    zero = tuple(0 for _ in range(len(rows) * len(mods)))
    return {x for x in enum_power(mods, cols) if act(rows, mods, x) == zero}


def image_set(rows: list[list[int]], mods: list[int], cols: int) -> set:
    return {act(rows, mods, x) for x in enum_power(mods, cols)}


def eval_order_oracle(m1: list[list[int]], m2: list[list[int]], mods: list[int],
                      n1: int, n2: int) -> int:
    """|ker M(m2)| / |ker meet im M(m1)| by brute enumeration."""
    ker = kernel_set(m2, mods, n2)
    img = image_set(m1, mods, n1)
    return len(ker) // len(ker & img)


def member_oracle(m1: list[list[int]], m2: list[list[int]], mods: list[int],
                  n1: int, n2: int) -> bool:
    return kernel_set(m2, mods, n2) <= image_set(m1, mods, n1)


def mul_mod(x: tuple[int, ...], y: tuple[int, ...], p: int, q: int, r: int,
            n: int) -> tuple[int, ...]:
    """The row-major p x q matrix x times the q x r matrix y, mod n."""
    return tuple(sum(x[i * q + l] * y[l * r + j] for l in range(q)) % n
                 for i in range(p) for j in range(r))


def span_mod(gens: list[tuple[int, ...]], size: int, n: int) -> set:
    """Every integer combination of the tuples `gens`, mod n."""
    seen = {(0,) * size}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((s + t) % n for s, t in zip(v, g))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


# -- independent inverse oracle ------------------------------------------


def unimodular_inverse(rows: list[list[int]], n: int | None = None) -> list[list[int]]:
    """The inverse of the square int matrix `rows` over Z (n None) or Z/n,
    reduced to [0, n) over Z/n; ValueError unless its determinant is a
    unit there.

    Fraction-free (Bareiss) elimination of [m | I] over Z ends on the
    pivot d = +-det m, and y = d * m^-1 is integral (Cramer), so y_i =
    (d * b_i - sum_{j>i} a_ij * y_j) // a_ii is exact; m^-1 = y * d^-1."""
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise ValueError("inverse of a non-square matrix")
    a = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    prev = 1
    for p in range(k):
        if a[p][p] == 0:
            swap = next((i for i in range(p + 1, k) if a[i][p]), None)
            if swap is None:
                raise ValueError("singular matrix")
            a[p], a[swap] = a[swap], a[p]
        top, piv = a[p], a[p][p]
        for i in range(p + 1, k):
            f = a[i][p]
            a[i] = [0] * (p + 1) + [(x * piv - f * y) // prev
                                    for x, y in zip(a[i][p + 1:], top[p + 1:])]
        prev = piv
    d = prev
    if (d not in (1, -1)) if n is None else gcd(d, n) != 1:
        raise ValueError("matrix is not unimodular")
    y = [None] * k
    for i in reversed(range(k)):
        acc = [d * v for v in a[i][k:]]
        for j in range(i + 1, k):
            if a[i][j]:
                acc = [v - a[i][j] * w for v, w in zip(acc, y[j])]
        y[i] = [v // a[i][i] for v in acc]
    inv = d if n is None else pow(d, -1, n)
    return [[v * inv if n is None else v * inv % n for v in row] for row in y]
