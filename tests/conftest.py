"""Shared fixtures and enumeration oracles.

The oracles work on plain integer tuples with explicit moduli so they do
not touch the package's linear algebra at all; anything they certify is
certified independently.
"""

from itertools import product

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
