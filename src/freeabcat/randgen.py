"""Seeded generators for random test instances.

Commuting squares, strictly commuting triples, and well defined module
maps cannot be sampled entrywise; each is drawn as a random integer
combination of an exactly computed generating set, so every sample
satisfies its structural invariant by construction.
"""

from __future__ import annotations

import random

from .chains import ChainMorphism, ChainObject, hom_triple_gens, triple_from_vector
from .fpmodules import FpModule, hom_module_gens
from .linalg import Matrix, RingSpec, hstack, kernel_gens, kron, unvec_row
from .squares import FpSquare


def random_matrix(rng: random.Random, ring: RingSpec, rows: int, cols: int,
                  lo: int = -3, hi: int = 3) -> Matrix:
    return Matrix(ring, rows, cols,
                  tuple(ring.normalize(rng.randint(lo, hi)) for _ in range(rows * cols)))


def random_chain(rng: random.Random, ring: RingSpec, max_rank: int = 3,
                 bound: int = 3) -> ChainObject:
    n1, n2, n3 = (rng.randint(0, max_rank) for _ in range(3))
    return ChainObject(
        ring,
        random_matrix(rng, ring, n2, n1, -bound, bound),
        random_matrix(rng, ring, n3, n2, -bound, bound),
    )


def random_module(rng: random.Random, ring: RingSpec, max_rank: int = 3,
                  bound: int = 3) -> FpModule:
    rank = rng.randint(0, max_rank)
    rel = random_matrix(rng, ring, rank, rng.randint(0, max_rank), -bound, bound)
    return FpModule(ring, rank, rel)


def random_finite_module(rng: random.Random, ring: RingSpec,
                         max_rank: int = 2) -> FpModule:
    """Random module of finite cardinality (any module when the ring is
    already finite)."""
    if ring.is_modular:
        return random_module(rng, ring, max_rank=max_rank)
    factors = [rng.choice([2, 3, 4, 5, 6, 8, 9, 25]) for _ in range(rng.randint(0, max_rank))]
    return FpModule.from_invariant_factors(ring, factors)


def _random_combination(rng: random.Random, gens: Matrix, lo: int = -2,
                        hi: int = 2) -> Matrix:
    coeffs = random_matrix(rng, gens.ring, gens.cols, 1, lo, hi)
    return gens @ coeffs


def random_square(rng: random.Random, ring: RingSpec, max_rank: int = 3,
                  bound: int = 3) -> FpSquare:
    """Random commuting square: the verticals are free, the horizontals are
    a random point of the exact solution lattice of the commutation law."""
    tl, tr, bl, br = (rng.randint(0, max_rank) for _ in range(4))
    a = random_matrix(rng, ring, bl, tl, -bound, bound)
    b = random_matrix(rng, ring, br, tr, -bound, bound)
    eye = Matrix.identity
    system = hstack(kron(b, eye(ring, tl)), -kron(eye(ring, br), a.transpose()))
    sol = _random_combination(rng, kernel_gens(system))
    cut = tr * tl
    f = unvec_row(sol.submatrix(0, cut, 0, 1), tr, tl)
    g = unvec_row(sol.submatrix(cut, sol.rows, 0, 1), br, bl)
    return FpSquare(ring, f, a, b, g)


def random_morphism(rng: random.Random, src: ChainObject,
                    dst: ChainObject) -> ChainMorphism:
    vec = _random_combination(rng, hom_triple_gens(src, dst))
    return triple_from_vector(src, dst, vec)


def random_module_map(rng: random.Random, src: FpModule, dst: FpModule) -> Matrix:
    """Random well defined map src -> dst on ambient coordinates."""
    gens = hom_module_gens(src, dst)
    out = Matrix.zeros(src.ring, dst.ambient_rank, src.ambient_rank)
    for mat in gens:
        out = out + mat.scale(rng.randint(-2, 2))
    return out
