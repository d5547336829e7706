"""Seeded generators for random test instances.

Commuting squares, strictly commuting triples, and well defined module
maps cannot be sampled entrywise.  All three are chain morphisms, so every
draw is a `random_morphism`, built from a random combination of the
middles that extend, and satisfies its structural invariant by construction.
"""

from __future__ import annotations

import random

from .chains import ChainMorphism, ChainObject, _extend, _middles, _presented
from .fpmodules import FpModule
from .linalg import Matrix, RingSpec, snf
from .squares import FpSquare


def random_matrix(rng: random.Random, ring: RingSpec, rows: int, cols: int,
                  lo: int = -3, hi: int = 3) -> Matrix:
    return Matrix(ring, rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


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


def random_square(rng: random.Random, ring: RingSpec, max_rank: int = 3,
                  bound: int = 3) -> FpSquare:
    """Random commuting square: the verticals a and b are free, and b f = g a
    makes (f, g) a random morphism from the chain of a to that of b."""
    tl, tr, bl, br = (rng.randint(0, max_rank) for _ in range(4))
    a = random_matrix(rng, ring, bl, tl, -bound, bound)
    b = random_matrix(rng, ring, br, tr, -bound, bound)
    u = random_morphism(rng, _presented(a), _presented(b))
    return FpSquare(ring, u.a1, a, b, u.a2)


def random_morphism(rng: random.Random, src: ChainObject,
                    dst: ChainObject) -> ChainMorphism:
    """A random combination of `chains._middles`, extended from random z1
    and z3 (`chains._extend`) so that every commuting triple is reachable;
    coefficients and entries in [-2, 2]."""
    ring, a, b = src.ring, snf(dst.m1), snf(src.m2)
    mids = _middles(src, dst, a, b)
    return _extend(src, dst, a, b, mids @ random_matrix(rng, ring, mids.cols, 1, -2, 2),
                   random_matrix(rng, ring, dst.n1, src.n1, -2, 2),
                   random_matrix(rng, ring, dst.n3, src.n3, -2, 2))


def random_module_map(rng: random.Random, src: FpModule, dst: FpModule) -> Matrix:
    """Random well defined map src -> dst on ambient coordinates: F R_src =
    R_dst Y makes F the middle of a morphism between the presentations."""
    return random_morphism(rng, _presented(src.relations), _presented(dst.relations)).a2
