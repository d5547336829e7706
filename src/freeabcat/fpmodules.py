"""Finitely presented modules, maps between them, and the six-term
kernel-cokernel sequence.

Every module built here is a quotient of spans in a free module,
span(gens) / span(zero), presented on its generators by `present_quotient`;
span containment is decided by one solve, `linalg.in_span`.
`kernel_of_action` gives generators of the kernel of a matrix acting on a
power of a module.

An FpModule is coker(relations): ambient_rank generators, one relation per
column.  Over Z/n the relations implicitly include n times each generator;
the eliminations of `linalg` work mod n, so they are never written out.

Invariant factors are the comparison currency everywhere: ascending
divisibility chains with units dropped and trailing zeros for free rank.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod

from .errors import DimensionMismatch, RingMismatch
from .linalg import (
    Matrix,
    RingSpec,
    Zmod,
    _Cached,
    _Value,
    block_diagonal,
    hstack,
    in_span,
    kron,
    preimage_gens,
    snf,
)


class FpModule(_Cached):
    """Cokernel presentation of a module over Z or Z/n; its invariant
    factors are kept with it once computed, and are not a field."""

    def __init__(self, ring: RingSpec, ambient_rank: int, relations: Matrix):
        vars(self).update(ring=ring, ambient_rank=ambient_rank, relations=relations)
        if relations.ring != ring:
            raise RingMismatch("relations over the wrong ring")
        if type(ambient_rank) is not int or relations.rows != ambient_rank:
            raise DimensionMismatch(f"relations need {ambient_rank} rows, got {relations.rows}")

    @classmethod
    def from_invariant_factors(cls, ring: RingSpec, factors) -> "FpModule":
        """Diagonal presentation; factors already canonical (non-units in a divisibility
        chain, >= 0 with 0 last over Z, divisors of n over Z/n) skip the Smith form."""
        factors, n = tuple(factors), ring.modulus
        out = cls(ring, len(factors), Matrix.diagonal(ring, factors))
        if all(d > 1 and n % d == 0 if n else d == 0 or d > 1 for d in factors) \
                and all(map(ring.divides, factors, factors[1:])):
            out.__dict__["invariant_factors"] = factors
        return out

    @classmethod
    def zero(cls, ring: RingSpec) -> "FpModule":
        return cls(ring, 0, Matrix.zeros(ring, 0, 0))

    @classmethod
    def free(cls, ring: RingSpec, rank: int) -> "FpModule":
        return cls(ring, rank, Matrix.zeros(ring, rank, 0))

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        """gcd(d, n) for each entry d of the Smith diagonal of the relations
        padded with zeros to one per generator, units dropped: 0 marks a
        free summand over Z, n one over Z/n."""
        n = self.ring.modulus or 0
        diag = snf(self.relations).diagonal(self.ambient_rank)
        return tuple([g for d in diag if (g := gcd(d, n)) != 1])

    @property
    def is_zero(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int | None:
        """Number of elements; None if infinite."""
        return None if 0 in self.invariant_factors else prod(self.invariant_factors)

    def direct_sum(self, other: "FpModule") -> "FpModule":
        if self.ring != other.ring:
            raise RingMismatch("direct sum over mixed rings")
        return FpModule(self.ring, self.ambient_rank + other.ambient_rank,
                        block_diagonal(self.relations, other.relations))


def _per_summand(x: _Cached, at, m: FpModule):
    """(d, at(x, R/d)) for each distinct cyclic summand R/d of m, in the
    order of m.invariant_factors; m is over x's ring.  R/d is the free
    rank-one module over the ring R/d: R itself for d = 0 over Z and d = n
    over Z/n, Z/d otherwise, and m is their direct sum with each R/d taken
    as often as d occurs in m.invariant_factors.  Each value is worked out
    on the first call for x, at and d and then kept in x's table, so it
    lives as long as x does; the pairs come lazily, so a caller may stop
    at any summand."""
    ring = m.ring
    for d in dict.fromkeys(m.invariant_factors):
        yield d, x._once((at, d), lambda: at(x, FpModule.free(
            ring if d in (0, ring.modulus) else Zmod(d), 1)))


def canonicalize(m: FpModule) -> FpModule:
    """Canonical diagonal presentation; idempotent, and equal invariant
    factors for any two presentations of isomorphic modules."""
    return FpModule.from_invariant_factors(m.ring, m.invariant_factors)


def kernel_of_action(u: Matrix, m: FpModule) -> Matrix:
    """Generators, in the free cover ring^(cols*rank), of the kernel of
    M^cols -> M^rows, x |-> u x; coordinates are `cols` consecutive blocks
    of size m.ambient_rank."""
    if u.ring != m.ring:
        raise RingMismatch("action matrix over the wrong ring")
    eye = Matrix.identity(m.ring, m.ambient_rank)
    return preimage_gens(kron(u, eye), kron(Matrix.identity(m.ring, u.rows), m.relations))


def present_quotient(gens: Matrix, inside: Matrix) -> FpModule:
    """span(gens) / (span(gens) meet span(inside)), canonicalized.

    Presented on the given generators: the relations are exactly the
    coefficient vectors u with gens @ u inside span(inside).
    """
    rel = preimage_gens(gens, inside)
    return canonicalize(FpModule(gens.ring, gens.cols, rel))


# -- maps between presented modules ---------------------------------------


def is_well_defined_map(f: Matrix, src: FpModule, dst: FpModule) -> bool:
    """The matrix on ambient generators sends relations into relations."""
    return in_span(f @ src.relations, dst.relations)


def _check_map(f: Matrix, src: FpModule, dst: FpModule, label: str):
    if f.ring != src.ring or src.ring != dst.ring:
        raise RingMismatch(f"{label}: mixed rings")
    if f.cols != src.ambient_rank or f.rows != dst.ambient_rank:
        raise DimensionMismatch(
            f"{label}: expected {dst.ambient_rank}x{src.ambient_rank}, "
            f"got {f.rows}x{f.cols}"
        )
    if not is_well_defined_map(f, src, dst):
        raise DimensionMismatch(f"{label}: matrix does not send relations into relations")


# -- the six-term kernel/cokernel sequence ---------------------------------


class SnakeSequence(_Value):
    """0 -> Ker f -> Ker gf -> Ker g -> Coker f -> Coker gf -> Coker g -> 0.

    Each term is a subquotient span(gens) / span(zero) of a free module,
    kept as the pair (gens, zero): a kernel is (its preimage generators
    with the source relations, the source relations), a cokernel is
    (I, the map with the target relations).  The five structural maps act
    on those free modules as (I, f, I, g, I); `modules` presents each term.
    """

    def __init__(self, terms: tuple[tuple[Matrix, Matrix], ...], maps: tuple[Matrix, ...],
                 modules: tuple[FpModule, ...]):
        vars(self).update(terms=terms, maps=maps, modules=modules)

    def order_identity_holds(self) -> bool:
        """|Ker f| |Ker g| |Coker gf| = |Ker gf| |Coker f| |Coker g| when all finite."""
        orders = [m.order() for m in self.modules]
        if any(o is None for o in orders):
            return True
        kf, kgf, kg, cf, cgf, cg = orders
        return kf * kg * cgf == kgf * cf * cg

    def verify_exact(self) -> bool:
        """At each interior term, the kernel of the outgoing map and the
        image of the incoming one span the same submodule modulo its zero."""
        for i in range(1, 5):
            (a, _), (b, zero), (_, next_zero) = self.terms[i - 1:i + 2]
            ker = hstack(b @ preimage_gens(self.maps[i] @ b, next_zero), zero)
            img = hstack(self.maps[i - 1] @ a, zero)
            if not (in_span(ker, img) and in_span(img, ker)):
                return False
        return True


def snake_sequence(f: Matrix, g: Matrix, m1: FpModule, m2: FpModule, m3: FpModule) -> SnakeSequence:
    """Kernel/cokernel six-term sequence of composable maps f: M1 -> M2,
    g: M2 -> M3 presented by matrices on ambient generators."""
    _check_map(f, m1, m2, "f")
    _check_map(g, m2, m3, "g")
    gf = g @ f
    r1, r2, r3 = m1.relations, m2.relations, m3.relations
    e1, e2, e3 = (Matrix.identity(f.ring, m.ambient_rank) for m in (m1, m2, m3))
    terms = (
        (hstack(preimage_gens(f, r2), r1), r1),
        (hstack(preimage_gens(gf, r3), r1), r1),
        (hstack(preimage_gens(g, r3), r2), r2),
        (e2, hstack(f, r2)),
        (e3, hstack(gf, r3)),
        (e3, hstack(g, r3)),
    )
    return SnakeSequence(
        terms=terms,
        maps=(e1, f, e2, g, e3),
        modules=tuple(present_quotient(gens, zero) for gens, zero in terms),
    )
