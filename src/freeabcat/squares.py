"""Commuting squares of maps between free modules, their equivalence with
three-term chains, and evaluation of both shapes on finitely presented
modules.

A square records f: R^x1 -> R^x2 on top, g: R^y1 -> R^y2 on the bottom and
vertical maps a: R^x1 -> R^y1, b: R^x2 -> R^y2 with b f = g a.  Squares and
chains present the same objects: `square_to_chain` and `chain_to_square`
translate back and forth, and `roundtrip_morphism` exhibits the composite
as naturally isomorphic to the identity.

Evaluation is additive in the module: F(M + N) = F(M) + F(N).  So
`evaluate_chain` and `evaluate_square` work once per distinct cyclic
summand R/d of the module and direct-sum the parts, instead of acting on
the whole module's relations.  Each summand is evaluated as the free
rank-one module over the ring R/d, with the chain's matrices reduced to
that ring, so no relation d*I enters an elimination.  There the image of a
matrix is its own column span, so a chain evaluates to
present_quotient(kernel_of_action(m2, R/d), m1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import ChainMorphism, ChainObject
from .errors import DimensionMismatch, InvariantViolation, RingMismatch
from .fpmodules import FpModule, canonicalize, cyclic_summands, kernel_of_action, present_quotient
from .linalg import Matrix, RingSpec, block, vstack


@dataclass(frozen=True)
class FpSquare:
    ring: RingSpec
    f: Matrix
    a: Matrix
    b: Matrix
    g: Matrix

    def __post_init__(self):
        for mat in (self.f, self.a, self.b, self.g):
            if mat.ring != self.ring:
                raise RingMismatch("square matrices over the wrong ring")
        if self.a.cols != self.f.cols:
            raise DimensionMismatch("f and a must share their source rank")
        if self.b.cols != self.f.rows:
            raise DimensionMismatch("b must start where f ends")
        if self.g.cols != self.a.rows:
            raise DimensionMismatch("g must start where a ends")
        if self.g.rows != self.b.rows:
            raise DimensionMismatch("b and g must share their target rank")
        if self.b @ self.f != self.g @ self.a:
            raise InvariantViolation("square does not commute")

    @property
    def top_left(self) -> int:
        return self.f.cols

    @property
    def top_right(self) -> int:
        return self.f.rows

    @property
    def bottom_left(self) -> int:
        return self.a.rows

    @property
    def bottom_right(self) -> int:
        return self.b.rows

    @property
    def ranks(self) -> tuple[int, int, int, int]:
        return (self.top_left, self.top_right, self.bottom_left, self.bottom_right)


def square_to_chain(s: FpSquare) -> ChainObject:
    """Chain on the stacked corners: the middle rank is top_right +
    bottom_left, and evaluation is preserved."""
    ring = s.ring
    bl = s.bottom_left
    m1 = vstack(s.f, -s.a)
    m2 = block([
        [s.b, s.g],
        [Matrix.zeros(ring, bl, s.top_right), -Matrix.identity(ring, bl)],
    ])
    return ChainObject(ring, m1, m2)


def chain_to_square(x: ChainObject) -> FpSquare:
    """Square with top edge m1, bottom edge the identity on R^n3."""
    return FpSquare(x.ring, x.m1, x.m2 @ x.m1, x.m2, Matrix.identity(x.ring, x.n3))


def roundtrip_morphism(x: ChainObject) -> ChainMorphism:
    """Natural map x -> square_to_chain(chain_to_square(x)); an isomorphism."""
    ring = x.ring
    target = square_to_chain(chain_to_square(x))
    return ChainMorphism(
        x, target,
        Matrix.identity(ring, x.n1),
        vstack(Matrix.identity(ring, x.n2), -x.m2),
        vstack(Matrix.zeros(ring, x.n3, x.n3), Matrix.identity(ring, x.n3)),
    )


# -- evaluation on finitely presented modules ------------------------------


def _additively(evaluate_on, thing, m: FpModule) -> FpModule:
    """Direct sum over the cyclic summands R/d of m of evaluate_on(thing, R/d),
    each computed once per distinct d, over the ring R/d; its factors are
    canonical, so a single summand takes no combining Smith form."""
    parts = {d: evaluate_on(thing, c).invariant_factors for d, c in cyclic_summands(m).items()}
    return canonicalize(FpModule.from_invariant_factors(
        m.ring, [e for d in m.invariant_factors for e in parts[d]]))


def _evaluate_chain_on(x: ChainObject, c: FpModule) -> FpModule:
    m1, m2 = x.m1.reduce(c.ring), x.m2.reduce(c.ring)
    return present_quotient(kernel_of_action(m2, c), m1)


def _evaluate_square_on(s: FpSquare, c: FpModule) -> FpModule:
    f, a, b = (u.reduce(c.ring) for u in (s.f, s.a, s.b))
    return present_quotient(kernel_of_action(b, c), f @ kernel_of_action(a, c))


def evaluate_chain(x: ChainObject, m: FpModule) -> FpModule:
    """ker M(m2) / image of M(m1), a subquotient of M^n2, canonicalized.

    Additive in m: computed on each distinct cyclic summand of m and
    direct-summed with the multiplicities of m's invariant factors.
    """
    if x.ring != m.ring:
        raise RingMismatch("chain and module over different rings")
    return _additively(_evaluate_chain_on, x, m)


def evaluate_square(s: FpSquare, m: FpModule) -> FpModule:
    """ker M(b) / f(ker M(a)), a subquotient of M^top_right, canonicalized.

    Additive in m, like `evaluate_chain`.
    """
    if s.ring != m.ring:
        raise RingMismatch("square and module over different rings")
    return _additively(_evaluate_square_on, s, m)
