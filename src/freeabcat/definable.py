"""Membership predicates cut out by chains, matrix pairs, and families.

A chain X carries two predicates on finitely presented modules: the direct
one (kernel of the second action contained in the image of the first) and
the dual one (the same test against the transposed chain).  Matrix pairs
are a thinner syntax for the same data; two layout conventions are
supported and both reduce to the chain test, so they agree extensionally.

Membership is additive, so a chain's verdict at each cyclic summand R/d is
kept in the chain's own table (`linalg._Cached`, beside its evaluations;
see `squares`): it lives and dies with the chain object, and testing one
chain against many modules decides each R/d once.
"""

from __future__ import annotations

from .chains import ChainMorphism, ChainObject
from .errors import ConventionMismatch, DimensionMismatch, RingMismatch
from .fpmodules import FpModule, _per_summand, kernel_of_action
from .linalg import Matrix, RingSpec, _Cached, _Value, in_span
from .squares import FpSquare, chain_to_square, square_to_chain

COLUMN = "column"
PAPER_ROW = "paper-row"

_CONVENTION_ALIASES = {
    "column": COLUMN,
    "paper-row": PAPER_ROW,
    "paper": PAPER_ROW,
    "row": PAPER_ROW,
}


def normalize_convention(token: str) -> str:
    try:
        return _CONVENTION_ALIASES[token]
    except KeyError:
        raise ConventionMismatch(f"unknown convention {token!r}") from None


# -- membership tests ------------------------------------------------------


def chain_member(x: ChainObject, m: FpModule) -> bool:
    """Does ker M(m2) lie inside the image of M(m1)?

    Membership is additive: m is a member exactly when each of its cyclic
    summands R/d is, and the test stops at the first that is not.  Decided
    by one linear solve per distinct summand over the ring R/d, for all its
    kernel generators at once, unless x's table already holds the verdict
    at R/d; this is the raw containment test, not a comparison of
    canonical forms.
    """
    if x.ring != m.ring:
        raise RingMismatch("chain and module over different rings")
    return all(member for _d, member in _per_summand(x, _member_at, m))


def _member_at(x: ChainObject, c: FpModule) -> bool:
    return in_span(kernel_of_action(x.m2.reduce(c.ring), c), x.m1.reduce(c.ring))


def dual_member(x: ChainObject, m: FpModule) -> bool:
    """Membership for the transposed chain."""
    return chain_member(dual_chain(x), m)


class DefinableFamily(_Value):
    """Conjunction of chain predicates; empty families accept everything."""

    def __init__(self, ring: RingSpec, members: tuple[ChainObject, ...]):
        vars(self).update(ring=ring, members=members)
        for x in members:
            if x.ring != ring:
                raise RingMismatch("family member over the wrong ring")


def family_member(fam: DefinableFamily, m: FpModule) -> bool:
    if fam.ring != m.ring:
        raise RingMismatch("family and module over different rings")
    return all(chain_member(x, m) for x in fam.members)


# -- matrix pairs ----------------------------------------------------------


class DefinablePair(_Cached):
    """Pair of composable matrices with a layout convention.

    column:    u is the outgoing map and v the incoming one; the predicate
               is ker M(u) inside im M(v) on column vectors.
    paper-row: u, v act on row vectors and the chain is read off the
               transposes; the membership test is ker M(v^T) inside
               im M(u^T).

    Only `pair_to_chain` and `chain_to_pair` spell out the layout.
    """

    def __init__(self, ring: RingSpec, u: Matrix, v: Matrix, convention: str):
        vars(self).update(ring=ring, u=u, v=v, convention=convention)
        if u.ring != ring or v.ring != ring:
            raise RingMismatch("pair matrices over the wrong ring")
        if convention not in (COLUMN, PAPER_ROW):
            raise ConventionMismatch(f"unknown convention {convention!r}")
        if u.cols != v.rows:
            raise DimensionMismatch(f"u has {u.cols} columns but v has {v.rows} rows")


def pair_to_chain(p: DefinablePair) -> ChainObject:
    """The chain of p, built on the first call and kept in p's table."""
    if p.convention == COLUMN:
        return p._once(pair_to_chain, lambda: ChainObject(p.ring, p.v, p.u))
    return p._once(pair_to_chain, lambda: ChainObject(p.ring, p.u.transpose(), p.v.transpose()))


def chain_to_pair(x: ChainObject, convention: str = PAPER_ROW) -> DefinablePair:
    convention = normalize_convention(convention)
    if convention == COLUMN:
        return DefinablePair(x.ring, x.m2, x.m1, COLUMN)
    return DefinablePair(x.ring, x.m1.transpose(), x.m2.transpose(), PAPER_ROW)


def pair_member(p: DefinablePair, m: FpModule) -> bool:
    """Both conventions reduce to the chain test on pair_to_chain."""
    return chain_member(pair_to_chain(p), m)


# -- duality ---------------------------------------------------------------


def dual_chain(x: ChainObject) -> ChainObject:
    """Reverse the chain through transposes, kept in x's table; an
    involution up to equality (the dual's table does not hold x)."""
    return x._once(dual_chain, lambda: ChainObject(x.ring, x.m2.transpose(), x.m1.transpose()))


def dual_morphism(u: ChainMorphism) -> ChainMorphism:
    """Contravariant on arrows: dual_chain(dst) -> dual_chain(src)."""
    return ChainMorphism(
        dual_chain(u.dst), dual_chain(u.src),
        u.a3.transpose(), u.a2.transpose(), u.a1.transpose(),
    )


def dual_pair(p: DefinablePair) -> DefinablePair:
    """Defined for the row convention only, where it swaps the two matrices
    up to transpose."""
    if p.convention != PAPER_ROW:
        raise ConventionMismatch("dual pairs are defined for the paper-row convention")
    return chain_to_pair(dual_chain(pair_to_chain(p)), PAPER_ROW)


def dual_square(s: FpSquare) -> FpSquare:
    return chain_to_square(dual_chain(square_to_chain(s)))
