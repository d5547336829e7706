"""The documented rejections: each constructor and operation refuses
operands over another ring, of the wrong shape, that break an invariant or
that name the wrong convention, with the error class its docstring names.
Each row pins the message of the one `raise` it reaches."""

import pytest

from freeabcat import (
    ChainMorphism,
    ChainObject,
    ConventionMismatch,
    DefinableFamily,
    DefinablePair,
    DimensionMismatch,
    FpModule,
    FpSquare,
    InvariantViolation,
    Matrix,
    RingMismatch,
    ZZ,
    Zmod,
    chain_member,
    compose,
    det,
    direct_sum_objects,
    evaluate_chain,
    evaluate_square,
    family_member,
    hom_group,
    identity_morphism,
    kernel_of_action,
    snake_sequence,
)

Z6 = Zmod(6)


def mat(rows, ring=ZZ):
    return Matrix.from_rows(ring, rows)


def one(ring=ZZ):
    return mat([[1]], ring)


def chain(ring=ZZ):
    """Z --2--> Z --3--> Z over `ring`."""
    return ChainObject(ring, mat([[2]], ring), mat([[3]], ring))


def free(ring=ZZ):
    return FpModule.free(ring, 1)


def square(f=None, a=None, b=None, g=None):
    """The identity square, with the given corners swapped in."""
    return FpSquare(ZZ, f or one(), a or one(), b or one(), g or one())


def other_chain():
    """Z --1--> Z --0--> Z: the ranks of `chain()`, other maps."""
    return ChainObject(ZZ, one(), mat([[0]]))


REJECTIONS = [
    # operands over another ring
    (RingMismatch, "chain matrices over the wrong ring",
     lambda: ChainObject(ZZ, one(Z6), one())),
    (RingMismatch, "morphism between chains over different rings",
     lambda: ChainMorphism(chain(), chain(Z6), one(), one(), one())),
    (RingMismatch, "morphism component over the wrong ring",
     lambda: ChainMorphism(chain(), chain(), one(Z6), one(), one())),
    (RingMismatch, "direct sum over mixed rings", lambda: direct_sum_objects(chain(), chain(Z6))),
    (RingMismatch, "direct sum over mixed rings", lambda: free().direct_sum(free(Z6))),
    (RingMismatch, "hom over mixed rings", lambda: hom_group(chain(), chain(Z6))),
    (RingMismatch, "relations over the wrong ring", lambda: FpModule(ZZ, 1, mat([[2]], Z6))),
    (RingMismatch, "action matrix over the wrong ring", lambda: kernel_of_action(one(Z6), free())),
    (RingMismatch, "f: mixed rings",
     lambda: snake_sequence(one(Z6), one(), free(), free(), free())),
    (RingMismatch, "square matrices over the wrong ring", lambda: square(b=one(Z6))),
    (RingMismatch, "chain and module over different rings",
     lambda: evaluate_chain(chain(), free(Z6))),
    (RingMismatch, "square and module over different rings",
     lambda: evaluate_square(square(), free(Z6))),
    (RingMismatch, "chain and module over different rings",
     lambda: chain_member(chain(), free(Z6))),
    (RingMismatch, "family and module over different rings",
     lambda: family_member(DefinableFamily(ZZ, (chain(),)), free(Z6))),
    (RingMismatch, "family member over the wrong ring",
     lambda: DefinableFamily(ZZ, (chain(Z6),))),
    (RingMismatch, "pair matrices over the wrong ring",
     lambda: DefinablePair(ZZ, one(), one(Z6), "column")),
    # operands of the wrong shape
    (DimensionMismatch, "m2 has 1 columns but m1 has 2 rows",
     lambda: ChainObject(ZZ, mat([[1], [2]]), one())),
    (DimensionMismatch, "difference of morphisms with different ends",
     lambda: identity_morphism(chain()) - identity_morphism(other_chain())),
    (DimensionMismatch, "composition ends do not meet",
     lambda: compose(identity_morphism(chain()), identity_morphism(other_chain()))),
    (DimensionMismatch, "g: expected 1x1, got 1x2",
     lambda: snake_sequence(one(), mat([[1, 0]]), free(), free(), free())),
    (DimensionMismatch, "f: matrix does not send relations into relations",
     lambda: snake_sequence(one(), one(), FpModule.from_invariant_factors(ZZ, [2]),
                            free(), free())),
    (DimensionMismatch, "f and a must share their source rank", lambda: square(a=mat([[1, 0]]))),
    (DimensionMismatch, "b must start where f ends", lambda: square(b=mat([[1, 0]]))),
    (DimensionMismatch, "g must start where a ends", lambda: square(g=mat([[1, 0]]))),
    (DimensionMismatch, "b and g must share their target rank", lambda: square(g=mat([[1], [0]]))),
    (DimensionMismatch, "shape mismatch in addition", lambda: one() + mat([[1, 0]])),
    (DimensionMismatch, "cannot compose 1x2 with 1x2", lambda: mat([[1, 0]]) @ mat([[1, 0]])),
    (DimensionMismatch, "determinant of a non-square matrix", lambda: det(mat([[1, 0]]))),
    # a broken invariant and a convention no constructor accepts
    (InvariantViolation, "second square does not commute strictly",
     lambda: ChainMorphism(chain(), chain(), one(), one(), mat([[2]]))),
    (ConventionMismatch, "unknown convention 'paper'",
     lambda: DefinablePair(ZZ, one(), one(), "paper")),
]


@pytest.mark.parametrize("error, message, build", REJECTIONS,
                         ids=[f"{e.__name__}: {m}" for e, m, _ in REJECTIONS])
def test_documented_rejections(error, message, build):
    with pytest.raises(error, match=message):
        build()


def test_order_identity_holds_when_a_term_is_infinite():
    """f = g = 0 on three copies of Z: all six terms are Z, of no finite
    order, and the identity of orders is vacuous."""
    zero = mat([[0]])
    snake = snake_sequence(zero, zero, free(), free(), free())
    assert [m.order() for m in snake.modules] == [None] * 6
    assert snake.order_identity_holds()
