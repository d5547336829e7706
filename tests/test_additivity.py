"""Per-summand evaluation and membership against the whole-module path.

`evaluate_chain`, `evaluate_square` and `chain_member` work once per
distinct cyclic summand of the module.  The helpers below are the earlier
whole-module computations, kept here as a differential oracle: they act on
the module's own relations through kron(I, relations) and never split it.
"""

import random

from freeabcat import (
    ChainObject,
    DefinableFamily,
    FpModule,
    FpSquare,
    Matrix,
    ZZ,
    Zmod,
    chain_member,
    evaluate_chain,
    evaluate_square,
    family_member,
    kernel_gens,
    kernel_of_action,
    present_quotient,
    square_to_chain,
)
from freeabcat.linalg import hstack, in_span, kron
from freeabcat.randgen import random_chain, random_matrix, random_module, random_square

RINGS = (ZZ, Zmod(6), Zmod(8), Zmod(9), Zmod(12))

SCALE_ORDERS = {ZZ: (0, 2, 3, 4, 6), Zmod(6): (2, 3, 6), Zmod(8): (2, 4, 8),
                Zmod(9): (3, 9), Zmod(12): (2, 3, 4, 6, 12)}

# repeated summands, free summands over Z, the zero module, full Z/n summands
SHAPES = {
    ZZ: [[], [2, 2], [4, 4, 2], [0], [2, 0], [0, 0, 3], [2, 4], [3, 3, 6]],
    Zmod(6): [[], [2, 2], [6], [6, 6, 3], [2, 3], [3, 3, 2]],
    Zmod(8): [[], [2, 2], [4, 4, 2], [8], [8, 8, 2], [2, 4, 8]],
    Zmod(9): [[], [3, 3], [9], [9, 9, 3], [3, 9]],
    Zmod(12): [[], [2, 2], [4, 4, 2], [12], [12, 12, 4], [3, 4, 6, 6]],
}


def _whole_image(u: Matrix, m: FpModule) -> Matrix:
    """Image of M^cols -> M^rows under x |-> u x, with the relations of M^rows."""
    ring = u.ring
    return hstack(kron(u, Matrix.identity(ring, m.ambient_rank)),
                  kron(Matrix.identity(ring, u.rows), m.relations))


def whole_evaluate_chain(x: ChainObject, m: FpModule) -> FpModule:
    rel = kron(Matrix.identity(x.ring, x.n2), m.relations)
    return present_quotient(hstack(kernel_of_action(x.m2, m), rel), _whole_image(x.m1, m))


def whole_evaluate_square(s: FpSquare, m: FpModule) -> FpModule:
    ring = s.ring
    rel = kron(Matrix.identity(ring, s.top_right), m.relations)
    pushed = kron(s.f, Matrix.identity(ring, m.ambient_rank)) @ kernel_of_action(s.a, m)
    return present_quotient(hstack(kernel_of_action(s.b, m), rel), hstack(pushed, rel))


def whole_chain_member(x: ChainObject, m: FpModule) -> bool:
    return in_span(kernel_of_action(x.m2, m), _whole_image(x.m1, m))


def _modules(rng, ring):
    """The fixed shapes, then seeded modules with non-diagonal relations."""
    for shape in SHAPES[ring]:
        yield FpModule.from_invariant_factors(ring, shape)
    for _ in range(6):
        yield random_module(rng, ring, max_rank=3)


def test_per_summand_matches_whole_module_path():
    rng = random.Random(31337)
    verdicts = set()
    for ring in RINGS:
        for m in _modules(rng, ring):
            for _ in range(3):
                x = random_chain(rng, ring, max_rank=3)
                got = evaluate_chain(x, m)
                assert got == whole_evaluate_chain(x, m)
                member = chain_member(x, m)
                assert member == whole_chain_member(x, m) == got.is_zero
                verdicts.add(member)
                s = random_square(rng, ring, max_rank=2)
                assert evaluate_square(s, m) == whole_evaluate_square(s, m)
    assert verdicts == {True, False}


def test_kernel_of_action_on_free_rank_one_is_kernel_gens():
    # on R itself the action of u is u, so its kernel is kernel_gens(u) entry for entry
    rng = random.Random(5150)
    for ring in (ZZ, Zmod(8), Zmod(12)):
        for _ in range(25):
            u = random_matrix(rng, ring, rng.randint(0, 6), rng.randint(0, 6))
            assert kernel_of_action(u, FpModule.free(ring, 1)) == kernel_gens(u)


def test_evaluation_on_a_cyclic_summand_is_the_quotient_of_kernel_gens():
    # F_X(R/d) = ker m2 / im m1 with both matrices read over the ring R/d
    rng = random.Random(8128)
    for ring in (ZZ, Zmod(8), Zmod(12)):
        for d in SCALE_ORDERS[ring]:
            summand = ring if d in (0, ring.modulus) else Zmod(d)
            for _ in range(6):
                x = random_chain(rng, ring, max_rank=4)
                m1, m2 = x.m1.reduce(summand), x.m2.reduce(summand)
                got = evaluate_chain(x, FpModule.from_invariant_factors(ring, [d]))
                assert got.invariant_factors == \
                    present_quotient(kernel_gens(m2), m1).invariant_factors, (ring, d)


def test_repeated_summands_count_with_multiplicity():
    # X_ex sends M to M / M[2], so Z/4 gives Z/2, Z/2 gives 0 and Z gives Z
    x = ChainObject(ZZ, Matrix.from_rows(ZZ, [[-1], [2]]), Matrix.from_rows(ZZ, [[0, -1]]))
    cases = (([4], (2,)), ([4, 4], (2, 2)), ([4, 4, 2], (2, 2)), ([4, 0, 0], (2, 0, 0)),
             ([2, 2], ()))
    for shape, factors in cases:
        m = FpModule.from_invariant_factors(ZZ, shape)
        assert evaluate_chain(x, m).invariant_factors == factors
        assert evaluate_chain(x, m) == whole_evaluate_chain(x, m)


def test_membership_needs_every_distinct_summand():
    # the first distinct summand is a member and a later one is not
    x = ChainObject(ZZ, Matrix.from_rows(ZZ, [[-1], [2]]), Matrix.from_rows(ZZ, [[0, -1]]))
    for shape, member in (([2, 2], True), ([2, 4], False), ([2, 0], False), ([], True)):
        m = FpModule.from_invariant_factors(ZZ, shape)
        assert chain_member(x, m) is member
        assert whole_chain_member(x, m) is member
        assert family_member(DefinableFamily(ZZ, (x,)), m) is member


def test_member_at_cliff_size():
    # Z/12, chain ranks 10/10/10, 12 cyclic summands, drawn until a member
    rng = random.Random(1)
    ring = Zmod(12)
    verdicts = []
    for _ in range(8):
        x = ChainObject(ring, random_matrix(rng, ring, 10, 10), random_matrix(rng, ring, 10, 10))
        m = FpModule.from_invariant_factors(
            ring, [rng.choice(SCALE_ORDERS[ring]) for _ in range(12)])
        member = chain_member(x, m)
        assert member == evaluate_chain(x, m).is_zero
        verdicts.append(member)
        if member:
            break
    assert verdicts[-1] is True


def _factored_square(rng, ring, tl, tr, bl, br) -> FpSquare:
    """Commuting square with a = c f and b = g c for a random c."""
    f = random_matrix(rng, ring, tr, tl)
    c = random_matrix(rng, ring, bl, tr)
    g = random_matrix(rng, ring, br, bl)
    return FpSquare(ring, f, c @ f, g @ c, g)


def test_square_and_chain_evaluation_agree_at_scale():
    rng = random.Random(2718)
    for ring in RINGS:
        orders = SCALE_ORDERS[ring]
        m = FpModule.from_invariant_factors(ring, [rng.choice(orders) for _ in range(6)])
        ranks = [rng.randint(6, 8) for _ in range(4)]
        s = _factored_square(rng, ring, *ranks)
        assert evaluate_square(s, m) == evaluate_chain(square_to_chain(s), m)
