"""Square/chain translation, module evaluation against brute enumeration,
the certified roundtrip, and evaluation on the default probe modules."""

import random
from collections import defaultdict
from itertools import product

import pytest

from freeabcat import (
    ChainObject,
    FpModule,
    FpSquare,
    InvariantViolation,
    Matrix,
    ZZ,
    Zmod,
    canonicalize,
    chain_to_square,
    direct_sum_objects,
    embed_rank,
    evaluate_chain,
    evaluate_square,
    is_isomorphism,
    is_zero_object,
    roundtrip_morphism,
    square_to_chain,
    zero_chain,
)
from freeabcat.randgen import (
    _presented,
    random_chain,
    random_matrix,
    random_module,
    random_morphism,
    random_square,
)
from freeabcat.suites import default_battery
from conftest import eval_order_oracle, mul_mod, span_mod

mat = Matrix.from_rows


def battery_profile(x: ChainObject) -> tuple:
    """Invariant factors of x evaluated on each default probe module."""
    return tuple(evaluate_chain(x, m).invariant_factors for m in default_battery(x.ring))


def test_square_constructor_requires_commutation():
    with pytest.raises(InvariantViolation):
        FpSquare(ZZ, mat(ZZ, [[1]]), mat(ZZ, [[1]]), mat(ZZ, [[1]]), mat(ZZ, [[2]]))


def test_square_to_chain_golden_blocks(sq_ex):
    chain = square_to_chain(sq_ex)
    assert chain.m1 == mat(ZZ, [[1], [-2]])
    assert chain.m2 == mat(ZZ, [[0, -1]])
    assert chain.ranks == (1, 2, 1)


def test_chain_to_square_reads_off_boundaries(x_ex):
    s = chain_to_square(x_ex)
    assert s.f == x_ex.m1
    assert s.b == x_ex.m2
    assert s.a == x_ex.m2 @ x_ex.m1
    assert s.g == Matrix.identity(ZZ, 1)
    assert s.ranks == (1, 2, 1, 1)


def test_evaluate_square_golden_on_z4(sq_ex):
    z4 = FpModule.from_invariant_factors(ZZ, [4])
    assert evaluate_square(sq_ex, z4).invariant_factors == (2,)


def test_evaluate_chain_against_enumeration(x_ex):
    cases = [
        ([2], 1), ([4], 2), ([2, 2], 1), ([3], 1), ([6], 2),
    ]
    for factors, _ in cases:
        m = FpModule.from_invariant_factors(ZZ, factors)
        got = evaluate_chain(x_ex, m)
        oracle = eval_order_oracle(
            x_ex.m1.to_rows(), x_ex.m2.to_rows(), factors, x_ex.n1, x_ex.n2)
        assert got.order() == oracle


def test_evaluate_random_small_chains_against_enumeration():
    rng = random.Random(20260819)
    for _ in range(30):
        x = random_chain(rng, ZZ, max_rank=2, bound=2)
        factors = rng.choice([[2], [4], [2, 2], [3]])
        m = FpModule.from_invariant_factors(ZZ, factors)
        got = evaluate_chain(x, m).order()
        oracle = eval_order_oracle(
            x.m1.to_rows(), x.m2.to_rows(), factors, x.n1, x.n2)
        assert got == oracle


def test_evaluation_respects_direct_sums():
    rng = random.Random(6)
    for _ in range(20):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x = random_chain(rng, ring, max_rank=2)
        y = random_chain(rng, ring, max_rank=2)
        m = random_module(rng, ring, max_rank=2)
        summed = evaluate_chain(direct_sum_objects(x, y), m)
        pieces = evaluate_chain(x, m).direct_sum(evaluate_chain(y, m))
        assert summed.invariant_factors == canonicalize(pieces).invariant_factors


def test_roundtrip_morphism_components(x_ex):
    u = roundtrip_morphism(x_ex)
    assert u.a1 == Matrix.identity(ZZ, 1)
    assert u.a2.submatrix(0, 2, 0, 2) == Matrix.identity(ZZ, 2)
    assert u.a2.submatrix(2, 3, 0, 2) == -x_ex.m2
    assert is_isomorphism(u)


def test_isomorphic_objects_share_battery_profiles():
    rng = random.Random(12)
    for _ in range(10):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x = random_chain(rng, ring, max_rank=2)
        u = roundtrip_morphism(x)
        assert battery_profile(u.src) == battery_profile(u.dst)


def test_default_battery_shapes():
    assert [m.invariant_factors for m in default_battery(ZZ)] == [
        (), (2,), (2, 2), (3,), (4,), (6,), (0,), (2, 0),
    ]
    assert [m.invariant_factors for m in default_battery(Zmod(4))] == [
        (), (2,), (4,), (2, 4),
    ]
    assert [m.invariant_factors for m in default_battery(Zmod(6))] == [
        (), (2,), (3,), (6,), (2, 6), (3, 6),
    ]


def test_battery_separates_basic_objects(x_ex):
    assert battery_profile(x_ex) != battery_profile(embed_rank(ZZ, 1))
    assert battery_profile(embed_rank(ZZ, 1)) != battery_profile(zero_chain(ZZ))
    assert not any(battery_profile(zero_chain(ZZ)))


def test_zero_object_vanishes_on_battery_but_not_conversely():
    """Vanishing on the battery is necessary for being the zero object and
    is not claimed sufficient: 5-torsion hides from every probe in the
    default list because no probe has order divisible by 5."""
    hidden = ChainObject(ZZ, Matrix.zeros(ZZ, 1, 0), mat(ZZ, [[5]]))
    assert not any(battery_profile(hidden))
    assert not is_zero_object(hidden)
    for ring in (ZZ, Zmod(4), Zmod(6)):
        assert not any(battery_profile(zero_chain(ring)))


def test_square_and_chain_evaluation_agree_on_mixed_fixture():
    ring = Zmod(6)
    s = FpSquare(ring,
                 mat(ring, [[2]]),
                 mat(ring, [[3]]),
                 mat(ring, [[3]]),
                 mat(ring, [[2]]))
    m = FpModule(ring, 2, mat(ring, [[2, 0], [0, 3]]))
    left = evaluate_square(s, m).invariant_factors
    right = evaluate_chain(square_to_chain(s), m).invariant_factors
    assert left == right


def test_square_and_chain_evaluation_agree_on_random_squares():
    rng = random.Random(77)
    for _ in range(25):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        s = random_square(rng, ring, max_rank=2)
        m = random_module(rng, ring, max_rank=2)
        left = evaluate_square(s, m).invariant_factors
        right = evaluate_chain(square_to_chain(s), m).invariant_factors
        assert left == right


DRAWS = 25


def test_presentation_morphisms_are_exactly_the_commuting_squares():
    """The (a1, a2) blocks of seeded `random_morphism` draws from the chain
    of a to that of b span every (f, g) with b f = g a mod n, found by
    enumeration with bare ints: the horizontals that `random_square` draws.
    f is fixed by g only up to ker(b), so this checks that the draw reaches
    that part too."""
    rng = random.Random(1919)
    nonzero = 0
    for _ in range(40):
        n = rng.choice([4, 6])
        tl, tr, bl, br = (rng.randint(0, 2) for _ in range(4))
        if tr * tl + br * bl > 4:  # at most n^4 pairs (f, g) to enumerate
            tl = bl = 1
        a, b = (random_matrix(rng, Zmod(n), *shape) for shape in ((bl, tl), (br, tr)))
        x, y = _presented(a), _presented(b)
        pairs = [random_morphism(rng, x, y) for _ in range(DRAWS)]
        reached = span_mod([u.a1.entries + u.a2.entries for u in pairs],
                           tr * tl + br * bl, n)
        by_ga = defaultdict(list)
        for g in product(range(n), repeat=br * bl):
            by_ga[mul_mod(g, a.entries, br, bl, tl, n)].append(g)
        want = {f + g for f in product(range(n), repeat=tr * tl)
                for g in by_ga[mul_mod(b.entries, f, br, tr, tl, n)]}
        assert reached == want
        nonzero += len(want) > 1
    assert nonzero > 10
