"""Membership predicates, matrix-pair conventions, duals, and families."""

import random

import pytest

from freeabcat import (
    COLUMN,
    PAPER_ROW,
    ChainObject,
    ConventionMismatch,
    DefinableFamily,
    DefinablePair,
    FpModule,
    Matrix,
    ZZ,
    Zmod,
    chain_member,
    chain_to_pair,
    direct_sum_objects,
    dual_chain,
    dual_member,
    dual_pair,
    dual_square,
    evaluate_chain,
    evaluate_square,
    family_member,
    hstack,
    kernel_of_action,
    kron,
    normalize_convention,
    pair_member,
    pair_to_chain,
    solve_linear,
    zero_chain,
)
from freeabcat.randgen import (
    random_chain,
    random_finite_module,
    random_matrix,
    random_module,
    random_square,
)
from freeabcat.suites import default_battery
from conftest import member_oracle

mat = Matrix.from_rows


def test_normalize_convention_aliases():
    assert normalize_convention("column") == COLUMN
    assert normalize_convention("paper-row") == PAPER_ROW
    assert normalize_convention("paper") == PAPER_ROW
    assert normalize_convention("row") == PAPER_ROW
    with pytest.raises(ConventionMismatch):
        normalize_convention("diagonal")


def test_golden_pair_read_off(x_ex):
    p = chain_to_pair(x_ex)
    assert p.convention == PAPER_ROW
    assert p.u == mat(ZZ, [[-1, 2]])
    assert p.v == mat(ZZ, [[0], [-1]])

    q = chain_to_pair(x_ex, COLUMN)
    assert q.u == x_ex.m2
    assert q.v == x_ex.m1


def test_pair_to_chain_roundtrip_both_conventions(x_ex):
    for conv in (PAPER_ROW, COLUMN):
        p = chain_to_pair(x_ex, conv)
        back = pair_to_chain(p)
        assert back.m1 == x_ex.m1
        assert back.m2 == x_ex.m2


def test_conventions_carve_out_the_same_class():
    rng = random.Random(20260819)
    for _ in range(25):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x = random_chain(rng, ring, max_rank=2)
        row = chain_to_pair(x, PAPER_ROW)
        col = chain_to_pair(x, COLUMN)
        for m in default_battery(ring):
            want = chain_member(x, m)
            assert pair_member(row, m) == want
            assert pair_member(col, m) == want


def test_membership_against_enumeration(x_ex):
    profiles = [
        ([2], True), ([4], False), ([2, 2], True), ([3], False), ([6], False),
    ]
    for factors, want in profiles:
        m = FpModule.from_invariant_factors(ZZ, factors)
        assert chain_member(x_ex, m) is want
        assert want == member_oracle(
            x_ex.m1.to_rows(), x_ex.m2.to_rows(), factors, x_ex.n1, x_ex.n2)


def test_membership_random_chains_against_enumeration():
    rng = random.Random(4242)
    for _ in range(30):
        x = random_chain(rng, ZZ, max_rank=2, bound=2)
        factors = rng.choice([[2], [3], [4], [2, 2]])
        m = FpModule.from_invariant_factors(ZZ, factors)
        assert chain_member(x, m) == member_oracle(
            x.m1.to_rows(), x.m2.to_rows(), factors, x.n1, x.n2)


def _member_per_generator(x, m):
    """Oracle: the containment decided one kernel generator at a time."""
    ring = x.ring
    ker = kernel_of_action(x.m2, m)
    rel = hstack(kron(x.m1, Matrix.identity(ring, m.ambient_rank)),
                 kron(Matrix.identity(ring, x.n2), m.relations))
    return all(solve_linear(rel, ker.column(j)) is not None for j in range(ker.cols))


def test_chain_member_matches_per_generator_loop_and_evaluation():
    rng = random.Random(60221)
    summands = {ZZ: [0, 2, 3, 4, 6], Zmod(8): [2, 4, 8], Zmod(12): [2, 3, 4, 6, 12]}
    verdicts = set()
    for ring, orders in summands.items():
        for _ in range(8):
            n2 = rng.randint(2, 6)
            n1, n3 = rng.randint(0, 3), rng.randint(1, 3)
            x = ChainObject(ring, random_matrix(rng, ring, n2, n1),
                            random_matrix(rng, ring, n3, n2))
            m = FpModule.from_invariant_factors(
                ring, [rng.choice(orders) for _ in range(rng.randint(2, 4))])
            got = chain_member(x, m)
            assert got == _member_per_generator(x, m)
            assert got == evaluate_chain(x, m).is_zero
            verdicts.add(got)
    assert verdicts == {True, False}


def test_dual_membership_fixture(x_ex):
    assert dual_member(x_ex, FpModule.from_invariant_factors(ZZ, [2]))
    assert not dual_member(x_ex, FpModule.from_invariant_factors(ZZ, [3]))
    assert dual_member(x_ex, FpModule.from_invariant_factors(ZZ, []))


def test_primal_and_dual_classes_can_differ():
    # 0 -> R -2-> R: the direct class is "no 2-torsion", the dual class
    # is "2-divisible"; the free module of rank one separates them.
    x = ChainObject(ZZ, Matrix.zeros(ZZ, 1, 0), mat(ZZ, [[2]]))
    free = FpModule.from_invariant_factors(ZZ, [0])
    assert chain_member(x, free)
    assert not dual_member(x, free)
    three = FpModule.from_invariant_factors(ZZ, [3])
    assert chain_member(x, three) and dual_member(x, three)


def test_agj_duality_on_finite_modules():
    """Auslander-Gruson-Jensen: F_dX(M^v) = F_X(M)^v for the character dual
    M^v = Hom(M, Q/Z).  A finite module is isomorphic to its character dual,
    so on finite modules x and dual_chain(x) evaluate alike and agree on
    membership."""
    rng = random.Random(2411)
    rings = (ZZ, Zmod(4), Zmod(6), Zmod(9), Zmod(12))
    for i in range(200):
        ring = rings[i % len(rings)]
        x = random_chain(rng, ring, max_rank=4)
        m = random_finite_module(rng, ring, max_rank=3)
        assert evaluate_chain(dual_chain(x), m).invariant_factors == \
            evaluate_chain(x, m).invariant_factors, (i, x, m)
        assert dual_member(x, m) == chain_member(x, m), (i, x, m)


def test_dual_chain_is_involutive():
    rng = random.Random(99)
    for _ in range(20):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x = random_chain(rng, ring, max_rank=3)
        d = dual_chain(x)
        assert d.ranks == (x.n3, x.n2, x.n1)
        assert dual_chain(d) == x


def test_dual_pair_requires_row_convention(x_ex):
    col = chain_to_pair(x_ex, COLUMN)
    with pytest.raises(ConventionMismatch):
        dual_pair(col)
    row = chain_to_pair(x_ex, PAPER_ROW)
    dd = dual_pair(dual_pair(row))
    assert dd.u == row.u and dd.v == row.v


def test_dual_pair_membership_matches_dual_chain():
    rng = random.Random(7)
    for _ in range(20):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x = random_chain(rng, ring, max_rank=2)
        p = chain_to_pair(x, PAPER_ROW)
        swapped = dual_pair(p)
        for m in default_battery(ring):
            assert pair_member(swapped, m) == dual_member(x, m)


def test_dual_square_double_application_preserves_evaluations():
    rng = random.Random(13)
    for _ in range(10):
        ring = rng.choice([ZZ, Zmod(4)])
        s = random_square(rng, ring, max_rank=2)
        again = dual_square(dual_square(s))
        for m in default_battery(ring):
            assert (evaluate_square(s, m).invariant_factors
                    == evaluate_square(again, m).invariant_factors)


def test_degenerate_pair_detects_only_zero_modules():
    p = DefinablePair(ZZ, Matrix.zeros(ZZ, 0, 1), Matrix.zeros(ZZ, 1, 0),
                      convention=PAPER_ROW)
    zero = FpModule.from_invariant_factors(ZZ, [])
    two = FpModule.from_invariant_factors(ZZ, [2])
    assert pair_member(p, zero)
    assert not pair_member(p, two)
    # enumeration over Z/2: the kernel of the 0x1 map is everything,
    # the image of the 1x0 map is only the origin
    assert not member_oracle([[]], [], [2], 0, 1)


def test_family_is_a_conjunction(x_ex):
    only_zero = pair_to_chain(DefinablePair(
        ZZ, Matrix.zeros(ZZ, 0, 1), Matrix.zeros(ZZ, 1, 0), PAPER_ROW))
    fam = DefinableFamily(ZZ, (x_ex, only_zero))
    assert family_member(fam, FpModule.from_invariant_factors(ZZ, []))
    assert not family_member(fam, FpModule.from_invariant_factors(ZZ, [2]))
    loose = DefinableFamily(ZZ, (x_ex,))
    assert family_member(loose, FpModule.from_invariant_factors(ZZ, [2]))


def test_empty_family_accepts_everything():
    fam = DefinableFamily(ZZ, ())
    for m in default_battery(ZZ):
        assert family_member(fam, m)


def test_membership_closed_under_direct_sum_fixture(x_ex):
    m = FpModule.from_invariant_factors(ZZ, [2])
    n = FpModule.from_invariant_factors(ZZ, [2, 2])
    assert chain_member(x_ex, m.direct_sum(n))
    bad = FpModule.from_invariant_factors(ZZ, [4])
    assert not chain_member(x_ex, m.direct_sum(bad))


def test_membership_closed_under_chain_sum():
    rng = random.Random(31)
    for _ in range(15):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x = random_chain(rng, ring, max_rank=2)
        y = random_chain(rng, ring, max_rank=2)
        m = random_module(rng, ring, max_rank=2)
        both = chain_member(x, m) and chain_member(y, m)
        assert chain_member(direct_sum_objects(x, y), m) == both


def test_zero_chain_accepts_everything():
    for ring in (ZZ, Zmod(4), Zmod(6)):
        for m in default_battery(ring):
            assert chain_member(zero_chain(ring), m)
            assert dual_member(zero_chain(ring), m)
