"""Finitely presented modules: canonical forms, quotients of spans, maps, and the
six-term kernel-cokernel sequence, checked against brute enumeration.
"""

import dataclasses
import random
from itertools import product
from math import gcd

import pytest

from freeabcat import (
    DimensionMismatch,
    FpModule,
    Matrix,
    ZZ,
    Zmod,
    canonicalize,
    hstack,
    kernel_of_action,
    kron,
    preimage_gens,
    present_quotient,
    snake_sequence,
)
from freeabcat.chains import _middles
from freeabcat.fpmodules import is_well_defined_map
from freeabcat.linalg import snf
from freeabcat.randgen import _presented, random_finite_module, random_module, random_module_map
from conftest import image_set, kernel_set, mul_mod, span_mod, unimodular_inverse

mat = Matrix.from_rows


def test_invariant_factor_fixtures():
    assert FpModule(ZZ, 1, mat(ZZ, [[4]])).invariant_factors == (4,)
    assert FpModule(ZZ, 2, mat(ZZ, [[2, 0], [0, 3]])).invariant_factors == (6,)
    assert FpModule.free(ZZ, 1).invariant_factors == (0,)
    assert FpModule.zero(ZZ).invariant_factors == ()
    assert FpModule(ZZ, 2, mat(ZZ, [[2, 0], [0, 0]], cols=2)).invariant_factors == (2, 0)
    # over Z/n the ambient relations n*I are implicit
    assert FpModule(Zmod(4), 1, Matrix.zeros(Zmod(4), 1, 0)).invariant_factors == (4,)
    assert FpModule(Zmod(6), 1, mat(Zmod(6), [[2]])).invariant_factors == (2,)


def test_canonicalize_is_idempotent_and_sorted_by_divisibility():
    rng = random.Random(20260819)
    for _ in range(60):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        rank, nrel = rng.randint(0, 3), rng.randint(0, 3)
        rel = Matrix(ring, rank, nrel,
                     tuple(rng.randint(-9, 9) for _ in range(rank * nrel)))
        m = FpModule(ring, rank, rel)
        canon = canonicalize(m)
        assert canon == canonicalize(canon)
        assert canon.invariant_factors == m.invariant_factors
        factors = [d for d in canon.invariant_factors if d != 0]
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_canonicalize_reuses_the_factors_it_was_built_from(monkeypatch):
    from freeabcat import linalg

    calls = []
    real_snf_int = linalg._snf_int
    monkeypatch.setattr(linalg, "_snf_int", lambda m, *rest: calls.append(m) or real_snf_int(m, *rest))
    rng = random.Random(20261018)
    for _ in range(40):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        rank, nrel = rng.randint(0, 3), rng.randint(0, 3)
        rel = Matrix(ring, rank, nrel,
                     tuple(rng.randint(-9, 9) for _ in range(rank * nrel)))
        m = FpModule(ring, rank, rel)
        factors, zero, order = m.invariant_factors, m.is_zero, m.order()
        calls.clear()
        canon = canonicalize(m)
        assert (canon.invariant_factors, canon.is_zero, canon.order()) == (factors, zero, order)
        assert calls == []
        # the reused factors are what a fresh SNF of the diagonal gives
        fresh = FpModule(ring, canon.ambient_rank, canon.relations)
        assert fresh.invariant_factors == factors
        assert len(calls) == 1


def test_from_invariant_factors_records_only_canonical_factors(monkeypatch):
    from freeabcat import linalg

    calls = []
    real_snf_int = linalg._snf_int
    monkeypatch.setattr(linalg, "_snf_int", lambda m, *rest: calls.append(m) or real_snf_int(m, *rest))

    def factors_and_snf_calls(ring, factors):
        calls.clear()
        m = FpModule.from_invariant_factors(ring, factors)
        got, n_calls = m.invariant_factors, len(calls)
        # whatever was recorded is what a fresh SNF of the diagonal gives
        assert FpModule(ring, m.ambient_rank, m.relations).invariant_factors == got
        return got, n_calls

    assert factors_and_snf_calls(ZZ, [2, 4, 0]) == ((2, 4, 0), 0)
    assert factors_and_snf_calls(Zmod(12), [2, 6, 12]) == ((2, 6, 12), 0)
    assert factors_and_snf_calls(ZZ, [4, 2]) == ((2, 4), 1)
    assert factors_and_snf_calls(ZZ, [-2]) == ((2,), 1)
    assert factors_and_snf_calls(ZZ, [1, 2]) == ((2,), 1)
    assert factors_and_snf_calls(ZZ, [0, 2]) == ((2, 0), 1)
    assert factors_and_snf_calls(Zmod(12), [8]) == ((4,), 1)
    assert factors_and_snf_calls(Zmod(12), [0]) == ((12,), 1)
    # recorded exactly when the input already is its own invariant factors
    rng = random.Random(20261019)
    for _ in range(200):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6), Zmod(12)])
        factors = [rng.choice([-2, 0, 1, 2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(0, 3))]
        got, n_calls = factors_and_snf_calls(ring, factors)
        assert (n_calls == 0) == (got == tuple(factors))


def test_invariant_factors_survive_presentation_changes():
    """Row ops are ambient basis changes, column ops recombine relations,
    and redundant relation columns are free; none may change the module."""
    rng = random.Random(99)
    for _ in range(40):
        rank, nrel = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(nrel)] for _ in range(rank)]
        base = FpModule(ZZ, rank, mat(ZZ, rows, cols=nrel)).invariant_factors

        twisted = [row[:] for row in rows]
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i != j:
            q = rng.randint(-2, 2)
            for col in range(nrel):
                twisted[i][col] += q * twisted[j][col]
        assert FpModule(ZZ, rank, mat(ZZ, twisted, cols=nrel)).invariant_factors == base

        recombined = [row[:] for row in rows]
        a, b = rng.randrange(nrel), rng.randrange(nrel)
        if a != b:
            q = rng.randint(-2, 2)
            for r in range(rank):
                recombined[r][a] += q * recombined[r][b]
        assert FpModule(ZZ, rank, mat(ZZ, recombined, cols=nrel)).invariant_factors == base

        padded = [row + [sum(row)] for row in rows]
        assert FpModule(ZZ, rank, mat(ZZ, padded, cols=nrel + 1)).invariant_factors == base


def test_direct_sum_merges_invariant_factors():
    a = FpModule.from_invariant_factors(ZZ, [2])
    b = FpModule.from_invariant_factors(ZZ, [3])
    assert canonicalize(a.direct_sum(b)).invariant_factors == (6,)
    c = FpModule.from_invariant_factors(ZZ, [2, 0])
    assert canonicalize(a.direct_sum(c)).invariant_factors == (2, 2, 0)


# -- subquotients against enumeration -----------------------------------


def _z4_squared() -> FpModule:
    return FpModule(ZZ, 2, Matrix.diagonal(ZZ, [4, 4]))


def _in_power(gens: Matrix, m: FpModule) -> Matrix:
    """Generators in the free cover of M^p with the relations of M^p adjoined:
    the submodule of a power of m that they span."""
    return hstack(gens, kron(Matrix.identity(m.ring, gens.rows // m.ambient_rank), m.relations))


def _image(u: Matrix, m: FpModule) -> Matrix:
    """Image of M^cols -> M^rows under x |-> u x, in the free cover."""
    return kron(u, Matrix.identity(m.ring, m.ambient_rank))


def _subquotient(k: Matrix, i: Matrix, m: FpModule) -> FpModule:
    """K / (K meet I) for generators k, i of submodules of the same power of m."""
    return present_quotient(_in_power(k, m), _in_power(i, m))


def test_subquotient_full_mod_doubles():
    m = _z4_squared()
    q = _subquotient(_image(Matrix.identity(ZZ, 1), m), _image(mat(ZZ, [[2]]), m), m)
    assert q.invariant_factors == (2, 2)
    assert len(image_set([[1]], [4, 4], 1)) // len(image_set([[2]], [4, 4], 1)) == 4


def test_subquotient_line_mod_half_line():
    m = FpModule(ZZ, 1, mat(ZZ, [[4]]))
    q = _subquotient(kernel_of_action(mat(ZZ, [[0, 1]]), m), _image(mat(ZZ, [[2], [0]]), m), m)
    assert q.invariant_factors == (2,)
    ker = kernel_set([[0, 1]], [4], 2)
    img = image_set([[2], [0]], [4], 1)
    assert len(ker) // len(ker & img) == 2


def test_subquotient_of_equal_spans_is_zero():
    m = FpModule(ZZ, 1, mat(ZZ, [[4]]))
    k = kernel_of_action(mat(ZZ, [[2]]), m)
    assert _subquotient(k, _image(mat(ZZ, [[2]]), m), m).is_zero
    assert kernel_set([[2]], [4], 1) == image_set([[2]], [4], 1)


def test_subquotient_rejects_mismatched_ambients():
    z4 = FpModule.from_invariant_factors(ZZ, [4])
    one = Matrix.identity(ZZ, 1)
    with pytest.raises(DimensionMismatch):
        present_quotient(_in_power(_image(one, _z4_squared()), _z4_squared()),
                         _in_power(_image(one, z4), z4))


def test_present_quotient_edge_cases():
    assert present_quotient(Matrix.zeros(ZZ, 2, 0), Matrix.identity(ZZ, 2)).is_zero
    free2 = present_quotient(Matrix.identity(ZZ, 2), Matrix.zeros(ZZ, 2, 0))
    assert free2.invariant_factors == (0, 0)


# -- maps ----------------------------------------------------------------


def _presentation_maps(src: FpModule, dst: FpModule) -> list[Matrix]:
    """The generating middles F of the morphisms between the presentation
    chains, where F @ R_src = R_dst @ Y: the lattice the library builds
    hom groups, images and random morphisms from.  `_middles` gives each
    as P_A @ F @ Q_B; it is mapped back with the oracle's inverses."""
    x, y = _presented(src.relations), _presented(dst.relations)
    a, b = snf(y.m1), snf(x.m2)
    p_inv, q_inv = (mat(u.ring, unimodular_inverse(u.to_rows(), u.ring.modulus), cols=u.rows)
                    for u in (a.P, b.Q))
    mids = _middles(x, y, a, b)
    return [p_inv @ Matrix(x.ring, y.n2, x.n2, mids.col_list(j)) @ q_inv
            for j in range(mids.cols)]


def test_well_definedness_fixture_z4_to_z6():
    src = FpModule(ZZ, 1, mat(ZZ, [[4]]))
    dst = FpModule(ZZ, 1, mat(ZZ, [[6]]))
    assert is_well_defined_map(mat(ZZ, [[3]]), src, dst)
    assert not is_well_defined_map(mat(ZZ, [[1]]), src, dst)
    gens = _presentation_maps(src, dst)
    assert gens
    # the well defined 1x1 maps are exactly the multiples of 3 mod 6
    reachable = gcd(6, *(g.entry(0, 0) for g in gens))
    assert reachable == 3


def _random_presented(rng, ring) -> FpModule:
    rank, nrel = rng.randint(0, 2), rng.randint(0, 2)
    rel = Matrix(ring, rank, nrel,
                 tuple(rng.randint(-4, 4) for _ in range(rank * nrel)))
    return FpModule(ring, rank, rel)


def _well_defined_maps(src: FpModule, dst: FpModule, n: int) -> set:
    """Every F mod n, row-major, whose columns F @ R_src lie in the image of
    R_dst mod n, by enumeration with bare ints."""
    r1, k1 = src.relations.rows, src.relations.cols
    r2, k2 = dst.relations.rows, dst.relations.cols
    image = {mul_mod(dst.relations.entries, y, r2, k2, 1, n) for y in product(range(n), repeat=k2)}
    return {f for f in product(range(n), repeat=r2 * r1)
            if all(mul_mod(f, src.relations.col_list(j), r2, r1, 1, n) in image
                   for j in range(k1))}


def test_presentation_morphisms_are_exactly_the_well_defined_maps():
    # a generator that degenerated to zero maps would still give valid
    # maps; the span has to be all of them
    rng = random.Random(17)
    nonzero = 0
    for _ in range(60):
        ring = rng.choice([Zmod(4), Zmod(6)])
        src, dst = _random_presented(rng, ring), _random_presented(rng, ring)
        gens = _presentation_maps(src, dst)
        size = dst.ambient_rank * src.ambient_rank
        reached = span_mod([g.entries for g in gens], size, ring.modulus)
        assert reached == _well_defined_maps(src, dst, ring.modulus)
        nonzero += len(reached) > 1
    assert nonzero > 10


def test_kernel_and_cokernel_of_doubling_on_z4():
    m = FpModule(ZZ, 1, mat(ZZ, [[4]]))
    doubling = mat(ZZ, [[2]])
    ker, _, _, coker, _, _ = snake_sequence(doubling, Matrix.identity(ZZ, 1), m, m, m).modules
    assert ker.invariant_factors == (2,)
    assert coker.invariant_factors == (2,)
    assert len(kernel_set([[2]], [4], 1)) == 2
    assert 4 // len(image_set([[2]], [4], 1)) == 2


# -- snake sequences -------------------------------------------------------


def test_snake_fixture_doubling_twice_on_z4():
    m = FpModule(ZZ, 1, mat(ZZ, [[4]]))
    f = mat(ZZ, [[2]])
    snake = snake_sequence(f, f, m, m, m)
    assert tuple(x.order() for x in snake.modules) == (2, 4, 2, 2, 4, 2)
    assert snake.order_identity_holds()
    assert snake.verify_exact()
    # alternating product: 2*2*4 == 4*2*2 == 16
    kf, kgf, kg, cf, cgf, cg = (x.order() for x in snake.modules)
    assert kf * kg * cgf == kgf * cf * cg == 16


def test_snake_identity_maps_give_all_zero():
    m = FpModule(ZZ, 1, mat(ZZ, [[4]]))
    one = Matrix.identity(ZZ, 1)
    snake = snake_sequence(one, one, m, m, m)
    assert all(x.is_zero for x in snake.modules)
    assert snake.verify_exact() and snake.order_identity_holds()


def test_snake_zero_then_identity_on_z3():
    m = FpModule(ZZ, 1, mat(ZZ, [[3]]))
    zero = Matrix.zeros(ZZ, 1, 1)
    one = Matrix.identity(ZZ, 1)
    snake = snake_sequence(zero, one, m, m, m)
    kf, kgf, kg, cf, cgf, cg = snake.modules
    assert kf.invariant_factors == (3,)
    assert cf.invariant_factors == (3,)
    assert kg.is_zero and cg.is_zero
    assert kgf.invariant_factors == (3,) and cgf.invariant_factors == (3,)
    assert snake.verify_exact() and snake.order_identity_holds()


def test_snake_detects_a_broken_map():
    m = FpModule(ZZ, 1, mat(ZZ, [[4]]))
    doubling = mat(ZZ, [[2]])
    snake = snake_sequence(doubling, doubling, m, m, m)

    def with_middle(h):
        maps = (snake.maps[0], h, *snake.maps[2:])
        return dataclasses.replace(snake, maps=maps)

    # zero: Ker gf = Z/4 maps to zero, but only Ker f = Z/2 comes in
    assert not with_middle(Matrix.zeros(ZZ, 1, 1)).verify_exact()
    # identity: Ker f = Z/2 comes in, but nothing of Ker gf maps to zero
    assert not with_middle(Matrix.identity(ZZ, 1)).verify_exact()


def _six_oracle(f, g, m1, m2, m3):
    """The six terms built directly: each kernel presented on its preimage
    generators, each cokernel as the target with the map adjoined."""
    gf = g @ f
    kernels = [present_quotient(hstack(preimage_gens(h, dst.relations), src.relations),
                                src.relations)
               for h, src, dst in ((f, m1, m2), (gf, m1, m3), (g, m2, m3))]
    cokernels = [canonicalize(FpModule(dst.ring, dst.ambient_rank, hstack(h, dst.relations)))
                 for h, dst in ((f, m2), (gf, m3), (g, m3))]
    return (*kernels, *cokernels)


def test_snake_terms_match_direct_construction():
    rng = random.Random(4311)
    rings = (ZZ, Zmod(4), Zmod(6))
    for i in range(90):
        ring = rings[i % len(rings)]
        draw = random_module if i % 2 else random_finite_module
        mods = [draw(rng, ring) for _ in range(3)]
        f = random_module_map(rng, mods[0], mods[1])
        g = random_module_map(rng, mods[1], mods[2])
        snake = snake_sequence(f, g, *mods)
        got = [x.invariant_factors for x in snake.modules]
        assert got == [x.invariant_factors for x in _six_oracle(f, g, *mods)], (i, ring)
        assert snake.verify_exact(), (i, ring)
