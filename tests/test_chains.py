"""The abelian structure on chains: homotopy equality, kernels, cokernels,
images, hom groups, and the two-step factorization through the middle term.

The homotopy question a2 = dst.m1 @ s + t @ src.m2 and the question which
middles extend to a commuting triple are answered in Smith coordinates by
the package; the tests keep the stacked Kronecker systems
[kron(dst.m1, I) | kron(I, src.m2^T)] and the commute system in a1, a2
and a3 as independent oracles.
"""

import math
import random
from itertools import product

import pytest

from freeabcat import (
    ChainMorphism,
    ChainObject,
    DimensionMismatch,
    FpModule,
    InvariantViolation,
    Matrix,
    ZZ,
    Zmod,
    cokernel,
    compose,
    direct_sum_objects,
    embed_rank,
    evaluate_chain,
    hom_group,
    identity_morphism,
    image_factorization,
    is_isomorphism,
    is_null_homotopic,
    is_zero_object,
    kernel,
    lift_through_kernel,
    middle_factorization,
    morphisms_equal,
    present_quotient,
    zero_chain,
    zero_morphism,
)
from freeabcat.chains import _xgcd, homotopy_witness
from freeabcat.linalg import (
    hstack,
    kernel_gens,
    kron,
    preimage_gens,
    snf,
    solve_linear,
    vstack,
)
from freeabcat.randgen import random_chain, random_matrix, random_morphism
from freeabcat.suites import _lifts_to_isomorphism

from conftest import mul_mod, span_mod, unimodular_inverse

mat = Matrix.from_rows


def doubling_on_embed1(ring=ZZ) -> ChainMorphism:
    e = embed_rank(ring, 1)
    return ChainMorphism(e, e,
                         Matrix.zeros(ring, 0, 0),
                         mat(ring, [[2]]),
                         Matrix.zeros(ring, 0, 0))


def test_constructor_rejects_non_commuting_triples():
    x = ChainObject(ZZ, mat(ZZ, [[2]]), mat(ZZ, [[3]]))
    with pytest.raises(InvariantViolation):
        ChainMorphism(x, x, mat(ZZ, [[1]]), mat(ZZ, [[2]]), mat(ZZ, [[1]]))
    with pytest.raises(DimensionMismatch):
        ChainMorphism(x, x, mat(ZZ, [[1, 0]]), mat(ZZ, [[1]]), mat(ZZ, [[1]]))


def test_zero_and_identity_morphisms():
    x = ChainObject(ZZ, mat(ZZ, [[2]]), mat(ZZ, [[4]]))
    assert is_null_homotopic(zero_morphism(x, x))
    # 2s + 4t = 1 has no integer solution, so this chain is not the zero object
    assert not is_null_homotopic(identity_morphism(x))
    assert morphisms_equal(compose(identity_morphism(x), identity_morphism(x)),
                           identity_morphism(x))
    # but with coprime boundary maps the identity contracts
    coprime = ChainObject(ZZ, mat(ZZ, [[2]]), mat(ZZ, [[3]]))
    assert is_null_homotopic(identity_morphism(coprime))


def test_null_homotopy_witness_reconstructs_middle_component():
    rng = random.Random(20260819)
    hits = 0
    for _ in range(40):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x = random_chain(rng, ring)
        y = random_chain(rng, ring)
        u = random_morphism(rng, x, y)
        w = homotopy_witness(u)
        if w is None:
            continue
        hits += 1
        s, t = w
        assert y.m1 @ s + t @ x.m2 == u.a2
    assert hits > 0


def test_homotopic_morphisms_form_an_ideal():
    rng = random.Random(4)
    for _ in range(25):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x, y, z = (random_chain(rng, ring) for _ in range(3))
        u = random_morphism(rng, x, y)
        v = random_morphism(rng, y, z)
        if is_null_homotopic(u):
            assert is_null_homotopic(compose(u, v))
        if is_null_homotopic(v):
            assert is_null_homotopic(compose(u, v))
        assert is_null_homotopic(compose(zero_morphism(x, y), v))


def test_zero_objects():
    assert is_zero_object(zero_chain(ZZ))
    assert is_zero_object(embed_rank(ZZ, 0))
    assert not is_zero_object(embed_rank(ZZ, 1))
    # a contractible chain with identity in the middle is zero
    assert is_zero_object(ChainObject(ZZ, mat(ZZ, [[1]]), Matrix.zeros(ZZ, 0, 1)))
    assert is_zero_object(ChainObject(ZZ, Matrix.zeros(ZZ, 1, 0), mat(ZZ, [[1]])))


def test_kernel_of_doubling_on_embedded_line():
    u = doubling_on_embed1()
    k = kernel(u)
    assert k.object.ranks == (0, 1, 1)
    assert k.object.m2 == mat(ZZ, [[2]])
    assert is_null_homotopic(compose(k.morphism, u))
    z4 = FpModule.from_invariant_factors(ZZ, [4])
    assert evaluate_chain(k.object, z4).invariant_factors == (2,)


def test_cokernel_of_doubling_on_embedded_line():
    u = doubling_on_embed1()
    c = cokernel(u)
    assert c.object.ranks == (1, 1, 0)
    assert c.object.m1 == mat(ZZ, [[2]])
    assert is_null_homotopic(compose(u, c.morphism))
    free = FpModule.free(ZZ, 1)
    assert evaluate_chain(c.object, free).invariant_factors == (2,)


def test_kernel_and_cokernel_of_identity_vanish():
    for ring in (ZZ, Zmod(6)):
        x = ChainObject(ring, mat(ring, [[2], [1]]), mat(ring, [[0, 3]]))
        ident = identity_morphism(x)
        assert is_zero_object(kernel(ident).object)
        assert is_zero_object(cokernel(ident).object)
        assert is_isomorphism(ident)


def test_hom_group_fixtures():
    e1 = embed_rank(ZZ, 1)
    assert hom_group(e1, e1).invariant_factors == (0,)
    e1m = embed_rank(Zmod(4), 1)
    assert hom_group(e1m, e1m).invariant_factors == (4,)
    contractible = ChainObject(ZZ, mat(ZZ, [[1]]), Matrix.zeros(ZZ, 0, 1))
    assert hom_group(e1, contractible).is_zero
    assert hom_group(contractible, e1).is_zero


def test_hom_group_detects_two_torsion_maps():
    # maps from coker(2) = (Z ->2> Z -> 0) to embed(1) over Z must kill 2
    u = doubling_on_embed1()
    c = cokernel(u).object
    assert hom_group(c, embed_rank(ZZ, 1)).is_zero
    z2_chain = kernel(u).object
    assert hom_group(c, c).invariant_factors == (2,)
    assert hom_group(z2_chain, z2_chain).invariant_factors == (2,)


def test_image_factorization_recovers_epi_mono_composite():
    rng = random.Random(8)
    for _ in range(20):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6)])
        x = random_chain(rng, ring)
        y = random_chain(rng, ring)
        u = random_morphism(rng, x, y)
        fac = image_factorization(u)
        assert morphisms_equal(compose(fac.epi, fac.mono), u)
        assert is_null_homotopic(compose(fac.mono, cokernel(u).morphism))


def test_middle_factorization_shape_and_composite():
    x = ChainObject(ZZ, mat(ZZ, [[-1], [2]]), mat(ZZ, [[0, -1]]))
    mid = middle_factorization(x)
    assert mid.kernel_side.src.ranks == (0, x.n2, x.n3)
    assert mid.kernel_side.dst.ranks == (0, x.n2, 0)
    assert mid.cokernel_side.dst.ranks == (x.n1, x.n2, 0)
    assert mid.connecting.a2 == Matrix.identity(ZZ, x.n2)
    fac = image_factorization(mid.connecting)
    z2 = FpModule.from_invariant_factors(ZZ, [2])
    z3 = FpModule.from_invariant_factors(ZZ, [3])
    assert evaluate_chain(fac.object, z2).invariant_factors == \
        evaluate_chain(x, z2).invariant_factors
    assert evaluate_chain(fac.object, z3).invariant_factors == \
        evaluate_chain(x, z3).invariant_factors


def test_composition_is_associative_up_to_homotopy():
    rng = random.Random(21)
    for _ in range(10):
        ring = rng.choice([ZZ, Zmod(6)])
        w, x, y, z = (random_chain(rng, ring, max_rank=2) for _ in range(4))
        u = random_morphism(rng, w, x)
        v = random_morphism(rng, x, y)
        s = random_morphism(rng, y, z)
        assert morphisms_equal(compose(compose(u, v), s), compose(u, compose(v, s)))


# -- the Kronecker oracle for the homotopy ideal and the hom group ----------


def vec_row(m: Matrix) -> Matrix:
    """Row-major vectorization as a column vector, with the two identities
        vec_row(A @ X) = kron(A, I_q) @ vec_row(X)   for X with q columns,
        vec_row(X @ B) = kron(I_p, B^T) @ vec_row(X) for X with p rows."""
    return Matrix(m.ring, m.rows * m.cols, 1, m.entries)


def unvec_row(v: Matrix, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix whose `vec_row` is the column v."""
    assert v.cols == 1 and v.rows == rows * cols
    return Matrix(v.ring, rows, cols, v.entries)


def test_vec_row_identities():
    rng = random.Random(5)
    for _ in range(30):
        p, q, r = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        a = Matrix(ZZ, p, q, tuple(rng.randint(-3, 3) for _ in range(p * q)))
        x = Matrix(ZZ, q, r, tuple(rng.randint(-3, 3) for _ in range(q * r)))
        assert vec_row(a @ x) == kron(a, Matrix.identity(ZZ, r)) @ vec_row(x)
        assert vec_row(a @ x) == kron(Matrix.identity(ZZ, p), x.transpose()) @ vec_row(a)
        assert unvec_row(vec_row(x), q, r) == x


def kron_homotopy_matrix(src: ChainObject, dst: ChainObject) -> Matrix:
    """Coefficients of (s, t) |-> dst.m1 @ s + t @ src.m2 on row-major vecs."""
    eye = Matrix.identity
    return hstack(kron(dst.m1, eye(src.ring, src.n2)),
                  kron(eye(src.ring, dst.n2), src.m2.transpose()))


def kron_null_homotopic(u: ChainMorphism) -> bool:
    return solve_linear(kron_homotopy_matrix(u.src, u.dst), vec_row(u.a2)) is not None


def _commute_matrix(x: ChainObject, y: ChainObject) -> Matrix:
    """Coefficients of (a1, a2, a3) |-> (a2 @ x.m1 - y.m1 @ a1,
    a3 @ x.m2 - y.m2 @ a2) on stacked row-major vecs; its kernel is the
    strictly commuting triples x -> y."""
    ring = x.ring
    eye, zeros = Matrix.identity, Matrix.zeros
    d1, d3 = y.n1 * x.n1, y.n3 * x.n3
    return vstack(
        hstack(
            -kron(y.m1, eye(ring, x.n1)),
            kron(eye(ring, y.n2), x.m1.transpose()),
            zeros(ring, y.n2 * x.n1, d3),
        ),
        hstack(
            zeros(ring, y.n3 * x.n2, d1),
            -kron(y.m2, eye(ring, x.n2)),
            kron(eye(ring, y.n3), x.m2.transpose()),
        ),
    )


def hom_triple_gens(x: ChainObject, y: ChainObject) -> Matrix:
    """Stacked generating vectors for the strictly commuting triples, with
    a1, a2 and a3 all unknown."""
    return kernel_gens(_commute_matrix(x, y))


def triple_from_vector(x: ChainObject, y: ChainObject, v: Matrix) -> ChainMorphism:
    """Unpack a stacked coefficient vector into a morphism x -> y."""
    d1, d2, d3 = y.n1 * x.n1, y.n2 * x.n2, y.n3 * x.n3
    assert (v.rows, v.cols) == (d1 + d2 + d3, 1)
    return ChainMorphism(
        x, y,
        unvec_row(v.submatrix(0, d1, 0, 1), y.n1, x.n1),
        unvec_row(v.submatrix(d1, d1 + d2, 0, 1), y.n2, x.n2),
        unvec_row(v.submatrix(d1 + d2, d1 + d2 + d3, 0, 1), y.n3, x.n3),
    )


def kron_hom_group(x: ChainObject, y: ChainObject) -> FpModule:
    """Commuting triples from the kernel of the commute system, modulo those
    whose middle solves the Kronecker homotopy system."""
    triples = hom_triple_gens(x, y)
    d1, d2 = y.n1 * x.n1, y.n2 * x.n2
    mid_rows = triples.submatrix(d1, d1 + d2, 0, triples.cols)
    return present_quotient(triples,
                            triples @ preimage_gens(mid_rows, kron_homotopy_matrix(x, y)))


ORACLE_RINGS = (ZZ, Zmod(4), Zmod(6), Zmod(9), Zmod(12), Zmod(720))


def assert_witness(u: ChainMorphism) -> bool:
    """The verdict agrees with the oracle and a witness certifies itself."""
    w = homotopy_witness(u)
    assert (w is not None) == kron_null_homotopic(u)
    if w is not None:
        s, t = w
        assert u.dst.m1 @ s + t @ u.src.m2 == u.a2
    return w is not None


def test_homotopy_verdicts_match_kronecker_oracle():
    rng = random.Random(5050)
    verdicts = {True: 0, False: 0}
    for ring in ORACLE_RINGS:
        for _ in range(30):
            x = random_chain(rng, ring)
            y = random_chain(rng, ring)
            verdicts[assert_witness(random_morphism(rng, x, y))] += 1
            # identities of nonzero chains supply false verdicts
            verdicts[assert_witness(identity_morphism(x))] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20


def test_homotopy_at_rank_zero_ends():
    rng = random.Random(77)
    for ring in ORACLE_RINGS:
        z = zero_chain(ring)
        assert assert_witness(identity_morphism(z))
        for _ in range(6):
            n2, n3 = rng.randint(1, 3), rng.randint(1, 3)
            no_n1 = ChainObject(ring, Matrix.zeros(ring, n2, 0),
                                random_matrix(rng, ring, n3, n2))
            no_n3 = ChainObject(ring, random_matrix(rng, ring, n2, n3),
                                Matrix.zeros(ring, 0, n2))
            for x, y in ((no_n1, no_n3), (no_n3, no_n1), (no_n1, no_n1), (z, no_n3),
                         (no_n1, z)):
                assert_witness(random_morphism(rng, x, y))
                assert_witness(identity_morphism(x))
                assert hom_group(x, y).invariant_factors == \
                    kron_hom_group(x, y).invariant_factors


SCALES = (0, 2, 3, 4, 6, 12)


def scaled_chain(rng: random.Random, ring) -> ChainObject:
    """A random chain with each map scaled by one of SCALES: rank-deficient,
    with non-unit Smith entries."""
    x = random_chain(rng, ring)
    return ChainObject(ring, x.m1.scale(rng.choice(SCALES)), x.m2.scale(rng.choice(SCALES)))


def assert_hom_and_image_match_oracle(x: ChainObject, y: ChainObject,
                                      rng: random.Random) -> FpModule:
    hom = hom_group(x, y)
    assert hom.invariant_factors == kron_hom_group(x, y).invariant_factors
    u = random_morphism(rng, x, y)
    fac = image_factorization(u)
    assert morphisms_equal(compose(fac.epi, fac.mono), u)
    assert kron_null_homotopic(compose(fac.epi, fac.mono) - u)
    return hom


def test_hom_group_and_image_match_kronecker_oracle():
    rng = random.Random(606)
    for ring in ORACLE_RINGS:
        for _ in range(8):
            assert_hom_and_image_match_oracle(random_chain(rng, ring), random_chain(rng, ring), rng)
    # non-unit alpha_i and beta_j, where the middles' divisibility rows bind
    rng = random.Random(607)
    nonzero = 0
    for ring in (ZZ, Zmod(4), Zmod(12)):
        for _ in range(16):
            x, y = scaled_chain(rng, ring), rng.choice([scaled_chain, random_chain])(rng, ring)
            nonzero += not assert_hom_and_image_match_oracle(x, y, rng).is_zero
    assert nonzero > 12


def test_draws_span_every_commuting_triple():
    """The (a1, a2, a3) of seeded `random_morphism` draws span every strictly
    commuting triple mod n, found by enumeration with bare ints, and so do
    the commute system's generators.  a1 and a3 are fixed by a2 only up to
    the kernels of dst.m1 and src.m2^T, which the draws reach through their
    random z1 and z3."""
    rng = random.Random(5757)
    cases = nonzero = 0
    while cases < 40:
        n = rng.choice([4, 6])
        x, y = random_chain(rng, Zmod(n), 2), random_chain(rng, Zmod(n), 2)
        d1, d2, d3 = y.n1 * x.n1, y.n2 * x.n2, y.n3 * x.n3
        if d1 + d2 + d3 > 4:  # at most n^4 triples to enumerate
            continue
        cases += 1
        want = set()
        for v in product(range(n), repeat=d1 + d2 + d3):
            a1, a2, a3 = v[:d1], v[d1:d1 + d2], v[d1 + d2:]
            if (mul_mod(a2, x.m1.entries, y.n2, x.n2, x.n1, n)
                    == mul_mod(y.m1.entries, a1, y.n2, y.n1, x.n1, n)
                    and mul_mod(a3, x.m2.entries, y.n3, x.n3, x.n2, n)
                    == mul_mod(y.m2.entries, a2, y.n3, y.n2, x.n2, n)):
                want.add(v)
        draws = [random_morphism(rng, x, y) for _ in range(25)]
        assert span_mod([u.a1.entries + u.a2.entries + u.a3.entries for u in draws],
                        d1 + d2 + d3, n) == want
        gens = hom_triple_gens(x, y)
        triples = [triple_from_vector(x, y, gens.column(j)) for j in range(gens.cols)]
        assert span_mod([u.a1.entries + u.a2.entries + u.a3.entries for u in triples],
                        d1 + d2 + d3, n) == want
        nonzero += len(want) > 1
    assert nonzero > 10


def test_hom_group_builds_no_commute_system(monkeypatch):
    """At r = 8 the commute system has 3r^2 = 192 unknowns (a1, a2 and a3),
    and a2 alone has r^2 = 64 entries; hom_group solves only for the
    entries of y = P_A @ a2 @ Q_B that a non-unit Smith entry constrains,
    so none of its eliminations is even r^2 wide."""
    from freeabcat import linalg

    widths = []
    real_snf_int = linalg._snf_int
    monkeypatch.setattr(linalg, "_snf_int", lambda m: widths.append(m.cols) or real_snf_int(m))
    r = 8
    rng = random.Random(r)
    x, y = (ChainObject(ZZ, random_matrix(rng, ZZ, r, r), random_matrix(rng, ZZ, r, r))
            for _ in range(2))
    hom_group(x, y)
    assert widths and max(widths) < r * r


def test_homotopy_solver_stays_in_its_ring(monkeypatch):
    """Over Z/n the homotopy equation is solved by eliminations over Z/n:
    no matrix is lifted to Z on the way."""
    from freeabcat import linalg

    seen = []
    real_snf_int = linalg._snf_int
    monkeypatch.setattr(linalg, "_snf_int",
                        lambda m, *rest: seen.append(m.ring) or real_snf_int(m, *rest))
    rng = random.Random(1414)
    for ring in (Zmod(4), Zmod(12)):
        for _ in range(12):
            x, y = random_chain(rng, ring), random_chain(rng, ring)
            u = random_morphism(rng, x, y)
            seen.clear()
            homotopy_witness(u)
            homotopy_witness(identity_morphism(x))
            hom_group(x, y)
            image_factorization(u)
            assert seen and set(seen) == {ring}


def test_xgcd_is_bezout_with_nonnegative_gcd():
    grid = [0, 1, -1, 2, -2, 3, 4, -6, 9, 12, -35]
    for a in grid:
        for b in grid:
            g, (x, y) = _xgcd(a, b)
            assert g == math.gcd(a, b) and a * x + b * y == g
            for n in (4, 6, 9):
                g, (x, y, z) = _xgcd(a, b, n)
                assert g == math.gcd(a, b, n) and a * x + b * y + n * z == g
                assert (a * x + b * y - g) % n == 0


def test_gcd_folds_the_modulus():
    # over Z/6, 2s + 4t = 2 is solvable and 2s + 4t = 1 is not
    g, (x, y, _) = _xgcd(2, 4, 6)
    assert g == 2 and (2 * x + 4 * y) % 6 == 2
    z6 = Zmod(6)
    x = ChainObject(z6, mat(z6, [[2]]), mat(z6, [[4]]))
    two = ChainMorphism(x, x, mat(z6, [[2]]), mat(z6, [[2]]), mat(z6, [[2]]))
    assert assert_witness(two)
    assert not assert_witness(identity_morphism(x))
    # the modulus counts: over Z/6, 4s = 2 is solvable although 4 does not divide 2
    y = ChainObject(z6, mat(z6, [[4]]), Matrix.zeros(z6, 0, 1))
    assert assert_witness(ChainMorphism(y, y, mat(z6, [[2]]), mat(z6, [[2]]),
                                        Matrix.zeros(z6, 0, 0)))


# -- scale: ranks 8-10, entries up to 2^20 -----------------------------------

BIG = 2 ** 20
SCALE_RINGS = (ZZ, Zmod(3 * BIG))


def test_null_homotopies_certify_at_scale():
    # the homotopy equation reads only dst.m1 and src.m2, so ends
    # (0 -> R^n2 -> R^n3) and (R^n1 -> R^n2' -> 0) carry it in full, and any
    # middle a2 = dst.m1 @ s + t @ src.m2 is a morphism between them
    rng = random.Random(2 ** 20)
    for ring in SCALE_RINGS:
        for _ in range(2):
            n1, n2, n2d, n3 = (rng.randint(8, 10) for _ in range(4))
            src = ChainObject(ring, Matrix.zeros(ring, n2, 0),
                              random_matrix(rng, ring, n3, n2, -BIG, BIG))
            dst = ChainObject(ring, random_matrix(rng, ring, n2d, n1, -BIG, BIG),
                              Matrix.zeros(ring, 0, n2d))
            s = random_matrix(rng, ring, n1, n2, -BIG, BIG)
            t = random_matrix(rng, ring, n2d, n3, -BIG, BIG)
            u = ChainMorphism(src, dst, Matrix.zeros(ring, n1, 0),
                              dst.m1 @ s + t @ src.m2, Matrix.zeros(ring, 0, n3))
            w = homotopy_witness(u)
            assert w is not None
            assert dst.m1 @ w[0] + w[1] @ src.m2 == u.a2


def bareiss_map_back_witness(u: ChainMorphism):
    """The witness with the transforms frozen: c' = P_A @ a2 @ Q_B, then
    s = Q_A @ s' @ Q_B^-1 and t = P_A^-1 @ t' @ P_B, with the inverses from
    the test-side Bareiss oracle."""
    src, dst, ring = u.src, u.dst, u.src.ring
    a, b = snf(dst.m1), snf(src.m2)
    alpha, beta = a.diagonal(dst.n2), b.diagonal(src.n2)
    mod = (ring.modulus,) if ring.is_modular else ()
    s = [[0] * src.n2 for _ in range(dst.n1)]
    t = [[0] * src.n3 for _ in range(dst.n2)]
    for i, row in enumerate((a.P @ u.a2 @ b.Q).to_rows()):
        for j, v in enumerate(row):
            g, (x, y, *_) = _xgcd(alpha[i], beta[j], *mod)
            if (v % g if g else v) != 0:
                return None
            q = v // g if g else 0
            if i < dst.n1:
                s[i][j] = x * q
            if j < src.n3:
                t[i][j] = y * q
    def inverse(u):
        return mat(ring, unimodular_inverse(u.to_rows(), ring.modulus), cols=u.rows)

    return (a.Q @ mat(ring, s, cols=src.n2) @ inverse(b.Q),
            inverse(a.P) @ mat(ring, t, cols=src.n3) @ b.P)


def test_witnesses_match_the_bareiss_map_back():
    """P_A, Q_B, Q_A, Q_B^-1, P_A^-1 and P_B applied through the logs of
    their eliminations give the witness that the frozen transforms and
    their inverses give."""
    rng = random.Random(20261021)
    verdicts = {True: 0, False: 0}
    for ring in (ZZ, Zmod(4), Zmod(12)):
        for _ in range(25):
            x, y = random_chain(rng, ring, 4), random_chain(rng, ring, 4)
            n1, n2, n2d, n3 = (rng.randint(1, 5) for _ in range(4))
            src = ChainObject(ring, Matrix.zeros(ring, n2, 0), random_matrix(rng, ring, n3, n2, -9, 9))
            dst = ChainObject(ring, random_matrix(rng, ring, n2d, n1, -9, 9), Matrix.zeros(ring, 0, n2d))
            s, t = random_matrix(rng, ring, n1, n2, -9, 9), random_matrix(rng, ring, n2d, n3, -9, 9)
            null = ChainMorphism(src, dst, Matrix.zeros(ring, n1, 0), dst.m1 @ s + t @ src.m2,
                                 Matrix.zeros(ring, 0, n3))
            for u in (random_morphism(rng, x, y), identity_morphism(x), null):
                w = homotopy_witness(u)
                assert w == bareiss_map_back_witness(u)
                verdicts[w is not None] += 1
    assert verdicts[True] > 150 and verdicts[False] > 30


def test_obstructed_summand_keeps_a_large_chain_nonzero():
    # 2s + 4t = 1 has no solution over Z or over Z/(3 * 2^20), so the
    # identity of a chain with (2, 4) as a summand never contracts
    rng = random.Random(1_048_583)
    for ring in SCALE_RINGS:
        n1, n2, n3 = (rng.randint(8, 10) for _ in range(3))
        big = ChainObject(ring, random_matrix(rng, ring, n2, n1, -BIG, BIG),
                          random_matrix(rng, ring, n3, n2, -BIG, BIG))
        x = direct_sum_objects(ChainObject(ring, mat(ring, [[2]]), mat(ring, [[4]])), big)
        assert homotopy_witness(identity_morphism(x)) is None
        assert not is_zero_object(x)


# -- lifting through a kernel ------------------------------------------------

LIFT_RINGS = (ZZ, Zmod(4), Zmod(6), Zmod(12))


def assert_lift(w: ChainMorphism, v: ChainMorphism) -> ChainMorphism:
    """The lift exists, commutes strictly (the constructor checks both
    squares) and projects back onto w entry for entry."""
    witness = homotopy_witness(compose(w, v))
    assert witness is not None
    e = lift_through_kernel(w, v, witness)
    k = kernel(v)
    assert e.dst == k.object
    assert compose(e, k.morphism) == w
    return e


def lift_test_chains(rng: random.Random, ring) -> list[ChainObject]:
    """Random chains plus the rank-0 ends: the zero chain, n1 = 0, n3 = 0."""
    return [zero_chain(ring),
            ChainObject(ring, Matrix.zeros(ring, 2, 0), random_matrix(rng, ring, 1, 2)),
            ChainObject(ring, random_matrix(rng, ring, 2, 1), Matrix.zeros(ring, 0, 2)),
            *(random_chain(rng, ring) for _ in range(3))]


def test_lift_through_kernel_commutes_strictly():
    rng = random.Random(6006)
    for ring in LIFT_RINGS:
        chains = lift_test_chains(rng, ring)
        for x in chains:
            for y in chains:
                # v kills w: v is the cokernel of w ...
                w = random_morphism(rng, x, y)
                assert_lift(w, cokernel(w).morphism)
                # ... or w factors through the kernel of v, and the lift
                # recovers that factor up to homotopy (the kernel is mono)
                v = random_morphism(rng, y, rng.choice(chains))
                e0 = random_morphism(rng, x, kernel(v).object)
                e = assert_lift(compose(e0, kernel(v).morphism), v)
                assert morphisms_equal(e, e0)


def closed_form_image_epi(u: ChainMorphism) -> ChainMorphism:
    """src -> kernel(cokernel(u)) by the kernel's universal property:
    cokernel(u) @ u is null-homotopic by s = [0; I] and t = [0; I]."""
    ring, x, y = u.src.ring, u.src, u.dst
    s = vstack(Matrix.zeros(ring, y.n1, x.n2), Matrix.identity(ring, x.n2))
    t = vstack(Matrix.zeros(ring, y.n2, x.n3), Matrix.identity(ring, x.n3))
    return lift_through_kernel(u, cokernel(u).morphism, (s, t))


def test_closed_form_image_epi_matches_the_solved_one():
    rng = random.Random(6007)
    for ring in LIFT_RINGS:
        chains = lift_test_chains(rng, ring)
        for x in chains:
            for y in chains[::2]:
                u = random_morphism(rng, x, y)
                fac = image_factorization(u)
                epi = closed_form_image_epi(u)
                assert epi.dst == fac.object
                assert compose(epi, fac.mono) == u
                assert morphisms_equal(epi, fac.epi)


def test_image_check_rejects_a_lift_that_is_not_an_isomorphism():
    # x = (0 -> R -> 0) is its own image: q = (I, I, 0) lifts to an
    # isomorphism, but 2q lifts to multiplication by 2, which is not one
    for ring in (ZZ, Zmod(4)):
        x = embed_rank(ring, 1)
        mid = middle_factorization(x)
        cok = cokernel(mid.connecting).morphism
        none = Matrix.zeros(ring, 0, 0)
        q = ChainMorphism(x, mid.cokernel_side.dst, none, mat(ring, [[1]]), none)
        twice = ChainMorphism(x, mid.cokernel_side.dst, none, mat(ring, [[2]]), none)
        assert _lifts_to_isomorphism(q, cok)
        assert not _lifts_to_isomorphism(twice, cok)
        # and a map that the cokernel does not kill has no lift at all
        ident = identity_morphism(x)
        assert not _lifts_to_isomorphism(ident, ident)
