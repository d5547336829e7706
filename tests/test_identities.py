"""Cross-layer identities: the chain layer against the module layer.

Evaluation F_x(M) of the free abelian category at a module M is exact and
additive, and embed_rank(R, k) is the image of the free module R^k.  So
`hom_group`, `kernel`, `cokernel` and `image_factorization` (built on the
homotopy ideal and the lattice of middles) must agree with `evaluate_chain`
(built per summand on `present_quotient`), and the two layers share no
code path.  Direct sums are regrouped here, from prime powers, not with
the library's Smith form.

Over Z an exact chain (m2 @ m1 = 0) is a complex of free modules, and the
universal coefficient theorem gives F_x(Z/b) = H (x) Z/b + Tor(coker m2,
Z/b) with H = F_x(Z): gcd arithmetic on two invariant-factor lists.
"""

import random
from math import gcd, prod

import pytest

from freeabcat import (
    ChainObject,
    FpModule,
    ZZ,
    Zmod,
    cokernel,
    direct_sum_objects,
    dual_chain,
    embed_rank,
    evaluate_chain,
    hom_group,
    image_factorization,
    kernel,
    kernel_gens,
)
from freeabcat.linalg import product_order
from freeabcat.randgen import (
    _presented,
    random_chain,
    random_finite_module,
    random_matrix,
    random_morphism,
)

RINGS = [ZZ, Zmod(4), Zmod(6), Zmod(8), Zmod(12)]
IDS = [str(ring) for ring in RINGS]


def regrouped(factors) -> tuple[int, ...]:
    """Invariant factors of the direct sum of the cyclic groups of orders
    `factors` (0 for Z): each order split into prime powers, the i-th
    largest powers of every prime multiplied together, units dropped and
    the zeros last."""
    powers = {}
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f, q = f // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    chain = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            chain[i] *= q
    return tuple(reversed(chain)) + (0,) * list(factors).count(0)


def test_regrouped_is_the_canonical_chain():
    assert regrouped([]) == ()
    assert regrouped([1, 1]) == ()
    assert regrouped([2, 3]) == (6,)
    assert regrouped([4, 6, 0, 2]) == (2, 2, 12, 0)
    assert regrouped([12, 12, 4]) == (4, 12, 12)


def factors(m: FpModule) -> tuple[int, ...]:
    return m.invariant_factors


def _chains(seed: int, ring, count: int, max_rank: int):
    rng = random.Random(seed)
    return rng, [random_chain(rng, ring, max_rank) for _ in range(count)]


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_yoneda_in_both_arguments(ring):
    """Hom(embed R^k, x) = F_x(R^k) and Hom(x, embed R^k) = F_dual x(R^k)."""
    rng, chains = _chains(1800 + (ring.modulus or 0), ring, 20, 3)
    nonzero = 0
    for x in chains:
        k = rng.randint(1, 2)
        free, embedded = FpModule.free(ring, k), embed_rank(ring, k)
        covariant = factors(evaluate_chain(x, free))
        assert factors(hom_group(embedded, x)) == covariant
        assert factors(hom_group(x, embedded)) == factors(evaluate_chain(dual_chain(x), free))
        nonzero += covariant != ()
    assert nonzero > 0


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_evaluation_is_exact_by_counting(ring):
    """For u: x -> y and a finite M, |F_x(M)| = |F_ker u(M)| |F_im u(M)|
    and |F_y(M)| = |F_im u(M)| |F_coker u(M)|."""
    rng = random.Random(1900 + (ring.modulus or 0))
    nonzero = [0, 0, 0]
    for _ in range(40):
        x, y = random_chain(rng, ring), random_chain(rng, ring)
        u = random_morphism(rng, x, y)
        parts = (kernel(u).object, image_factorization(u).object, cokernel(u).object)
        for _ in range(3):
            m = random_finite_module(rng, ring)
            ox, oy = (product_order(factors(evaluate_chain(c, m))) for c in (x, y))
            ok, oi, oc = (product_order(factors(evaluate_chain(c, m))) for c in parts)
            assert ox == ok * oi
            assert oy == oi * oc
            nonzero = [k + (o > 1) for k, o in zip(nonzero, (ok, oi, oc))]
    assert min(nonzero) > 0


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_hom_is_additive_in_both_arguments(ring):
    """Hom(x + x', y) = Hom(x, y) + Hom(x', y), and the same in y."""
    rng, chains = _chains(2000 + (ring.modulus or 0), ring, 45, 2)
    nonzero = 0
    for x, x2, y in zip(chains[0::3], chains[1::3], chains[2::3]):
        left = hom_group(direct_sum_objects(x, x2), y)
        assert factors(left) == regrouped(factors(hom_group(x, y)) + factors(hom_group(x2, y)))
        right = hom_group(y, direct_sum_objects(x, x2))
        assert factors(right) == regrouped(factors(hom_group(y, x)) + factors(hom_group(y, x2)))
        nonzero += factors(left) != ()
    assert nonzero > 0


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(8), Zmod(12)], ids=str)
def test_hom_of_finite_modules_between_their_presentations(ring):
    """Hom(M, N) = prod gcd(a_i, b_j) over the invariant factors of M and
    N, read as the hom group between the chains R^k -> R^r -> 0 that
    present them: strictly commuting (Y, F) modulo the F = R_N s."""
    rng = random.Random(2200 + (ring.modulus or 0))
    nonzero = 0
    for _ in range(75):
        m, n = random_finite_module(rng, ring), random_finite_module(rng, ring)
        want = prod(gcd(a, b) for a in factors(m) for b in factors(n))
        assert hom_group(_presented(m.relations), _presented(n.relations)).order() == want
        nonzero += want > 1
    assert nonzero > 5


def _exact_chain(rng: random.Random) -> ChainObject:
    """Z^n1 -> Z^n2 -> Z^n3 with m2 @ m1 = 0: the rows of m2 are random
    combinations of the left kernel of m1."""
    n1, n2, n3 = (rng.randint(0, 4) for _ in range(3))
    m1 = random_matrix(rng, ZZ, n2, n1, -4, 4)
    left_kernel = kernel_gens(m1.transpose()).transpose()
    m2 = random_matrix(rng, ZZ, n3, left_kernel.rows, -3, 3) @ left_kernel
    return ChainObject(ZZ, m1, m2)


def test_universal_coefficients_on_exact_chains():
    rng = random.Random(2100)
    nonzero = 0
    for _ in range(300):
        x = _exact_chain(rng)
        assert (x.m2 @ x.m1).is_zero
        b = rng.randint(2, 12)
        homology = factors(evaluate_chain(x, FpModule.free(ZZ, 1)))
        coker = factors(FpModule(ZZ, x.n3, x.m2))
        # Z/h (x) Z/b = Z/gcd(h, b) (Z/b for h = 0); Tor(Z/c, Z/b) = Z/gcd(c, b), Tor(Z, Z/b) = 0
        want = regrouped([gcd(h, b) for h in homology] + [gcd(c, b) for c in coker if c])
        got = factors(evaluate_chain(x, FpModule.from_invariant_factors(ZZ, [b])))
        assert got == want
        nonzero += got != ()
    assert nonzero > 100
