"""Property suites behind both the acceptance tests and the `selftest`
command.  Each suite returns (ok, detail); detail names the first failing
instance so a red run is actionable.  Counts are parameters: callers pick
fast smoke counts or the full certification counts.  Every verdict is
certified by a literal identity or an explicit isomorphism; the probe
modules of `default_battery` are only fixtures (the golden membership
profile and the duality suite's square probe).
"""

from __future__ import annotations

import random

from .chains import (
    ChainMorphism,
    ChainObject,
    compose,
    cokernel,
    homotopy_witness,
    identity_morphism,
    image_factorization,
    is_isomorphism,
    is_null_homotopic,
    is_zero_object,
    kernel,
    lift_through_kernel,
    middle_factorization,
    morphisms_equal,
)
from .definable import (
    COLUMN,
    PAPER_ROW,
    DefinableFamily,
    chain_member,
    chain_to_pair,
    dual_chain,
    dual_morphism,
    dual_pair,
    dual_square,
    pair_member,
)
from .fpmodules import FpModule, snake_sequence
from .linalg import Matrix, RingSpec, Zmod, ZZ, is_unimodular, snf
from .randgen import (
    random_chain,
    random_finite_module,
    random_matrix,
    random_module,
    random_module_map,
    random_morphism,
    random_square,
)
from .squares import (
    FpSquare,
    chain_to_square,
    evaluate_chain,
    evaluate_square,
    roundtrip_morphism,
    square_to_chain,
)

DEFAULT_SEED = 20260819

_RINGS = (ZZ, Zmod(4), Zmod(6))


def default_battery(ring: RingSpec) -> tuple[FpModule, ...]:
    """Small fixed list of probe modules: the fixture behind the golden
    example's membership profile and the duality suite's square probe.
    Agreement on it is only necessary for two objects to agree, so no
    verdict compares objects on it."""
    if ring.is_modular:
        n = ring.modulus
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        shapes = [[]]
        shapes += [[d] for d in divisors]
        shapes += [[d, n] for d in divisors if d < n]
    else:
        shapes = [[], [2], [2, 2], [3], [4], [6], [0], [2, 0]]
    return tuple(FpModule.from_invariant_factors(ring, s) for s in shapes)


def golden_fixture_chain() -> ChainObject:
    return ChainObject(
        ZZ,
        Matrix.from_rows(ZZ, [[-1], [2]]),
        Matrix.from_rows(ZZ, [[0, -1]]),
    )


def golden_fixture_square() -> FpSquare:
    return FpSquare(
        ZZ,
        Matrix.from_rows(ZZ, [[1]]),
        Matrix.from_rows(ZZ, [[2]]),
        Matrix.zeros(ZZ, 0, 1),
        Matrix.zeros(ZZ, 0, 1),
    )


def golden_example_suite(**_ignored) -> tuple[bool, str]:
    """The one worked instance: square -> chain conversion certified by an
    isomorphism, row pair read-off, fixed membership profile on the battery."""
    x = golden_fixture_chain()
    built = square_to_chain(golden_fixture_square())
    expected_chain = ChainObject(
        ZZ,
        Matrix.from_rows(ZZ, [[1], [-2]]),
        Matrix.from_rows(ZZ, [[0, -1]]),
    )
    if built != expected_chain:
        return False, f"square converted to unexpected chain {built}"
    if not is_isomorphism(ChainMorphism(built, x, Matrix.from_rows(ZZ, [[-1]]),
                                        Matrix.identity(ZZ, 2), Matrix.from_rows(ZZ, [[1]]))):
        return False, "converted square is not isomorphic to the reference chain"

    pair = chain_to_pair(x, PAPER_ROW)
    if pair.u != Matrix.from_rows(ZZ, [[-1, 2]]):
        return False, f"row pair has U = {pair.u.to_rows()}"
    if pair.v != Matrix.from_rows(ZZ, [[0], [-1]]):
        return False, f"row pair has V = {pair.v.to_rows()}"

    battery = default_battery(ZZ)
    expected = [True, True, True, False, False, False, False, False]
    got = [chain_member(x, m) for m in battery]
    if got != expected:
        return False, f"membership profile {got}, expected {expected}"
    col = chain_to_pair(x, COLUMN)
    for m in battery:
        if pair_member(pair, m) != chain_member(x, m) or \
                pair_member(col, m) != chain_member(x, m):
            return False, f"pair conventions disagree on {m.invariant_factors}"
    return True, "conversion, pair read-off and 8-module membership profile all match"


def evaluation_equivalence_suite(count: int = 200, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Squares and chains evaluate identically through the translation, in
    both directions."""
    rng = random.Random(seed)
    for i in range(count):
        ring = _RINGS[i % len(_RINGS)]
        s = random_square(rng, ring)
        m = random_module(rng, ring)
        left = evaluate_square(s, m).invariant_factors
        right = evaluate_chain(square_to_chain(s), m).invariant_factors
        if left != right:
            return False, f"square instance {i} over {ring}: {left} != {right}"
    for i in range(count):
        ring = _RINGS[i % len(_RINGS)]
        x = random_chain(rng, ring)
        m = random_module(rng, ring)
        left = evaluate_chain(x, m).invariant_factors
        right = evaluate_square(chain_to_square(x), m).invariant_factors
        if left != right:
            return False, f"chain instance {i} over {ring}: {left} != {right}"
    return True, f"{count} square and {count} chain instances agree"


def roundtrip_suite(count: int = 100, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """chain -> square -> chain is certified isomorphic to the identity."""
    rng = random.Random(seed)
    for i in range(count):
        ring = _RINGS[i % len(_RINGS)]
        x = random_chain(rng, ring)
        if not is_isomorphism(roundtrip_morphism(x)):
            return False, f"roundtrip comparison not iso at instance {i} over {ring}"
    return True, f"{count} roundtrips certified isomorphisms"


def _lifts_to_isomorphism(w: ChainMorphism, v: ChainMorphism) -> bool:
    """w: X -> Y is killed by v, and its lift through kernel(v) is an
    isomorphism X -> kernel(v).object."""
    witness = homotopy_witness(compose(w, v))
    return witness is not None and is_isomorphism(lift_through_kernel(w, v, witness))


def abelian_structure_suite(count: int = 100, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Kernels kill, cokernels are killed, identities have zero (co)kernels,
    and the image of the two-step factorization rebuilds the object: q =
    (I, I, 0): x -> (X1 -> X2 -> 0) lifts through it to an isomorphism."""
    rng = random.Random(seed)
    for i in range(count):
        ring = _RINGS[i % len(_RINGS)]
        x = random_chain(rng, ring)
        y = random_chain(rng, ring)
        u = random_morphism(rng, x, y)
        if not is_null_homotopic(compose(kernel(u).morphism, u)):
            return False, f"kernel inclusion survives u at instance {i} over {ring}"
        if not is_null_homotopic(compose(u, cokernel(u).morphism)):
            return False, f"u survives its cokernel at instance {i} over {ring}"

        ident = identity_morphism(x)
        if not is_zero_object(kernel(ident).object):
            return False, f"identity has nonzero kernel at instance {i} over {ring}"
        if not is_zero_object(cokernel(ident).object):
            return False, f"identity has nonzero cokernel at instance {i} over {ring}"

        mid = middle_factorization(x)
        fac = image_factorization(mid.connecting)
        if not morphisms_equal(compose(fac.epi, fac.mono), mid.connecting):
            return False, f"epi-mono composite drifts at instance {i} over {ring}"
        q = ChainMorphism(x, mid.cokernel_side.dst, Matrix.identity(ring, x.n1),
                          Matrix.identity(ring, x.n2), Matrix.zeros(ring, 0, x.n3))
        if not _lifts_to_isomorphism(q, cokernel(mid.connecting).morphism):
            return False, f"image does not rebuild the object at instance {i} over {ring}"
    return True, f"{count} morphisms pass kernel/cokernel/image checks"


def snake_suite(count: int = 60, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Six-term kernel-cokernel sequences: exactness at the four interior
    spots plus the alternating order identity, fixture first."""
    doubling = Matrix.from_rows(ZZ, [[2]])
    four = FpModule(ZZ, 1, Matrix.from_rows(ZZ, [[4]]))
    snake = snake_sequence(doubling, doubling, four, four, four)
    orders = tuple(m.order() for m in snake.modules)
    if orders != (2, 4, 2, 2, 4, 2):
        return False, f"fixture orders {orders}"
    if not snake.order_identity_holds():
        return False, "fixture order identity fails"
    if not snake.verify_exact():
        return False, "fixture sequence not exact"

    rng = random.Random(seed)
    for i in range(count):
        ring = _RINGS[i % len(_RINGS)]
        mods = [random_finite_module(rng, ring) for _ in range(3)]
        f = random_module_map(rng, mods[0], mods[1])
        g = random_module_map(rng, mods[1], mods[2])
        snake = snake_sequence(f, g, *mods)
        if not snake.verify_exact():
            return False, f"sequence not exact at instance {i} over {ring}"
        if not snake.order_identity_holds():
            return False, f"order identity fails at instance {i} over {ring}"
    return True, f"fixture and {count} random snakes exact with matching orders"


def duality_suite(count: int = 50, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Transpose duality: involutive on chains and pairs, swaps kernels with
    cokernels literally, commutes with the square translation (probed on the
    battery), and evaluates like the chain on a finite module (Auslander-
    Gruson-Jensen: a finite module is isomorphic to its character dual)."""
    rng = random.Random(seed)
    for i in range(count):
        ring = _RINGS[i % len(_RINGS)]
        x = random_chain(rng, ring)
        if dual_chain(dual_chain(x)) != x:
            return False, f"chain duality not involutive at instance {i} over {ring}"
        p = chain_to_pair(x, PAPER_ROW)
        if dual_pair(dual_pair(p)) != p:
            return False, f"pair duality not involutive at instance {i} over {ring}"

        y = random_chain(rng, ring)
        u = random_morphism(rng, x, y)
        if dual_chain(kernel(u).object) != cokernel(dual_morphism(u)).object:
            return False, f"dual of kernel misses cokernel of dual at instance {i}"

        s = random_square(rng, ring)
        ds = dual_square(s)
        dch = dual_chain(square_to_chain(s))
        for m in default_battery(ring):
            if evaluate_square(ds, m).invariant_factors != \
                    evaluate_chain(dch, m).invariant_factors:
                return False, f"dual square evaluation drifts at instance {i} over {ring}"

        m = random_finite_module(rng, ring)
        if evaluate_chain(dual_chain(x), m).invariant_factors != \
                evaluate_chain(x, m).invariant_factors:
            return False, f"AGJ duality fails on a finite module at instance {i} over {ring}"
    return True, f"{count} duality instances pass"


def closure_suite(count: int = 100, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Family membership is a direct-sum congruence: a sum belongs exactly
    when both summands do."""
    rng = random.Random(seed)
    for i in range(count):
        ring = _RINGS[i % len(_RINGS)]
        fam = DefinableFamily(
            ring, tuple(random_chain(rng, ring) for _ in range(rng.randint(0, 2)))
        )
        m = random_module(rng, ring)
        n = random_module(rng, ring)
        both = all(chain_member(x, m) and chain_member(x, n) for x in fam.members)
        summed = all(chain_member(x, m.direct_sum(n)) for x in fam.members)
        if both != summed:
            return False, f"direct-sum closure fails at instance {i} over {ring}"
    return True, f"{count} direct-sum triples respect membership"


def snf_suite(count: int = 500, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Certificate, unimodularity and divisibility chain on random matrices."""
    rng = random.Random(seed)
    for i in range(count):
        ring = _RINGS[i % len(_RINGS)]
        m = random_matrix(rng, ring, rng.randint(0, 6), rng.randint(0, 6), -20, 20)
        res = snf(m)
        if res.P @ m @ res.Q != res.S:
            return False, f"certificate fails at instance {i} over {ring}"
        if not (is_unimodular(res.P) and is_unimodular(res.Q)):
            return False, f"transforms not unimodular at instance {i} over {ring}"
        diag = res.diagonal()
        for j in range(res.S.rows):
            for k in range(res.S.cols):
                if j != k and res.S.entry(j, k) != 0:
                    return False, f"off-diagonal junk at instance {i} over {ring}"
        for a, b in zip(diag, diag[1:]):
            if not ring.divides(a, b):
                return False, f"divisibility breaks at instance {i} over {ring}"
        if not ring.is_modular and any(d < 0 for d in diag):
            return False, f"negative diagonal at instance {i}"
    return True, f"{count} matrices pass certificate/unimodular/divisibility checks"


ALL_SUITES = (
    ("golden-example", golden_example_suite),
    ("evaluation-equivalence", evaluation_equivalence_suite),
    ("roundtrip", roundtrip_suite),
    ("abelian-structure", abelian_structure_suite),
    ("snake", snake_suite),
    ("duality", duality_suite),
    ("closure", closure_suite),
    ("snf", snf_suite),
)

SELFTEST_COUNTS = {
    "evaluation-equivalence": 45,
    "roundtrip": 30,
    "abelian-structure": 24,
    "snake": 18,
    "duality": 18,
    "closure": 45,
    "snf": 120,
}


def run_all(counts: dict | None = None):
    """Run every suite; returns (name, ok, detail) in declaration order."""
    counts = counts or {}
    return [(name, *(fn(count=counts[name]) if name in counts else fn()))
            for name, fn in ALL_SUITES]
