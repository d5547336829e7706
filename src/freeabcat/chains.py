"""The free abelian category over finitely generated projectives, presented
by three-term chains of free modules.

An object is a pair of composable matrices ring^n1 -> ring^n2 -> ring^n3;
the two maps need not compose to zero.  A morphism is a strictly commuting
triple of matrices, and two triples represent the same arrow exactly when
their difference has null-homotopic middle: a2 = dst.m1 @ s + t @ src.m2
for some s, t.  Kernels and cokernels are given by explicit block formulas,
which is what makes the whole category computable.

Equality, zero objects, isomorphisms, hom groups and images all rest on
that homotopy equation (Roth's equation AX - YB = C over Z or Z/n), solved
in Smith coordinates over the chain's own ring: P_A @ dst.m1 @ Q_A =
diag(alpha) and P_B @ src.m2 @ Q_B = diag(beta) split it into one equation
c'_ij = alpha_i s'_ij + beta_j t'_ij per entry of c' = P_A @ a2 @ Q_B,
solvable exactly when gcd(alpha_i, beta_j[, n]) divides c'_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InternalInvariantError, InvariantViolation, RingMismatch
from .fpmodules import FpModule, present_quotient
from .linalg import (
    Matrix,
    RingSpec,
    block,
    block_diagonal,
    hstack,
    kernel_gens,
    kron,
    snf,
    solve_linear,
    unimodular_inverse,
    unvec_row,
    vec_row,
    vstack,
)


@dataclass(frozen=True)
class ChainObject:
    """ring^n1 --m1--> ring^n2 --m2--> ring^n3 (no composability-to-zero
    requirement; m1 is n2 x n1 and m2 is n3 x n2)."""

    ring: RingSpec
    m1: Matrix
    m2: Matrix

    def __post_init__(self):
        if self.m1.ring != self.ring or self.m2.ring != self.ring:
            raise RingMismatch("chain matrices over the wrong ring")
        if self.m2.cols != self.m1.rows:
            raise DimensionMismatch(
                f"m2 has {self.m2.cols} columns but m1 has {self.m1.rows} rows"
            )

    @property
    def n1(self) -> int:
        return self.m1.cols

    @property
    def n2(self) -> int:
        return self.m1.rows

    @property
    def n3(self) -> int:
        return self.m2.rows

    @property
    def ranks(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)


def embed_rank(ring: RingSpec, rank: int) -> ChainObject:
    """Embedding of a rank-`rank` free module: the chain 0 -> ring^rank -> 0."""
    return ChainObject(ring, Matrix.zeros(ring, rank, 0), Matrix.zeros(ring, 0, rank))


def zero_chain(ring: RingSpec) -> ChainObject:
    return embed_rank(ring, 0)


@dataclass(frozen=True)
class ChainMorphism:
    """Strictly commuting triple src -> dst; validated on construction."""

    src: ChainObject
    dst: ChainObject
    a1: Matrix
    a2: Matrix
    a3: Matrix

    def __post_init__(self):
        if self.src.ring != self.dst.ring:
            raise RingMismatch("morphism between chains over different rings")
        shapes = (
            (self.a1, self.dst.n1, self.src.n1),
            (self.a2, self.dst.n2, self.src.n2),
            (self.a3, self.dst.n3, self.src.n3),
        )
        for mat, r, c in shapes:
            if mat.ring != self.src.ring:
                raise RingMismatch("morphism component over the wrong ring")
            if (mat.rows, mat.cols) != (r, c):
                raise DimensionMismatch(
                    f"component is {mat.rows}x{mat.cols}, expected {r}x{c}"
                )
        if self.a2 @ self.src.m1 != self.dst.m1 @ self.a1:
            raise InvariantViolation("first square does not commute strictly")
        if self.a3 @ self.src.m2 != self.dst.m2 @ self.a2:
            raise InvariantViolation("second square does not commute strictly")

    def __sub__(self, other: "ChainMorphism") -> "ChainMorphism":
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch("difference of morphisms with different ends")
        return ChainMorphism(self.src, self.dst,
                             self.a1 - other.a1, self.a2 - other.a2, self.a3 - other.a3)


def identity_morphism(x: ChainObject) -> ChainMorphism:
    eye = Matrix.identity
    return ChainMorphism(x, x, eye(x.ring, x.n1), eye(x.ring, x.n2), eye(x.ring, x.n3))


def zero_morphism(src: ChainObject, dst: ChainObject) -> ChainMorphism:
    z = Matrix.zeros
    return ChainMorphism(src, dst,
                         z(src.ring, dst.n1, src.n1),
                         z(src.ring, dst.n2, src.n2),
                         z(src.ring, dst.n3, src.n3))


def compose(u: ChainMorphism, v: ChainMorphism) -> ChainMorphism:
    """u followed by v."""
    if u.dst != v.src:
        raise DimensionMismatch("composition ends do not meet")
    return ChainMorphism(u.src, v.dst, v.a1 @ u.a1, v.a2 @ u.a2, v.a3 @ u.a3)


def direct_sum_objects(x: ChainObject, y: ChainObject) -> ChainObject:
    if x.ring != y.ring:
        raise RingMismatch("direct sum over mixed rings")
    return ChainObject(x.ring, block_diagonal(x.m1, y.m1), block_diagonal(x.m2, y.m2))


# -- the homotopy ideal ----------------------------------------------------


def _xgcd(*values: int) -> tuple[int, list[int]]:
    """(g, coefficients) with g = gcd(values) >= 0 and the sum of
    value * coefficient equal to g; a zero value gets coefficient 0."""
    g, coeffs = 0, []
    for v in values:
        a, b, x0, y0, x1, y1 = g, v, 1, 0, 0, 1
        while b:
            q, r = divmod(a, b)
            a, b, x0, y0, x1, y1 = b, r, x1, y1, x0 - q * x1, y0 - q * y1
        if a < 0:
            a, x0, y0 = -a, -x0, -y0
        g, coeffs = a, [c * x0 for c in coeffs] + [y0]
    return g, coeffs


def _smith_homotopy(src: ChainObject, dst: ChainObject):
    """The homotopy map (s, t) |-> dst.m1 @ s + t @ src.m2 in Smith
    coordinates, as (snf of dst.m1, snf of src.m2, bezout).

    With Smith forms over the chain's own ring, Z or Z/n, P_A @ dst.m1 @ Q_A
    = diag(alpha) and P_B @ src.m2 @ Q_B = diag(beta), c = dst.m1 @ s + t @
    src.m2 reads c' = diag(alpha) @ s' + t' @ diag(beta) in c' = P_A @ c @
    Q_B, s' = Q_A^-1 @ s @ Q_B and t' = P_A @ t @ P_B^-1: one equation
    c'_ij = alpha_i s'_ij + beta_j t'_ij per entry, solvable exactly when
    g_ij = gcd(alpha_i, beta_j[, n]) divides c'_ij.  alpha is 0 past the
    diagonal of dst.m1 (up to dst.n2) and beta past that of src.m2 (up to
    src.n2).  `bezout[i][j]` is `_xgcd(alpha_i, beta_j[, n])`: g_ij and the
    coefficients of alpha_i and beta_j that reach it.
    """
    a, b = snf(dst.m1), snf(src.m2)
    alpha, beta = a.diagonal(dst.n2), b.diagonal(src.n2)
    mod = (src.ring.modulus,) if src.ring.is_modular else ()
    return a, b, [[_xgcd(ai, bj, *mod) for bj in beta] for ai in alpha]


def _homotopy_ideal(src: ChainObject, dst: ChainObject) -> tuple[Matrix, Matrix]:
    """(k, g) such that vec_row(c) lies in the span of the homotopy map
    exactly when k @ vec_row(c) lies in the column span of g.

    vec_row(P_A @ c @ Q_B) = kron(P_A, Q_B^T) @ vec_row(c), and g is
    diag(g_ij) (see `_smith_homotopy`).  k holds the rows (i, j) of that
    kron, row i of P_A times column j of Q_B, whose g_ij is not a unit; the
    other entries constrain nothing, and their rows are never built.
    """
    ring = src.ring
    a, b, bezout = _smith_homotopy(src, dst)
    kept = [(i, j) for i, row in enumerate(bezout)
            for j, (g, _) in enumerate(row) if not ring.is_unit(g)]
    q_cols = list(zip(*b.q_rows))
    k = Matrix.from_rows(ring, [[x * y for x in a.p_rows[i] for y in q_cols[j]]
                                for i, j in kept], cols=dst.n2 * src.n2)
    return k, Matrix.diagonal(ring, [bezout[i][j][0] for i, j in kept])


def homotopy_witness(u: ChainMorphism) -> tuple[Matrix, Matrix] | None:
    """(s, t) with u.a2 = dst.m1 @ s + t @ src.m2, if one exists.

    Decided entry by entry in Smith coordinates (see `_smith_homotopy`):
    u is null-homotopic exactly when every g_ij divides c'_ij, and then
    s'_ij, t'_ij come from the extended gcd.  The witness is mapped back
    with the transforms and their inverses over the chain's ring, and
    certified by the literal identity before it is returned.
    """
    src, dst, ring = u.src, u.dst, u.src.ring
    a, b, bezout = _smith_homotopy(src, dst)
    s = [[0] * src.n2 for _ in range(dst.n1)]
    t = [[0] * src.n3 for _ in range(dst.n2)]
    coords = a.P @ u.a2 @ b.Q
    for i, row in enumerate(coords.to_rows()):
        for j, v in enumerate(row):
            g, (x, y, *_) = bezout[i][j]
            if (v % g if g else v) != 0:
                return None
            q = v // g if g else 0
            if i < dst.n1:
                s[i][j] = x * q
            if j < src.n3:
                t[i][j] = y * q
    s = a.Q @ Matrix.from_rows(ring, s, cols=src.n2) @ unimodular_inverse(b.Q)
    t = unimodular_inverse(a.P) @ Matrix.from_rows(ring, t, cols=src.n3) @ b.P
    if dst.m1 @ s + t @ src.m2 != u.a2:
        raise InternalInvariantError("homotopy witness fails its identity")
    return s, t


def is_null_homotopic(u: ChainMorphism) -> bool:
    return homotopy_witness(u) is not None


def morphisms_equal(u: ChainMorphism, v: ChainMorphism) -> bool:
    """Equality in the category: the difference is null-homotopic."""
    return is_null_homotopic(u - v)


def is_zero_object(x: ChainObject) -> bool:
    """A chain is the zero object exactly when its identity is null-homotopic."""
    return is_null_homotopic(identity_morphism(x))


# -- kernels, cokernels, images -------------------------------------------


@dataclass(frozen=True)
class ChainWithMap:
    object: ChainObject
    morphism: ChainMorphism


def kernel(u: ChainMorphism) -> ChainWithMap:
    """Kernel by the block formula; the structure map projects onto the
    source summands componentwise."""
    x, y = u.src, u.dst
    ring = x.ring
    eye, zeros = Matrix.identity, Matrix.zeros
    k1 = block([
        [x.m1, zeros(ring, x.n2, y.n1)],
        [u.a1, -eye(ring, y.n1)],
    ])
    k2 = block([
        [x.m2, zeros(ring, x.n3, y.n1)],
        [u.a2, -y.m1],
    ])
    obj = ChainObject(ring, k1, k2)
    mor = ChainMorphism(
        obj, x,
        hstack(eye(ring, x.n1), zeros(ring, x.n1, y.n1)),
        hstack(eye(ring, x.n2), zeros(ring, x.n2, y.n1)),
        hstack(eye(ring, x.n3), zeros(ring, x.n3, y.n2)),
    )
    return ChainWithMap(obj, mor)


def lift_through_kernel(w: ChainMorphism, v: ChainMorphism,
                        witness: tuple[Matrix, Matrix]) -> ChainMorphism:
    """The kernel's universal property: w: X -> Y with v @ w null-homotopic
    by `witness` = (s, t) factors as kernel(v).morphism @ e, literally, with
    e = ([w1; v.a1 w1 - s X.m1], [w2; s], [w3; t]): X -> kernel(v).object."""
    s, t = witness
    return ChainMorphism(w.src, kernel(v).object,
                         vstack(w.a1, v.a1 @ w.a1 - s @ w.src.m1),
                         vstack(w.a2, s), vstack(w.a3, t))


def cokernel(u: ChainMorphism) -> ChainWithMap:
    """Cokernel by the block formula; the structure map includes the target
    summands componentwise."""
    x, y = u.src, u.dst
    ring = x.ring
    eye, zeros = Matrix.identity, Matrix.zeros
    c1 = block([
        [y.m1, u.a2],
        [zeros(ring, x.n3, y.n1), -x.m2],
    ])
    c2 = block([
        [y.m2, u.a3],
        [zeros(ring, x.n3, y.n2), -eye(ring, x.n3)],
    ])
    obj = ChainObject(ring, c1, c2)
    mor = ChainMorphism(
        y, obj,
        vstack(eye(ring, y.n1), zeros(ring, x.n2, y.n1)),
        vstack(eye(ring, y.n2), zeros(ring, x.n3, y.n2)),
        vstack(eye(ring, y.n3), zeros(ring, x.n3, y.n3)),
    )
    return ChainWithMap(obj, mor)


def is_isomorphism(u: ChainMorphism) -> bool:
    """Mono plus epi, decided exactly through zero kernel and zero cokernel."""
    return is_zero_object(kernel(u).object) and is_zero_object(cokernel(u).object)


@dataclass(frozen=True)
class ImageFactorization:
    object: ChainObject
    mono: ChainMorphism   # image -> dst
    epi: ChainMorphism    # src -> image


def image_factorization(u: ChainMorphism) -> ImageFactorization:
    """Factor u as (src --epi--> image --mono--> dst), with mono the kernel
    of the cokernel of u and epi found by one linear solve.

    epi commutes strictly, and mono.a2 @ e2 - u.a2 must be null-homotopic;
    that condition is taken in Smith coordinates (`_homotopy_ideal`): each
    entry of P_A @ (mono.a2 @ e2 - u.a2) @ Q_B is a multiple of its g_ij.
    """
    src, dst = u.src, u.dst
    ring = src.ring
    im = kernel(cokernel(u).morphism)
    obj, mono = im.object, im.morphism

    # unknown column: [vec e1 | vec e2 | vec e3 | multiples of the g_ij]
    commute = _commute_matrix(src, obj)
    k, g = _homotopy_ideal(src, dst)
    zeros = Matrix.zeros
    system = block([
        [commute, zeros(ring, commute.rows, g.cols)],
        [zeros(ring, k.rows, obj.n1 * src.n1),
         k @ kron(mono.a2, Matrix.identity(ring, src.n2)),
         zeros(ring, k.rows, obj.n3 * src.n3),
         -g],
    ])
    rhs = vstack(zeros(ring, commute.rows, 1), k @ vec_row(u.a2))
    sol = solve_linear(system, rhs)
    if sol is None:
        raise InternalInvariantError("image factorization solve failed")
    epi = triple_from_vector(src, obj, sol.submatrix(0, commute.cols, 0, 1))
    return ImageFactorization(obj, mono, epi)


@dataclass(frozen=True)
class MiddleFactorization:
    """X presented as the image of a map between chains concentrated in two
    spots, with the embedded middle free module in between."""

    kernel_side: ChainMorphism      # (0 -> X2 -> X3) -> embed(X2)
    cokernel_side: ChainMorphism    # embed(X2) -> (X1 -> X2 -> 0)
    connecting: ChainMorphism       # their composite


def middle_factorization(x: ChainObject) -> MiddleFactorization:
    ring = x.ring
    zeros = Matrix.zeros
    eye = Matrix.identity(ring, x.n2)
    left = ChainObject(ring, zeros(ring, x.n2, 0), x.m2)
    mid = embed_rank(ring, x.n2)
    right = ChainObject(ring, x.m1, zeros(ring, 0, x.n2))
    k = ChainMorphism(left, mid, zeros(ring, 0, 0), eye, zeros(ring, 0, x.n3))
    c = ChainMorphism(mid, right, zeros(ring, x.n1, 0), eye, zeros(ring, 0, 0))
    return MiddleFactorization(k, c, compose(k, c))


# -- hom groups ------------------------------------------------------------


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
    """Stacked generating vectors for the strictly commuting triples."""
    return kernel_gens(_commute_matrix(x, y))


def hom_group(x: ChainObject, y: ChainObject) -> FpModule:
    """Hom(x, y) as a finitely presented module: strictly commuting triples
    modulo the ones with null-homotopic middle.

    A combination of triples has null-homotopic middle exactly when, in
    Smith coordinates (`_homotopy_ideal`), each entry of its middle is a
    multiple of its g_ij = gcd(alpha_i, beta_j[, n]).  So on the triple
    generators the relations are the c with k @ mid(c) in span(g), which
    is the presentation of span(k @ mid) / span(g).
    """
    if x.ring != y.ring:
        raise RingMismatch("hom over mixed rings")
    triples = hom_triple_gens(x, y)
    d1, d2 = y.n1 * x.n1, y.n2 * x.n2
    mid_rows = triples.submatrix(d1, d1 + d2, 0, triples.cols)
    k, g = _homotopy_ideal(x, y)
    return present_quotient(k @ mid_rows, g)


def triple_from_vector(x: ChainObject, y: ChainObject, v: Matrix) -> ChainMorphism:
    """Unpack a stacked coefficient vector into a morphism x -> y."""
    d1, d2, d3 = y.n1 * x.n1, y.n2 * x.n2, y.n3 * x.n3
    if v.rows != d1 + d2 + d3 or v.cols != 1:
        raise DimensionMismatch("triple vector has the wrong length")
    return ChainMorphism(
        x, y,
        unvec_row(v.submatrix(0, d1, 0, 1), y.n1, x.n1),
        unvec_row(v.submatrix(d1, d1 + d2, 0, 1), y.n2, x.n2),
        unvec_row(v.submatrix(d1 + d2, d1 + d2 + d3, 0, 1), y.n3, x.n3),
    )
