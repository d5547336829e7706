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
solvable exactly when gcd(alpha_i, beta_j[, n]) divides c'_ij.  The four
transforms and their inverses act as the operators of the two Smith forms
(see `linalg`): a witness applies them to c', s' and t' and builds none.
The same two Smith forms decide which middles extend to a commuting
triple, as a lattice of y = P_A @ a2 @ Q_B (`_middles`) in which only the
entries at a non-unit alpha_i or beta_j are solved for.  A middle y is
null-homotopic exactly when each g_ij divides y_ij, so hom groups read the
lattice with no transform; images and random morphisms map y back, and
`_extend` recovers a1 and a3 on the same two Smith forms.
"""

from __future__ import annotations

from .errors import DimensionMismatch, InternalInvariantError, InvariantViolation, RingMismatch
from .fpmodules import FpModule, present_quotient
from .linalg import (
    Matrix,
    RingSpec,
    SnfResult,
    _Cached,
    _Value,
    _from_cols,
    _from_rows,
    _solve,
    _transpose,
    block,
    block_diagonal,
    hstack,
    kron,
    preimage_gens,
    snf,
    solve_linear,
    vstack,
)


class ChainObject(_Cached):
    """ring^n1 --m1--> ring^n2 --m2--> ring^n3 (no composability-to-zero
    requirement; m1 is n2 x n1 and m2 is n3 x n2)."""

    def __init__(self, ring: RingSpec, m1: Matrix, m2: Matrix):
        vars(self).update(ring=ring, m1=m1, m2=m2)
        if m1.ring != ring or m2.ring != ring:
            raise RingMismatch("chain matrices over the wrong ring")
        if m2.cols != m1.rows:
            raise DimensionMismatch(f"m2 has {m2.cols} columns but m1 has {m1.rows} rows")

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


def _presented(m: Matrix) -> ChainObject:
    """The chain ring^cols --m--> ring^rows --> 0."""
    return ChainObject(m.ring, m, Matrix.zeros(m.ring, 0, m.rows))


class ChainMorphism(_Value):
    """Strictly commuting triple src -> dst; validated on construction."""

    def __init__(self, src: ChainObject, dst: ChainObject, a1: Matrix, a2: Matrix, a3: Matrix):
        vars(self).update(src=src, dst=dst, a1=a1, a2=a2, a3=a3)
        if src.ring != dst.ring:
            raise RingMismatch("morphism between chains over different rings")
        shapes = ((a1, dst.n1, src.n1), (a2, dst.n2, src.n2), (a3, dst.n3, src.n3))
        for mat, r, c in shapes:
            if mat.ring != src.ring:
                raise RingMismatch("morphism component over the wrong ring")
            if (mat.rows, mat.cols) != (r, c):
                raise DimensionMismatch(f"component is {mat.rows}x{mat.cols}, expected {r}x{c}")
        if a2 @ src.m1 != dst.m1 @ a1:
            raise InvariantViolation("first square does not commute strictly")
        if a3 @ src.m2 != dst.m2 @ a2:
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
    coefficients of alpha_i and beta_j that reach it, computed once for
    each distinct pair of values.
    """
    a, b = snf(dst.m1), snf(src.m2)
    alpha, beta = a.diagonal(dst.n2), b.diagonal(src.n2)
    mod = (src.ring.modulus,) if src.ring.is_modular else ()
    xgcd = {(ai, bj): _xgcd(ai, bj, *mod) for ai in set(alpha) for bj in set(beta)}
    return a, b, [[xgcd[ai, bj] for bj in beta] for ai in alpha]


def _obstructed(ring: RingSpec, bezout) -> list[tuple[int, int, int]]:
    """(i, j, g_ij) for each entry of c' whose g_ij is not a unit: the only
    entries that decide whether a middle is null-homotopic."""
    return [(i, j, g) for i, row in enumerate(bezout)
            for j, (g, _) in enumerate(row) if not ring.is_unit(g)]


def _smith_coordinates(a: SnfResult, b: SnfResult, m: Matrix) -> list[list[int]]:
    """The rows of P_A @ m @ Q_B, in [0, n) over Z/n as the operators leave
    them: P_A on the columns of m, then Q_B on the rows."""
    return b.q.rows(_transpose(a.p.cols(_transpose(m.to_rows(), m.cols)), m.rows))


def _middles(src: ChainObject, dst: ChainObject, a: SnfResult, b: SnfResult) -> Matrix:
    """Columns generating the y = P_A @ a2 @ Q_B, read row-major, of the
    middles a2 of the strictly commuting triples src -> dst, given a =
    snf(dst.m1) and b = snf(src.m2) (the coordinates of `_smith_homotopy`).

    a1 exists exactly when row i of y @ C, C = Q_B^-1 @ src.m1, is a
    multiple of alpha_i, and a3 exactly when column j of D @ y, D = dst.m2
    @ P_A^-1, is a multiple of beta_j.  An entry y_ij with alpha_i and
    beta_j both units enters neither and gets a unit vector.  The others
    are the preimage of diag(alpha_i..., beta_j...) under kron(E_I, C^T)
    over kron(D, E_J), restricted to their columns, with E_I and E_J the
    identity rows at the non-unit alpha_i and beta_j.
    """
    ring, w = src.ring, src.n2
    size, alpha, beta = dst.n2 * w, a.diagonal(dst.n2), b.diagonal(w)
    rows = [i for i, v in enumerate(alpha) if not ring.is_unit(v)]
    cols = [j for j, v in enumerate(beta) if not ring.is_unit(v)]
    ct = b.q.inv.cols(_transpose(src.m1.to_rows(), src.n1))
    d = a.p.inv.rows(dst.m2.to_rows())
    e_i = _from_rows(ring, [[int(i == k) for k in range(dst.n2)] for i in rows], dst.n2)
    e_j = _from_rows(ring, [[int(j == k) for k in range(w)] for j in cols], w)
    f = vstack(kron(e_i, _from_rows(ring, ct, w)), kron(_from_rows(ring, d, dst.n2), e_j))
    bound = [p for p in range(size) if p // w in rows or p % w in cols]
    targets = ([alpha[i] for i in rows for _ in range(src.n1)]
               + [beta[j] for _ in range(dst.n3) for j in cols])
    pre = preimage_gens(_from_rows(ring, [[row[p] for p in bound] for row in f.to_rows()],
                                   len(bound)), Matrix.diagonal(ring, targets))
    at = dict(zip(bound, pre.to_rows()))
    free = [p for p in range(size) if p not in at]
    gens = [[0] * len(free) + at.get(p, [0] * pre.cols) for p in range(size)]
    for q, p in enumerate(free):
        gens[p][q] = 1
    return _from_rows(ring, gens, len(free) + pre.cols)


def _extend(src: ChainObject, dst: ChainObject, a: SnfResult, b: SnfResult, y: Matrix,
            z1: Matrix, z3: Matrix) -> ChainMorphism:
    """The commuting triple src -> dst with middle a2 = P_A^-1 @ y @ Q_B^-1,
    for a column y that combines `_middles(src, dst, a, b)`: a1 = z1 + w1
    with dst.m1 @ w1 = a2 @ src.m1 - dst.m1 @ z1, and a3 = z3 + w3 with w3
    @ src.m2 = dst.m2 @ a2 - z3 @ src.m2, solved on a and on the transpose
    of b.  A z that already commutes comes back unchanged, so over all z
    the triples reach every a1 and a3, kernel parts included."""
    w = src.n2
    cols = a.p.inv.cols([list(y.entries[j::w]) for j in range(w)])
    a2 = _from_rows(src.ring, b.q.inv.rows(_transpose(cols, dst.n2)), w)
    w1 = _solve(dst.m1, a, a2 @ src.m1 - dst.m1 @ z1)
    w3 = _solve(src.m2.transpose(), b.transposed(), (dst.m2 @ a2 - z3 @ src.m2).transpose())
    if w1 is None or w3 is None:
        raise InternalInvariantError("middle does not extend to a commuting triple")
    return ChainMorphism(src, dst, z1 + w1, a2, z3 + w3.transpose())


def homotopy_witness(u: ChainMorphism) -> tuple[Matrix, Matrix] | None:
    """(s, t) with u.a2 = dst.m1 @ s + t @ src.m2, if one exists.

    Decided entry by entry in Smith coordinates (see `_smith_homotopy`):
    u is null-homotopic exactly when every g_ij divides c'_ij, and then
    s'_ij, t'_ij come from the extended gcd.  No transform is built: the
    operators of the two Smith forms give c' = P_A @ a2 @ Q_B, s = Q_A @
    s' @ Q_B^-1 and t = P_A^-1 @ t' @ P_B alone.  The witness is
    certified by the literal identity before it is returned.
    """
    src, dst, ring = u.src, u.dst, u.src.ring
    a, b, bezout = _smith_homotopy(src, dst)
    s = [[0] * dst.n1 for _ in range(src.n2)]  # the columns of s'
    t = [[0] * dst.n2 for _ in range(src.n3)]  # the columns of t'
    # c' in [0, n) over Z/n: another representative would move s' by multiples of n/g
    for i, row in enumerate(_smith_coordinates(a, b, u.a2)):
        for j, v in enumerate(row):
            g, (x, y, *_) = bezout[i][j]
            if (v % g if g else v) != 0:
                return None
            q = v // g if g else 0
            if i < dst.n1:
                s[j][i] = x * q
            if j < src.n3:
                t[j][i] = y * q
    # s = Q_A @ s' @ Q_B^-1, t = P_A^-1 @ t' @ P_B: left factors on columns, right on rows
    s = b.q.inv.rows(_transpose(a.q.cols(s), dst.n1))
    t = b.p.rows(_transpose(a.p.inv.cols(t), dst.n2))
    s, t = _from_rows(ring, s, src.n2), _from_rows(ring, t, src.n3)
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


class ChainWithMap(_Value):
    def __init__(self, object: ChainObject, morphism: ChainMorphism):
        vars(self).update(object=object, morphism=morphism)


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


class ImageFactorization(_Value):
    """src --epi--> object --mono--> dst."""

    def __init__(self, object: ChainObject, mono: ChainMorphism, epi: ChainMorphism):
        vars(self).update(object=object, mono=mono, epi=epi)


def image_factorization(u: ChainMorphism) -> ImageFactorization:
    """Factor u as (src --epi--> image --mono--> dst), with mono the kernel
    of the cokernel of u and epi found by one linear solve.

    The middle of epi is a combination y = M @ c of the middles src ->
    image (`_middles`, with P_O from the Smith form of image.m1 and Q_B from
    that of src.m2, shared with u); `_extend` maps it back to e2 = P_O^-1 @
    y @ Q_B^-1 and gives e1 and e3.  mono.a2 is [I | 0], so mono.a2 @ e2 -
    u.a2 = top(e2) - u.a2, null-homotopic exactly when each non-unit g_ij
    divides entry (i, j) of P_A @ top(P_O^-1 @ y) - P_A @ u.a2 @ Q_B: the
    Q_B factors cancel.  Those entries of M are read by applying P_O^-1 and
    P_A to its nonzero columns.
    """
    src, dst = u.src, u.dst
    ring, w = src.ring, src.n2
    im = kernel(cokernel(u).morphism)
    obj, mono = im.object, im.morphism
    a, b, bezout = _smith_homotopy(src, dst)
    kept, o = _obstructed(ring, bezout), snf(obj.m1)
    mids = _middles(src, obj, o, b)
    k = mids.cols
    # column j of generator q, then of P_A @ top(P_O^-1 @ it), at ys[q * w + j]
    ys = [list(mids.entries[j * k + q::w * k]) for q in range(k) for j in range(w)]
    live = o.p.inv.cols([v for v in ys if any(v)])
    for v in live:
        del v[dst.n2:]
    a.p.cols(live)
    cu = _smith_coordinates(a, b, u.a2)
    sol = solve_linear(hstack(_from_rows(ring, [[ys[q * w + j][i] for q in range(k)]
                                                for i, j, _ in kept], k),
                              -Matrix.diagonal(ring, [g for *_, g in kept])),
                       _from_rows(ring, [[cu[i][j]] for i, j, _ in kept], 1))
    if sol is None:
        raise InternalInvariantError("image factorization solve failed")
    return ImageFactorization(obj, mono, _extend(
        src, obj, o, b, mids @ sol.submatrix(0, k, 0, 1),
        Matrix.zeros(ring, obj.n1, src.n1), Matrix.zeros(ring, obj.n3, src.n3)))


class MiddleFactorization(_Value):
    """X presented as the image of a map between chains concentrated in two
    spots, with the embedded middle free module in between: kernel_side is
    (0 -> X2 -> X3) -> embed(X2), cokernel_side is embed(X2) -> (X1 -> X2
    -> 0), and connecting is their composite."""

    def __init__(self, kernel_side: ChainMorphism, cokernel_side: ChainMorphism,
                 connecting: ChainMorphism):
        vars(self).update(kernel_side=kernel_side, cokernel_side=cokernel_side,
                          connecting=connecting)


def middle_factorization(x: ChainObject) -> MiddleFactorization:
    ring = x.ring
    zeros = Matrix.zeros
    eye = Matrix.identity(ring, x.n2)
    left = ChainObject(ring, zeros(ring, x.n2, 0), x.m2)
    mid = embed_rank(ring, x.n2)
    right = _presented(x.m1)
    k = ChainMorphism(left, mid, zeros(ring, 0, 0), eye, zeros(ring, 0, x.n3))
    c = ChainMorphism(mid, right, zeros(ring, x.n1, 0), eye, zeros(ring, 0, 0))
    return MiddleFactorization(k, c, compose(k, c))


# -- hom groups ------------------------------------------------------------


def hom_group(x: ChainObject, y: ChainObject) -> FpModule:
    """Hom(x, y) as a finitely presented module: strictly commuting triples
    modulo the ones with null-homotopic middle.

    A triple is fixed up to homotopy by its middle, and in the coordinates
    y' = P_A @ a2 @ Q_B of `_middles` a middle is null-homotopic exactly
    when each g_ij divides y'_ij (`_smith_homotopy`).  So Hom is the span of
    the generators' entries at the non-unit g_ij modulo diag(g_ij), with no
    transform applied.  A generator zero there, a free entry's unit vector
    among them, is null-homotopic and is left out.
    """
    if x.ring != y.ring:
        raise RingMismatch("hom over mixed rings")
    a, b, bezout = _smith_homotopy(x, y)
    kept = _obstructed(x.ring, bezout)
    mids = _middles(x, y, a, b).to_rows()
    gens = [col for col in zip(*[mids[i * x.n2 + j] for i, j, _ in kept]) if any(col)]
    return present_quotient(_from_cols(x.ring, len(kept), gens),
                            Matrix.diagonal(x.ring, [g for *_, g in kept]))
