"""Exact linear algebra over Z and Z/n.

Everything here is integer arithmetic on Python ints; there is no floating
point anywhere.  Maps use the column convention: a homomorphism
ring^c -> ring^r is an r x c matrix acting on column vectors, and
composition is matrix multiplication.

Smith normal form is computed over Z with a deterministic pivot rule
(smallest nonzero absolute value, ties broken by row-major position); `snf`
returns a full certificate P*M*Q = S with unimodular P, Q.  The elimination
applies its row operations to a `left` operand and its column operations to
a `right` one, so each caller carries only what it reads: `smith_diagonal`
no transform, `kernel_gens` the first a.cols rows of Q, `solve_linear` P*b
and those rows.  The pivots depend on the matrix alone, so these equal what
the full transforms give.  Matrices over Z/n take a single code path:
`integer_relations` lifts the canonical representatives to Z and adjoins
n*I, the only place the modulus enters an elimination, and results are
reduced mod n.  A linear system is factored once: `solve_linear` solves for
every column of its right-hand side with one Smith form.  Determinants and
inverses of unimodular matrices use fraction-free (Bareiss) elimination,
whose entries stay minors of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, prod

from .errors import DimensionMismatch, InvariantViolation, RingMismatch


@dataclass(frozen=True)
class RingSpec:
    """Base ring: Z when modulus is None, otherwise Z/modulus (modulus >= 2)."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    @property
    def is_modular(self) -> bool:
        return self.modulus is not None

    def normalize(self, value: int) -> int:
        if self.modulus is None:
            return value
        return value % self.modulus

    def is_unit(self, value: int) -> bool:
        if self.modulus is None:
            return value in (1, -1)
        return gcd(value, self.modulus) == 1

    def divides(self, a: int, b: int) -> bool:
        """True when b is a ring multiple of a."""
        if self.modulus is None:
            return b == 0 if a == 0 else b % a == 0
        g = gcd(a, self.modulus)
        return b % g == 0

    def __str__(self):
        return "Z" if self.modulus is None else f"Z/{self.modulus}"


ZZ = RingSpec()


def Zmod(n: int) -> RingSpec:
    return RingSpec(n)


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatch(f"mixed rings {a.ring} and {b.ring}")


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix; entries are Python ints (bool passes as the
    int it is) stored row-major and, over Z/n, reduced on construction to
    representatives in [0, n), so arithmetic need not reduce."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        try:
            exact = type(sum(self.entries, 0)) is int
        except TypeError:
            exact = False
        if not exact:
            raise InvariantViolation("matrix entries must be integers")
        if self.ring.is_modular:
            n = self.ring.modulus
            if self.entries and (min(self.entries) < 0 or max(self.entries) >= n):
                object.__setattr__(
                    self, "entries", tuple(e % n for e in self.entries)
                )

    # -- construction ------------------------------------------------

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: list[list[int]], *, cols: int | None = None) -> "Matrix":
        """Build from a list of rows; `cols` disambiguates the empty case."""
        r = len(rows)
        if r == 0:
            return cls(ring, 0, 0 if cols is None else cols, ())
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        if cols is not None and cols != c:
            raise DimensionMismatch(f"declared cols {cols} but rows have {c}")
        return cls(ring, r, c, tuple(chain.from_iterable(rows)))

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "Matrix":
        return cls.diagonal(ring, [1] * n)

    @classmethod
    def zeros(cls, ring: RingSpec, rows: int, cols: int) -> "Matrix":
        return cls(ring, rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, ring: RingSpec, diag: list[int]) -> "Matrix":
        n = len(diag)
        ent = [0] * (n * n)
        ent[::n + 1] = diag
        return cls(ring, n, n, tuple(ent))

    # -- access ------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[int]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def col_list(self, j: int) -> list[int]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def column(self, j: int) -> "Matrix":
        return Matrix(self.ring, self.rows, 1, tuple(self.col_list(j)))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        ent = []
        for i in range(r0, r1):
            ent.extend(self.entries[i * self.cols + c0:i * self.cols + c1])
        return Matrix(self.ring, r1 - r0, c1 - c0, tuple(ent))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_ring(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, k: int) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols, tuple(k * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_same_ring(self, other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                s = 0
                for k in range(self.cols):
                    s += ai[k] * b[k][j]
                out.append(s)
        return Matrix(self.ring, self.rows, other.cols, tuple(out))

    def transpose(self) -> "Matrix":
        ent = []
        for j in range(self.cols):
            for i in range(self.rows):
                ent.append(self.entries[i * self.cols + j])
        return Matrix(self.ring, self.cols, self.rows, tuple(ent))

    def lift(self) -> "Matrix":
        """The same entries viewed over Z (canonical representatives)."""
        return self.reduce(ZZ)

    def reduce(self, ring: RingSpec) -> "Matrix":
        if ring == self.ring:
            return self
        return Matrix(ring, self.rows, self.cols, self.entries)

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self.to_rows()})"


# -- stacking and products ----------------------------------------------


def hstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise DimensionMismatch("hstack of nothing")
    ring, rows = mats[0].ring, mats[0].rows
    for m in mats[1:]:
        if m.ring != ring:
            raise RingMismatch("hstack over mixed rings")
        if m.rows != rows:
            raise DimensionMismatch("hstack with differing row counts")
    ent = []
    for i in range(rows):
        for m in mats:
            ent.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return Matrix(ring, rows, sum(m.cols for m in mats), tuple(ent))


def vstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise DimensionMismatch("vstack of nothing")
    ring, cols = mats[0].ring, mats[0].cols
    ent = []
    for m in mats:
        if m.ring != ring:
            raise RingMismatch("vstack over mixed rings")
        if m.cols != cols:
            raise DimensionMismatch("vstack with differing column counts")
        ent.extend(m.entries)
    return Matrix(ring, sum(m.rows for m in mats), cols, tuple(ent))


def block(rows_of_blocks: list[list[Matrix]]) -> Matrix:
    return vstack(*[hstack(*row) for row in rows_of_blocks])


def block_diagonal(*mats: Matrix) -> Matrix:
    """`mats` along the diagonal, zeros elsewhere; `block` rejects mixed
    rings and an empty list."""
    return block([[m if i == j else Matrix.zeros(m.ring, m.rows, other.cols)
                   for j, other in enumerate(mats)] for i, m in enumerate(mats)])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) equals a[i,j] * b."""
    _check_same_ring(a, b)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    ent = [0] * (rows * cols)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            v = a.entry(i1, j1)
            if v == 0:
                continue
            for i2 in range(b.rows):
                base = (i1 * b.rows + i2) * cols + j1 * b.cols
                for j2 in range(b.cols):
                    ent[base + j2] = v * b.entry(i2, j2)
    return Matrix(a.ring, rows, cols, tuple(ent))


def vec_row(m: Matrix) -> Matrix:
    """Row-major vectorization as a column vector.

    The two identities used throughout the package:
        vec_row(A @ X) = kron(A, I_q) @ vec_row(X)   for X with q columns,
        vec_row(X @ B) = kron(I_p, B^T) @ vec_row(X) for X with p rows.
    """
    return Matrix(m.ring, m.rows * m.cols, 1, m.entries)


def unvec_row(v: Matrix, rows: int, cols: int) -> Matrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise DimensionMismatch("unvec_row shape mismatch")
    return Matrix(v.ring, rows, cols, v.entries)


# -- Smith normal form ---------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form S of M with the operands its elimination carried:
    U @ M @ V == S for unimodular U and V, diagonal of S nonnegative (over
    Z) and a divisibility chain, and P == U @ left, Q == right @ V.  With
    the default identities P @ M @ Q == S is the full certificate."""

    S: Matrix
    P: Matrix
    Q: Matrix

    def diagonal(self) -> list[int]:
        k = min(self.S.rows, self.S.cols)
        return [self.S.entry(i, i) for i in range(k)]


def _snf_int(m: Matrix, left: Matrix | None = None, right: Matrix | None = None) -> SnfResult:
    """Integer Smith form of m, applying each row operation to `left`
    (r x k, default I_r) and each column operation to `right` (k x c,
    default I_c).  The pivot sequence depends on m alone, so a caller that
    reads only the diagonal, some rows of Q or P @ b passes an empty
    `left`/`right`, those rows of I, or b, and gets the same integers as
    the full transforms would give it."""
    r, c = m.rows, m.cols
    a = m.to_rows()
    p = (Matrix.identity(ZZ, r) if left is None else left).to_rows()
    q = (Matrix.identity(ZZ, c) if right is None else right).to_rows()

    t = 0
    while t < min(r, c):
        # deterministic pivot: least |value|, then row-major position; rows
        # from t on are zero left of column t, and a unit is always least
        for pi in range(t, r):
            if 1 in a[pi] or -1 in a[pi]:
                best = 1
                break
        else:
            best = min(filter(None, map(abs, chain.from_iterable(a[t:]))), default=0)
            if not best:
                break
            pi = next(i for i in range(t, r) if best in a[i] or -best in a[i])
        pj = list(map(abs, a[pi])).index(best)
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            p[t], p[pi] = p[pi], p[t]
        # rows above t and columns left of t are zero from column/row t on
        if pj != t:
            for row in a[t:] + q:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
            p[t] = [-v for v in p[t]]

        at, pt, piv = a[t], p[t], a[t][t]
        dirty = False
        for i in range(t + 1, r):
            ai = a[i]
            if ai[t]:
                quo = ai[t] // piv
                ai[t:] = [x - quo * y for x, y in zip(ai[t:], at[t:])]
                p[i] = [x - quo * y for x, y in zip(p[i], pt)]
                dirty = dirty or ai[t] != 0
        quos = [v // piv for v in at[t + 1:]]
        if any(quos):
            for row in a[t:] + q:
                y = row[t]
                if y:
                    row[t + 1:] = [x - k * y for x, k in zip(row[t + 1:], quos)]
            dirty = dirty or any(at[t + 1:])
        if dirty:
            continue  # a smaller pivot appeared; reselect

        # pivot must divide the whole trailing block for the chain
        if piv != 1:
            bad = next((j for row in a[t + 1:] for j, v in enumerate(row) if v % piv), None)
            if bad is not None:
                for row in a[t:] + q:
                    row[t] += row[bad]
                continue
        t += 1

    return SnfResult(
        Matrix.from_rows(ZZ, a, cols=c),
        Matrix.from_rows(ZZ, p, cols=r if left is None else left.cols),
        Matrix.from_rows(ZZ, q, cols=c),
    )


def snf(m: Matrix) -> SnfResult:
    """Smith normal form with certificate, over the matrix's own ring.

    Over Z/n the canonical lift is put in integer Smith form and the
    certificate is reduced mod n; integer divisibility and det = +-1
    survive the reduction, so all invariants hold in the quotient ring.
    """
    res = _snf_int(m.lift())
    return SnfResult(res.S.reduce(m.ring), res.P.reduce(m.ring), res.Q.reduce(m.ring))


# -- solving and kernels -------------------------------------------------


def integer_relations(a: Matrix) -> Matrix:
    """An integer matrix whose column span, read in a's ring, is a's.

    Over Z that is `a` itself; over Z/n it is the canonical lift with n*I
    adjoined, so multiples of n in each coordinate count as zero.  Its
    first a.cols columns are a's own.
    """
    if not a.ring.is_modular:
        return a
    return hstack(a.lift(), Matrix.diagonal(ZZ, [a.ring.modulus] * a.rows))


def _nonzero_top(m: Matrix, k: int, ring: RingSpec, first_col: int = 0) -> Matrix:
    """Columns first_col.. of m cut to their first k rows and read in
    `ring`, with the columns that become zero dropped."""
    top = [m.entries[i * m.cols + first_col:(i + 1) * m.cols] for i in range(k)]
    if ring.is_modular:
        top = [[v % ring.modulus for v in row] for row in top]
    cols = [col for col in zip(*top) if any(col)]
    return Matrix(ring, k, len(cols), tuple(chain.from_iterable(zip(*cols))))


def _eliminate(a: Matrix, left: Matrix) -> SnfResult:
    """Smith form of `integer_relations(a)` carrying `left` and, as Q, the
    first a.cols rows of its column transform: the rows that map back to
    a's own columns."""
    rel = integer_relations(a)
    top = [0] * (a.cols * rel.cols)
    top[::rel.cols + 1] = [1] * a.cols
    return _snf_int(rel, left, Matrix(ZZ, a.cols, rel.cols, tuple(top)))


def smith_diagonal(a: Matrix) -> list[int]:
    """Diagonal of the Smith form of `integer_relations(a)`, with no
    transform carried."""
    rel = integer_relations(a)
    empty_left, empty_right = Matrix.zeros(ZZ, rel.rows, 0), Matrix.zeros(ZZ, 0, rel.cols)
    return _snf_int(rel, empty_left, empty_right).diagonal()


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """A solution x of a @ x = b, one column for each column of b, or None
    when some column of b has no solution.

    `integer_relations(a)` is put in Smith form once for all columns of b,
    carrying b itself, so U @ b and the top rows of V are all it builds;
    over Z/n the solution of the lifted system, cut to a.cols rows and
    reduced mod n, solves the modular one.
    """
    _check_same_ring(a, b)
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side must have the height of the matrix")
    res = _eliminate(a, b.lift())
    y = [[0] * b.cols for _ in range(res.S.cols)]
    for i, row in enumerate(res.P.to_rows()):
        d = res.S.entry(i, i) if i < res.S.cols else 0
        if any(v % d for v in row) if d else any(row):
            return None
        if d:
            y[i] = [v // d for v in row]
    return (res.Q @ Matrix.from_rows(ZZ, y, cols=b.cols)).reduce(a.ring)


def kernel_gens(a: Matrix) -> Matrix:
    """Columns generating {x : a @ x = 0} over the matrix's ring.

    They are the columns of the Smith transform V of `integer_relations(a)`
    past its rank, cut to a.cols rows (the only rows carried).  Over Z they
    are a lattice basis of the kernel; over Z/n they are a generating set
    (the n*I columns of the lift account for multiples of n in each
    coordinate).
    """
    res = _eliminate(a, Matrix.zeros(ZZ, a.rows, 0))
    rank = sum(1 for d in res.diagonal() if d)
    return _nonzero_top(res.Q, a.cols, a.ring, rank)


def preimage_gens(f: Matrix, t: Matrix) -> Matrix:
    """Columns generating {x : f @ x lies in the column span of t}."""
    _check_same_ring(f, t)
    if f.rows != t.rows:
        raise DimensionMismatch("preimage target lives in a different ambient")
    return _nonzero_top(kernel_gens(hstack(f, t)), f.cols, f.ring)


def in_span(v: Matrix, gens: Matrix) -> bool:
    """Every column of v lies in the column span of gens, over the ring."""
    return solve_linear(gens, v) is not None


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) elimination below the diagonal of the first
    n columns of the rows `a`, in place.  Every entry stays a minor of the
    input, so integers grow no further than the determinant bound.  Returns
    the sign of the row swaps, or 0 when those n columns are singular."""
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(a[i])):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign


def det(m: Matrix) -> int:
    """Exact determinant (Bareiss); reduced mod n for modular rings."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return m.ring.normalize(1)
    a = m.lift().to_rows()
    return m.ring.normalize(_bareiss(a, n) * a[n - 1][n - 1])


def unimodular_inverse(m: Matrix) -> Matrix:
    """Inverse of an integer matrix of determinant +-1, such as a Smith
    transform.

    Bareiss elimination of [m | I] followed by back substitution; the
    divisions are exact because the inverse is integral.  (The Smith form
    of m would also give it, as Q @ P, but its transforms grow far larger
    than the inverse.)
    """
    n = m.rows
    if m.ring.is_modular:
        raise RingMismatch("unimodular_inverse takes an integer matrix")
    if m.cols != n:
        raise DimensionMismatch("inverse of a non-square matrix")
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.to_rows())]
    if not _bareiss(a, n) or n and abs(a[n - 1][n - 1]) != 1:
        raise InvariantViolation("matrix is not unimodular")
    x = [[0] * n for _ in range(n)]
    for i in reversed(range(n)):
        for c in range(n):
            v = a[i][n + c] - sum(a[i][j] * x[j][c] for j in range(i + 1, n))
            x[i][c] = v // a[i][i]
    return Matrix.from_rows(ZZ, x, cols=n)


def is_unimodular(m: Matrix) -> bool:
    return m.ring.is_unit(det(m))


def product_order(factors) -> int | None:
    """Number of elements presented by an invariant-factor list; None if infinite."""
    if any(f == 0 for f in factors):
        return None
    return prod(factors) if factors else 1
