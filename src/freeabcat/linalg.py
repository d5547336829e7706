"""Exact linear algebra over Z and Z/n.

Everything here is integer arithmetic on Python ints; there is no floating
point anywhere.  Maps use the column convention: a homomorphism
ring^c -> ring^r is an r x c matrix acting on column vectors, and
composition is matrix multiplication.

Entries are validated once, at the boundary: `Matrix(...)`, `from_rows`,
`diagonal` and `scale` scan every entry for an integer.  One builder,
`_fill`, checks every shape and reduces over Z/n; `_matrix` builds the
results this module computes from validated matrices with it alone.

Smith normal form is one elimination over the matrix's own ring (mod n on
symmetric residues over Z/n: entries stay below n, no n*I is adjoined),
with a deterministic pivot rule (least nonzero absolute value, ties broken
by row-major position); `snf` returns a certificate P*M*Q = S with P, Q
unimodular over that ring.  Row operations go to a `left` operand and
column operations to a `right` one, so each caller carries only what it
reads: `smith_diagonal` no transform, `kernel_gens` Q, `solve_linear` P*b
and Q.  Updates touch only the nonzeros of the pivot row and its
quotients.  The elimination works on lists of rows and its result keeps
them; a `Matrix` is frozen only at the boundary, for a public result or
when a caller reads S, P or Q, so `smith_diagonal`, `kernel_gens` and
`solve_linear` build no transform matrix they do not return.  A linear
system is factored once: `solve_linear` solves for every column of its
right-hand side with one Smith form.  Determinants, and inverses over Z
or Z/n, use fraction-free (Bareiss) elimination, whose entries stay minors
of the input, and an exact fraction-free back substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, prod
from operator import mul

from .errors import DimensionMismatch, InvariantViolation, RingMismatch


@dataclass(frozen=True)
class RingSpec:
    """Base ring: Z when modulus is None, otherwise Z/modulus (modulus >= 2)."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and (type(self.modulus) is not int or self.modulus < 2):
            raise ValueError("modulus must be an integer at least 2")

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
    int it is) stored row-major as a tuple, whatever sequence they are given
    in, and, over Z/n, reduced on construction to representatives in
    [0, n), so arithmetic need not reduce.  `Matrix(...)` is the integer
    scan of every entry plus the one builder, `_fill`; the results of this
    module skip the scan (see `_matrix`).  Entry tuples are built from
    lists: tuple() of a generator allocates ten slots and shrinks, and the
    shrunk tuples pile up on CPython's tuple free lists."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        try:
            exact = type(sum(entries, 0)) is int
        except TypeError:
            exact = False
        if not exact:
            raise InvariantViolation("matrix entries must be integers")
        _fill(self, self.ring, self.rows, self.cols, entries)

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
        return cls(ring, r, c, tuple(list(chain.from_iterable(rows))))

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "Matrix":
        ent = [0] * _size(n, n)
        ent[::n + 1] = [1] * n
        return _matrix(ring, n, n, ent)

    @classmethod
    def zeros(cls, ring: RingSpec, rows: int, cols: int) -> "Matrix":
        return _matrix(ring, rows, cols, [0] * _size(rows, cols))

    @classmethod
    def diagonal(cls, ring: RingSpec, diag: list[int]) -> "Matrix":
        n = len(diag)
        ent = [0] * (n * n)
        ent[::n + 1] = diag
        return cls(ring, n, n, tuple(ent))

    # -- access ------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def col_list(self, j: int) -> list[int]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def column(self, j: int) -> "Matrix":
        return _matrix(self.ring, self.rows, 1, self.col_list(j))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        ent = []
        for i in range(r0, r1):
            ent.extend(self.entries[i * self.cols + c0:i * self.cols + c1])
        return _matrix(self.ring, r1 - r0, c1 - c0, ent)

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_ring(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return _matrix(self.ring, self.rows, self.cols,
                       [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return _matrix(self.ring, self.rows, self.cols, [-a for a in self.entries])

    def scale(self, k: int) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols, tuple([k * a for a in self.entries]))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_same_ring(self, other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        k, c, ent = self.cols, other.cols, self.entries
        rows = [ent[i * k:(i + 1) * k] for i in range(self.rows)]
        cols = [other.entries[j::c] for j in range(c)]
        out = [sum(map(mul, row, col)) for row in rows for col in cols]
        return _matrix(self.ring, self.rows, c, out)

    def transpose(self) -> "Matrix":
        ent = []
        for j in range(self.cols):
            for i in range(self.rows):
                ent.append(self.entries[i * self.cols + j])
        return _matrix(self.ring, self.cols, self.rows, ent)

    def lift(self) -> "Matrix":
        """The same entries viewed over Z (canonical representatives)."""
        return self.reduce(ZZ)

    def reduce(self, ring: RingSpec) -> "Matrix":
        """The entries read in `ring` through a ring map: the lift to Z,
        Z -> Z/m, or Z/n -> Z/m for m dividing n."""
        if ring == self.ring:
            return self
        n, m = self.ring.modulus, ring.modulus
        if n is not None and m is not None and n % m:
            raise RingMismatch(f"no ring map {self.ring} -> {ring}")
        return _matrix(ring, self.rows, self.cols, self.entries)

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self.to_rows()})"


def _size(rows: int, cols: int) -> int:
    """rows * cols, for nonnegative int dimensions (a bool is not one)."""
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise DimensionMismatch(f"no {rows!r}x{cols!r} matrix: dimensions are nonnegative ints")
    return rows * cols


def _fill(m: Matrix, ring: RingSpec, rows: int, cols: int, entries) -> Matrix:
    """The one builder: m becomes the rows x cols matrix of `entries`, the
    shape checked and the entries reduced to [0, n) over Z/n."""
    if len(entries) != _size(rows, cols):
        raise DimensionMismatch(f"no {rows}x{cols} matrix has {len(entries)} entries")
    n = ring.modulus
    entries = tuple(entries if n is None else [e % n for e in entries])
    object.__setattr__(m, "__dict__", {"ring": ring, "rows": rows, "cols": cols, "entries": entries})
    return m


def _matrix(ring: RingSpec, rows: int, cols: int, entries) -> Matrix:
    """The matrix of `entries`, ints this module computed from validated
    matrices, built by `_fill` alone: neither the integer scan nor
    `Matrix.__init__` and `__post_init__` run."""
    return _fill(object.__new__(Matrix), ring, rows, cols, entries)


# -- stacking and products ----------------------------------------------


def _stackable(mats: tuple[Matrix, ...], side: str) -> tuple[RingSpec, int]:
    """The one ring of `mats` and the `side` ("rows" or "cols") they share."""
    if not mats:
        raise DimensionMismatch("stack of nothing")
    ring, size = mats[0].ring, getattr(mats[0], side)
    for m in mats:
        if m.ring != ring:
            raise RingMismatch("stack over mixed rings")
        if getattr(m, side) != size:
            raise DimensionMismatch(f"stack with differing {side}")
    return ring, size


def hstack(*mats: Matrix) -> Matrix:
    ring, rows = _stackable(mats, "rows")
    ent = []
    for i in range(rows):
        for m in mats:
            ent.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return _matrix(ring, rows, sum(m.cols for m in mats), ent)


def vstack(*mats: Matrix) -> Matrix:
    ring, cols = _stackable(mats, "cols")
    ent = list(chain.from_iterable(m.entries for m in mats))
    return _matrix(ring, sum(m.rows for m in mats), cols, ent)


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
    b_rows = b.to_rows()
    for i1 in range(a.rows):
        for j1, v in enumerate(a.entries[i1 * a.cols:(i1 + 1) * a.cols]):
            if v == 0:
                continue
            base = i1 * b.rows * cols + j1 * b.cols
            for b_row in b_rows:
                ent[base:base + b.cols] = b_row if v == 1 else [v * x for x in b_row]
                base += cols
    return _matrix(a.ring, rows, cols, ent)


def vec_row(m: Matrix) -> Matrix:
    """Row-major vectorization as a column vector.

    The two identities used throughout the package:
        vec_row(A @ X) = kron(A, I_q) @ vec_row(X)   for X with q columns,
        vec_row(X @ B) = kron(I_p, B^T) @ vec_row(X) for X with p rows.
    """
    return _matrix(m.ring, m.rows * m.cols, 1, m.entries)


def unvec_row(v: Matrix, rows: int, cols: int) -> Matrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise DimensionMismatch("unvec_row shape mismatch")
    return _matrix(v.ring, rows, cols, v.entries)


# -- Smith normal form ---------------------------------------------------


class SnfResult:
    """Smith normal form S of M with the operands its elimination carried:
    U @ M @ V == S for unimodular U and V, diagonal of S nonnegative (over
    Z) and a divisibility chain, and P == U @ left, Q == right @ V.  With
    the default identities P @ M @ Q == S is the full certificate.

    The result keeps the elimination's own lists of rows, `s_rows`,
    `p_rows` and `q_rows`; over Z/n they hold symmetric residues, each
    below n in absolute value.  `S`, `P` and `Q` are frozen into `Matrix`
    objects (entries in [0, n) over Z/n) the first time each is read, and
    cached; `diagonal` and the callers in `linalg` that return something
    else read the rows and freeze none of them.  The rows are not copied,
    so they must not be changed."""

    def __init__(self, ring: RingSpec, s_rows: list[list[int]], p_rows: list[list[int]],
                 q_rows: list[list[int]], cols: int):
        self.ring, self.cols = ring, cols
        self.s_rows, self.p_rows, self.q_rows = s_rows, p_rows, q_rows

    @cached_property
    def S(self) -> Matrix:
        return _from_rows(self.ring, self.s_rows, self.cols)

    @cached_property
    def P(self) -> Matrix:
        return _from_rows(self.ring, self.p_rows, len(self.p_rows[0]) if self.p_rows else 0)

    @cached_property
    def Q(self) -> Matrix:
        return _from_rows(self.ring, self.q_rows, self.cols)

    def diagonal(self, length: int = 0) -> list[int]:
        """The Smith diagonal, in [0, n) over Z/n, padded with zeros to
        `length`: M's row count for a cokernel, its column count for a kernel."""
        a, n = self.s_rows, self.ring.modulus
        diag = [a[i][i] if n is None else a[i][i] % n for i in range(min(len(a), self.cols))]
        return diag + [0] * (length - len(diag))


def _from_rows(ring: RingSpec, rows: list[list[int]], cols: int) -> Matrix:
    return _matrix(ring, len(rows), cols, list(chain.from_iterable(rows)))


def _identity_rows(k: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (k - i - 1) for i in range(k)]


def _snf_int(m: Matrix, left: list[list[int]] | None = None,
             right: list[list[int]] | None = None) -> SnfResult:
    """Smith form of m over its own ring, applying each row operation to
    the rows `left` (r x k, default I_r) and each column operation to the
    rows `right` (k x c, default I_c), which it updates in place.  The pivot
    sequence depends on m alone, so a caller that reads only the diagonal,
    some rows of Q or P @ b passes empty rows, those rows of I, or the rows
    of b, and gets the same entries as the full transforms would give it.
    The result keeps the working rows: no `Matrix` is built here (see
    `SnfResult`).

    Row updates touch the support of the pivot row (and of its row of
    `left`), column updates the nonzero quotients; the rest would get + 0.
    Over Z/n entries are symmetric residues, (v + h) % n - h with
    h = n // 2, and every update is reduced the same way, carried operands
    included, so no entry reaches n.  A remainder is below its pivot and a
    pivot is at most n/2, so it still terminates.  The pivot divides an
    entry when gcd(pivot, n) does."""
    ring, r, c, n = m.ring, m.rows, m.cols, m.ring.modulus
    h = (n or 0) // 2
    a = m.to_rows() if n is None else [[(v + h) % n - h for v in row] for row in m.to_rows()]
    p = _identity_rows(r) if left is None else left
    q = _identity_rows(c) if right is None else right

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

        at, piv = a[t], a[t][t]
        sup = [(j, at[j]) for j in range(t, c) if at[j]]
        psup = [(j, v) for j, v in enumerate(p[t]) if v]
        dirty = False
        for i in range(t + 1, r):
            ai, pri = a[i], p[i]
            if ai[t]:
                quo = ai[t] // piv
                # written out per ring: a helper call per update slowed Z by 2-3 %
                if n is None:
                    for j, y in sup:
                        ai[j] -= quo * y
                    for j, y in psup:
                        pri[j] -= quo * y
                else:
                    for j, y in sup:
                        ai[j] = (ai[j] - quo * y + h) % n - h
                    for j, y in psup:
                        pri[j] = (pri[j] - quo * y + h) % n - h
                dirty = dirty or ai[t] != 0
        ks = [(j, k) for j, y in sup[1:] if (k := y // piv)]
        if ks:
            for row in a[t:] + q:
                y = row[t]
                if y:
                    if n is None:
                        for j, k in ks:
                            row[j] -= k * y
                    else:
                        for j, k in ks:
                            row[j] = (row[j] - k * y + h) % n - h
            dirty = dirty or any(at[t + 1:])
        if dirty:
            continue  # a smaller pivot appeared; reselect

        # pivot must divide the whole trailing block for the chain
        g = piv if n is None else gcd(piv, n)
        if g != 1:
            bad = next((j for row in a[t + 1:] for j, v in enumerate(row) if v % g), None)
            if bad is not None:
                for row in a[t:]:
                    row[t] += row[bad]
                for row in q:
                    row[t] = row[t] + row[bad] if n is None else (row[t] + row[bad] + h) % n - h
                continue
        t += 1

    return SnfResult(ring, a, p, q, c)


def snf(m: Matrix) -> SnfResult:
    """Smith normal form with certificate P @ m @ Q == S over m's own ring; over
    Z/n, P and Q are unimodular there and each diagonal entry divides the next."""
    return _snf_int(m)


# -- solving and kernels -------------------------------------------------


def _nonzero_top(ring: RingSpec, top, scale: list[int] | None = None) -> Matrix:
    """The columns of the rows `top`, column j times scale[j] (default 1;
    over Z each scale is 0 or 1), with zero columns dropped."""
    cols = zip(*top)
    if scale is not None:
        n = ring.modulus
        cols = (col if s == 1 else [v * s % n for v in col] for s, col in zip(scale, cols) if s)
    cols = [col for col in cols if any(col)]
    return _matrix(ring, len(top), len(cols), list(chain.from_iterable(zip(*cols))))


def smith_diagonal(a: Matrix) -> list[int]:
    """One invariant factor per row of `a`, units included, carrying no
    transform: gcd(d, n) for each Smith diagonal entry d (d over Z), then
    gcd(0, n) for the rows past the diagonal (n over Z/n, 0 over Z)."""
    n = a.ring.modulus or 0
    return [gcd(d, n) for d in _snf_int(a, [[] for _ in range(a.rows)], []).diagonal(a.rows)]


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """A solution x of a @ x = b, one column for each column of b, or None
    when some column of b has no solution.

    One Smith form U @ a @ V == S for all columns of b, carrying b as c =
    U @ b: row j is solvable when g_j = gcd(d_j, n) divides c_j (g_j = d_j
    over Z, rows past the diagonal need c_j = 0), with y_j =
    (c_j / g_j) * (d_j / g_j)^-1 mod n / g_j, and x = V @ y.
    """
    _check_same_ring(a, b)
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side must have the height of the matrix")
    res = _snf_int(a, b.to_rows())
    n = a.ring.modulus
    # the rows of P as P holds them, in [0, n): y, and so x, depends on
    # the representatives, and symmetric ones would change x
    rows = res.p_rows if n is None else [[v % n for v in row] for row in res.p_rows]
    y = [[0] * b.cols for _ in range(a.cols)]
    for i, (row, d) in enumerate(zip(rows, res.diagonal(a.rows))):
        g = gcd(d, n or 0)
        if any(v % g for v in row) if g else any(row):
            return None
        if d:
            u = pow(d // g, -1, n // g) if n else 1
            y[i] = [v // g * u for v in row]
    return res.Q @ _from_rows(a.ring, y, b.cols)


def kernel_gens(a: Matrix) -> Matrix:
    """Columns generating {x : a @ x = 0} over the matrix's ring.

    With U @ a @ V == S, column j of V times the annihilator of d_j (d_j = 0
    past the diagonal): n // gcd(d_j, n) over Z/n; over Z 1 when d_j = 0,
    else 0.  Zero columns are dropped.  Over Z a lattice basis.
    """
    res = _snf_int(a, [[] for _ in range(a.rows)])
    n, diag = a.ring.modulus, res.diagonal(a.cols)
    scale = [n // gcd(d, n) for d in diag] if n else [int(d == 0) for d in diag]
    # the rows of V; over Z/n the result Matrix reduces them to [0, n)
    return _nonzero_top(a.ring, res.q_rows, scale)


def preimage_gens(f: Matrix, t: Matrix) -> Matrix:
    """Columns generating {x : f @ x lies in the column span of t}."""
    _check_same_ring(f, t)
    if f.rows != t.rows:
        raise DimensionMismatch("preimage target lives in a different ambient")
    k = kernel_gens(hstack(f, t))
    return _nonzero_top(k.ring, k.to_rows()[:f.cols])


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
    """Inverse of a matrix whose determinant is a unit (+-1 over Z, prime
    to n over Z/n), such as a Smith transform.

    Bareiss elimination of [m | I] over Z ends on the pivot d = +-det m.
    y = d * m^-1 is integral (Cramer), so y_i = (d * b_i - sum_{j>i}
    a_ij * y_j) // a_ii is exact, and m^-1 = y * d^-1, with d^-1 = d over Z
    and d^-1 mod n over Z/n.  (Q @ P of the Smith form of m would also give
    it, but those transforms grow far larger than the inverse.)
    """
    n, ring = m.rows, m.ring
    if m.cols != n:
        raise DimensionMismatch("inverse of a non-square matrix")
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.to_rows())]
    nonsingular = _bareiss(a, n)
    d = a[n - 1][n - 1] if n else 1
    if not nonsingular or not ring.is_unit(d):
        raise InvariantViolation("matrix is not unimodular")
    y = [[0] * n for _ in range(n)]
    for i in reversed(range(n)):
        for c in range(n):
            v = d * a[i][n + c] - sum(a[i][j] * y[j][c] for j in range(i + 1, n))
            y[i][c] = v // a[i][i]
    inv = d if ring.modulus is None else pow(d, -1, ring.modulus)
    return _from_rows(ring, [[v * inv for v in row] for row in y], n)


def is_unimodular(m: Matrix) -> bool:
    return m.ring.is_unit(det(m))


def product_order(factors) -> int | None:
    """Number of elements presented by an invariant-factor list; None if infinite."""
    if any(f == 0 for f in factors):
        return None
    return prod(factors) if factors else 1
