"""Exact linear algebra over Z and Z/n.

Everything here is integer arithmetic on Python ints; there is no floating
point anywhere.  Maps use the column convention: a homomorphism
ring^c -> ring^r is an r x c matrix acting on column vectors, and
composition is matrix multiplication.

Entries are validated once, at the boundary: `Matrix(...)`, `from_rows`,
`diagonal` and `scale` make one integer scan of each matrix's entries
(`Matrix.__init__` stores its arguments, and `__post_init__` scans them),
and `from_rows` is the shape path of rows.  One builder, `_fill`, checks
every shape and reduces over Z/n; `_matrix` builds the results this
module computes from validated matrices with it alone.  `Matrix`,
`RingSpec` and the package's other records derive from `_Value`: plain
immutable classes whose fields are their constructors' parameters.

Smith normal form is one elimination over the matrix's own ring (mod n on
symmetric residues over Z/n: entries stay below n, no n*I is adjoined),
with a deterministic pivot rule (least nonzero absolute value, ties broken
by row-major position); `snf` returns a certificate P*M*Q = S with P, Q
unimodular over that ring.  Neither transform is carried: the elimination
logs its row and its column operations, and its result holds the logs as
operators, `p` for P and `q` for Q (`_Transform`).  An operator T gives
T*v on a list of column vectors (`cols`), x*T on a list of row vectors
(`rows`), and T^-1 (`inv`), so each reader applies only the product it
needs and no other module reads a log.  `smith_diagonal` and `kernel_gens`
apply nothing of P, `solve_linear` applies P to b, and P or Q itself is
applied to the identity only when it is read.  The Smith form of M^T is
that of M with its operators swapped and transposed (`SnfResult.transposed`),
so one elimination serves systems in M and in M^T.  Transforms grow far
past the working block and the answers, which is why none is carried.
Updates touch only the nonzeros of the pivot row and its quotients.  The
elimination works on lists of rows and its result keeps them; a `Matrix`
is frozen only at the boundary, for a public result or when a caller
reads S, P or Q.  A linear system is factored once: `solve_linear` solves
for every column of its right-hand side with one Smith form (`_solve`
with one its caller holds), and certifies its answer by the literal
identity a*x = b.  Determinants use fraction-free (Bareiss) elimination,
whose entries stay minors of the input.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import gcd, prod
from operator import mul

from .errors import DimensionMismatch, InternalInvariantError, InvariantViolation, RingMismatch


class _Value:
    """An immutable record.  Its fields are the parameters of its class's
    `__init__`, which stores them in the instance `__dict__`.  It equals
    an instance of the same class with equal fields, hashes its fields
    and prints as `Name(field=value, ...)`; setting or deleting an
    attribute raises AttributeError.  Equality compares the instance
    dicts, which hold the fields alone unless a class caches more there
    (`FpModule` does, and compares its fields)."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class RingSpec(_Value):
    """Base ring: Z when modulus is None, otherwise Z/modulus (modulus >= 2)."""

    def __init__(self, modulus: int | None = None):
        vars(self).update(modulus=modulus)
        if modulus is not None and (type(modulus) is not int or modulus < 2):
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


class Matrix(_Value):
    """Immutable exact matrix; entries are Python ints (bool passes as the
    int it is) stored row-major as a tuple, whatever sequence they are given
    in, and, over Z/n, reduced on construction to representatives in
    [0, n), so arithmetic need not reduce.  `Matrix(...)` stores its
    arguments and calls `__post_init__`: the integer scan of every entry,
    then the one builder, `_fill`.  That check is a method of its own, so
    that a tracer can hook it to count validated builds; the results of
    this module skip both (see `_matrix`).  Entry tuples are built from
    lists: tuple() of a generator allocates ten slots and shrinks, and the
    shrunk tuples pile up on CPython's tuple free lists."""

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries: tuple[int, ...]):
        vars(self).update(ring=ring, rows=rows, cols=cols, entries=entries)
        self.__post_init__()

    def __post_init__(self):
        _fill(self, self.ring, self.rows, self.cols, _scanned(tuple(self.entries)))

    # -- construction ------------------------------------------------

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: list[list[int]], *, cols: int | None = None) -> "Matrix":
        """Build from a list of rows, the one shape path for rows; `cols`
        disambiguates the empty case."""
        if not rows:
            return _matrix(ring, 0, 0 if cols is None else cols, ())
        lengths = set(map(len, rows))
        if len(lengths) > 1:
            raise DimensionMismatch("ragged rows")
        (c,) = lengths
        if cols is not None and cols != c:
            raise DimensionMismatch(f"declared cols {cols} but rows have {c}")
        return _matrix(ring, len(rows), c, _scanned(list(chain.from_iterable(rows))))

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


def _scanned(entries):
    """`entries`, once checked to be ints (a bool passes): one sum in C,
    which is an int only then."""
    try:
        exact = type(sum(entries, 0)) is int
    except TypeError:
        exact = False
    if not exact:
        raise InvariantViolation("matrix entries must be integers")
    return entries


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
    matrices, built by `_fill` alone on a bare instance: neither
    `Matrix.__init__` nor its integer scan in `__post_init__` runs."""
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


# -- Smith normal form ---------------------------------------------------


class SnfResult:
    """Smith normal form S of M with P @ M @ Q == S for unimodular P and
    Q, diagonal of S nonnegative (over Z) and a divisibility chain.

    The result keeps the elimination's working rows, `s_rows` (symmetric
    residues over Z/n), and its two transforms as operators (`_Transform`),
    `p` on its row log and `q` on its column log.  `S` is frozen into a
    `Matrix` when first read, and `P` and `Q` are their operators applied
    to the identity then; all three are cached.  `diagonal` and the callers in
    `linalg` read the rows and freeze none of them.  The rows are not
    copied, so they must not be changed."""

    def __init__(self, ring: RingSpec, s_rows: list[list[int]], p: _Transform, q: _Transform,
                 cols: int):
        self.ring, self.cols = ring, cols
        self.s_rows, self.p, self.q = s_rows, p, q

    @cached_property
    def S(self) -> Matrix:
        return _from_rows(self.ring, self.s_rows, self.cols)

    @cached_property
    def P(self) -> Matrix:
        eye = Matrix.identity(self.ring, len(self.s_rows))
        return _from_cols(self.ring, eye.rows, self.p.cols(eye.to_rows()))

    @cached_property
    def Q(self) -> Matrix:
        eye = Matrix.identity(self.ring, self.cols)
        return _from_rows(self.ring, self.q.rows(eye.to_rows()), eye.cols)

    def diagonal(self, length: int = 0) -> list[int]:
        """The Smith diagonal, in [0, n) over Z/n, padded with zeros to
        `length`: M's row count for a cokernel, its column count for a kernel."""
        a, n = self.s_rows, self.ring.modulus
        diag = [a[i][i] if n is None else a[i][i] % n for i in range(min(len(a), self.cols))]
        return diag + [0] * (length - len(diag))

    def transposed(self) -> "SnfResult":
        """The Smith form of M^T: Q^T @ M^T @ P^T == S^T, so its operators
        are Q^T on the column log and P^T on the row log."""
        p, q = _Transform(self.q.log, self.q.n), _Transposed(self.p.log, self.p.n)
        return SnfResult(self.ring, _transpose(self.s_rows, self.cols), p, q, len(self.s_rows))


class _Transform:
    """A Smith transform T as an operator: `cols` gives T @ v for a list of
    column vectors v, `rows` x @ T for a list of row vectors x, each vector
    updated in place and reduced mod n over Z/n; `inv` is T^-1, built once.
    T is kept as its log of row operations (see `_snf_int`).  `cols` runs
    them in order: a swap (t, i) exchanges w[t] and w[i], a pass (t, ks)
    sets w[j] -= k * w[t] for each (j, k), so (t, [(t, 2)]) negates w[t].
    `rows` runs their transposes last first: a pass sets w[t] -= sum(k *
    w[j]).  The operator on a log of column operations is a `_Transposed`."""

    def __init__(self, log: list, n: int | None):
        self.log, self.n = log, n

    def cols(self, vecs: list[list[int]]) -> list[list[int]]:
        n = self.n
        for t, op in self.log:
            for w in vecs:
                if type(op) is int:
                    w[t], w[op] = w[op], w[t]
                elif y := w[t]:
                    for j, k in op:
                        w[j] = w[j] - k * y if n is None else (w[j] - k * y) % n
        return vecs

    def rows(self, vecs: list[list[int]]) -> list[list[int]]:
        n = self.n
        for t, op in reversed(self.log):
            for w in vecs:
                if type(op) is int:
                    w[t], w[op] = w[op], w[t]
                elif d := sum(k * w[j] for j, k in op):
                    w[t] = w[t] - d if n is None else (w[t] - d) % n
        return vecs

    @cached_property
    def inv(self) -> "_Transform":
        """The log last entry first, each entry inverted: a swap and a negation
        undo themselves, and a pass with t not among its j negates its k."""
        log = [(t, op if type(op) is int else [(j, k if j == t else -k) for j, k in op])
               for t, op in reversed(self.log)]
        return type(self)(log, self.n)


class _Transposed(_Transform):
    """T^T for the `_Transform` T on the same log: Q on the column log."""

    cols, rows = _Transform.rows, _Transform.cols


def _transpose(vecs: list[list[int]], length: int) -> list[list[int]]:
    """`vecs` transposed: `length` lists, list i holding entry i of each
    vector, so `length` empty lists when there is no vector."""
    return list(map(list, zip(*vecs))) if vecs else [[] for _ in range(length)]


def _from_rows(ring: RingSpec, rows: list[list[int]], cols: int) -> Matrix:
    return _matrix(ring, len(rows), cols, list(chain.from_iterable(rows)))


def _snf_int(m: Matrix) -> SnfResult:
    """Smith form of m over its own ring.  No transform is carried: each
    row operation is logged in `p_log`, each column operation in `q_log`,
    as an entry of one format (see `_Transform`):
      (t, i)   a swap of rows or columns t and i;
      (t, ks)  a pass, row (column) j -= k * row (column) t for each
               (j, k) in ks; the sign fix of a negative pivot is the row
               pass (t, [(t, 2)]), and a gcd fix-up, column t += column
               bad, the column pass (bad, [(t, -1)]).
    The pivot sequence depends on m alone, so the logs give every reader
    the entries a carried transform would give it.  The result keeps the
    working rows and holds the logs as its operators `p` and `q`: no
    `Matrix` is built here.

    Row updates touch the support of the pivot row, column updates the
    nonzero quotients; the rest would get + 0.  Over Z/n entries are
    symmetric residues, (v + h) % n - h with h = n // 2, and every update
    is reduced the same way, so no entry reaches n.  A remainder is below
    its pivot and a pivot is at most n/2, so it still terminates.  The
    pivot divides an entry when gcd(pivot, n) does."""
    ring, r, c, n = m.ring, m.rows, m.cols, m.ring.modulus
    h = (n or 0) // 2
    a = m.to_rows() if n is None else [[(v + h) % n - h for v in row] for row in m.to_rows()]
    p_log, q_log = [], []

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
            p_log.append((t, pi))
            a[t], a[pi] = a[pi], a[t]
        # rows above t and columns left of t are zero from column/row t on
        if pj != t:
            q_log.append((t, pj))
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            p_log.append((t, [(t, 2)]))
            a[t] = [-v for v in a[t]]

        at, piv = a[t], a[t][t]
        sup = [(j, at[j]) for j in range(t, c) if at[j]]
        quos = []
        dirty = False
        for i in range(t + 1, r):
            ai = a[i]
            if ai[t]:
                quo = ai[t] // piv
                quos.append((i, quo))
                # written out per ring: a helper call per update slowed Z by 2-3 %
                if n is None:
                    for j, y in sup:
                        ai[j] -= quo * y
                else:
                    for j, y in sup:
                        ai[j] = (ai[j] - quo * y + h) % n - h
                dirty = dirty or ai[t] != 0
        if quos:
            p_log.append((t, quos))
        ks = [(j, k) for j, y in sup[1:] if (k := y // piv)]
        if ks:
            q_log.append((t, ks))
            for row in a[t:]:
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
                q_log.append((bad, [(t, -1)]))
                for row in a[t:]:
                    row[t] += row[bad]
                continue
        t += 1

    return SnfResult(ring, a, _Transform(p_log, n), _Transposed(q_log, n), c)


def snf(m: Matrix) -> SnfResult:
    """Smith normal form with certificate P @ m @ Q == S over m's own ring; over
    Z/n, P and Q are unimodular there and each diagonal entry divides the next."""
    return _snf_int(m)


# -- solving and kernels -------------------------------------------------


def _from_cols(ring: RingSpec, rows: int, cols) -> Matrix:
    """The rows x len(cols) matrix with the columns `cols`."""
    return _matrix(ring, rows, len(cols), list(chain.from_iterable(zip(*cols))))


def smith_diagonal(a: Matrix) -> list[int]:
    """One invariant factor per row of `a`, units included, carrying no
    transform: gcd(d, n) for each Smith diagonal entry d (d over Z), then
    gcd(0, n) for the rows past the diagonal (n over Z/n, 0 over Z)."""
    n = a.ring.modulus or 0
    return [gcd(d, n) for d in _snf_int(a).diagonal(a.rows)]


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """A solution x of a @ x = b, one column for each column of b, or None
    when some column of b has no solution.

    One Smith form P @ a @ Q == S for all columns of b, with c = P @ b by
    the operator of P on the columns of b: row j is solvable when g_j =
    gcd(d_j, n) divides c_j (g_j = d_j over Z, rows past the diagonal need
    c_j = 0), with y_j = (c_j / g_j) * (d_j / g_j)^-1 mod n / g_j, and x =
    Q @ y, by the operator of Q on the columns of y.  The answer is
    certified by the literal identity a @ x == b before it is returned.
    """
    _check_same_ring(a, b)
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side must have the height of the matrix")
    return _solve(a, _snf_int(a), b)


def _solve(a: Matrix, res: SnfResult, b: Matrix) -> Matrix | None:
    """`solve_linear` on a Smith form `res` of a that the caller holds."""
    n = a.ring.modulus
    # the rows of c in [0, n), as the operator leaves them: y, and so x,
    # depends on the representatives, and symmetric ones would change x
    rows = zip(*res.p.cols([list(b.entries[j::b.cols]) for j in range(b.cols)]))
    y = [[0] * a.cols for _ in range(b.cols)]
    for i, (row, d) in enumerate(zip(rows, res.diagonal(a.rows))):
        g = gcd(d, n or 0)
        if any(v % g for v in row) if g else any(row):
            return None
        if d:
            u = pow(d // g, -1, n // g) if n else 1
            for col, v in zip(y, row):
                col[i] = v // g * u
    x = _from_cols(a.ring, a.cols, res.q.cols(y))
    if a @ x != b:
        raise InternalInvariantError("solution fails a @ x == b")
    return x


def kernel_gens(a: Matrix) -> Matrix:
    """Columns generating {x : a @ x = 0} over the matrix's ring.

    With P @ a @ Q == S, column j of Q times the annihilator of d_j (d_j = 0
    past the diagonal): n // gcd(d_j, n) over Z/n; over Z 1 when d_j = 0,
    else 0.  Zero columns are dropped.  Over Z a lattice basis.  Only those
    columns of Q are formed, by the operator of Q on the scaled unit
    vectors; nothing of P is applied.
    """
    res = _snf_int(a)
    n, diag = a.ring.modulus, res.diagonal(a.cols)
    scale = [n // gcd(d, n) % n for d in diag] if n else [int(d == 0) for d in diag]
    units = [[0] * j + [s] + [0] * (a.cols - j - 1) for j, s in enumerate(scale) if s]
    # over Z/n every entry is in [0, n), so a zero column is zero mod n
    return _from_cols(a.ring, a.cols, [v for v in res.q.cols(units) if any(v)])


def preimage_gens(f: Matrix, t: Matrix) -> Matrix:
    """Columns generating {x : f @ x lies in the column span of t}."""
    _check_same_ring(f, t)
    if f.rows != t.rows:
        raise DimensionMismatch("preimage target lives in a different ambient")
    k = kernel_gens(hstack(f, t))
    return _from_cols(k.ring, f.cols, [col for col in zip(*k.to_rows()[:f.cols]) if any(col)])


def in_span(v: Matrix, gens: Matrix) -> bool:
    """Every column of v lies in the column span of gens, over the ring."""
    return solve_linear(gens, v) is not None


def det(m: Matrix) -> int:
    """Exact determinant, reduced mod n for modular rings, by fraction-free
    (Bareiss) elimination of the lift: every entry stays a minor of the
    input, so integers grow no further than the determinant bound, and the
    last pivot is the determinant up to the sign of the row swaps."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    a, n, sign, prev = m.lift().to_rows(), m.rows, 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return m.ring.normalize(sign * prev)


def is_unimodular(m: Matrix) -> bool:
    return m.ring.is_unit(det(m))


def product_order(factors) -> int | None:
    """Number of elements presented by an invariant-factor list; None if infinite."""
    if any(f == 0 for f in factors):
        return None
    return prod(factors) if factors else 1
