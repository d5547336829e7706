"""Exact linear algebra core: Smith form against a determinantal-divisor
oracle, solvability against brute force over Z/n, and the certificate
invariants used everywhere else.
"""

import functools
import random
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from freeabcat import (
    DimensionMismatch,
    InvariantViolation,
    Matrix,
    RingMismatch,
    RingSpec,
    ZZ,
    Zmod,
    block,
    block_diagonal,
    det,
    hstack,
    is_unimodular,
    kernel_gens,
    preimage_gens,
    snf,
    solve_linear,
    vstack,
)
from freeabcat import linalg
from freeabcat.errors import WorkspaceError
from freeabcat.fpmodules import FpModule
from freeabcat.linalg import (
    _identity_rows,
    _inverse_log,
    _replay,
    _replay_transposed,
    _snf_int,
    in_span,
    kron,
    smith_diagonal,
)
from freeabcat.serialize import ring_from_json

from conftest import unimodular_inverse


def mat(rows, ring=ZZ, cols=None):
    return Matrix.from_rows(ring, rows, cols=cols)


# -- independent oracle: invariant factors via determinantal divisors ----


def _det_int(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_int(minor)
    return total


def snf_oracle(rows, r, c) -> list[int]:
    """d_k = gcd of k x k minors; invariant factor k is d_k / d_(k-1)."""
    out = []
    prev = 1
    for k in range(1, min(r, c) + 1):
        g = 0
        for rs in combinations(range(r), k):
            for cs in combinations(range(c), k):
                sub = [[rows[i][j] for j in cs] for i in rs]
                g = gcd(g, abs(_det_int(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    out += [0] * (min(r, c) - len(out))
    return out


def test_snf_matches_minor_gcd_oracle_on_random_matrices():
    rng = random.Random(20260819)
    for _ in range(150):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        got = snf(mat(rows, cols=c)).diagonal()
        assert got == snf_oracle(rows, r, c)


def test_snf_matches_sympy_at_twenty_to_thirty_rows():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(20261019)
    for r, c in [(20, 20), (30, 30), (24, 30), (30, 21), (26, 26), (20, 28)]:
        # dense small entries, and a product through a narrow diagonal
        # middle whose 2s and 6s give nontrivial factors (sympy slows down
        # sharply at 40 rows and on many repeated factors, so neither is here)
        k = rng.randint(8, min(r, c) - 2)
        lo = Matrix(ZZ, r, k, tuple(rng.randint(-2, 2) for _ in range(r * k)))
        hi = Matrix(ZZ, k, c, tuple(rng.randint(-2, 2) for _ in range(k * c)))
        mid = Matrix.diagonal(ZZ, [rng.choice([1, 1, 2, 6]) for _ in range(k)])
        dense = Matrix(ZZ, r, c, tuple(rng.randint(-3, 3) for _ in range(r * c)))
        for m in (dense, lo @ mid @ hi):
            want = invariant_factors(sympy.Matrix(m.to_rows()), domain=sympy.ZZ)
            assert snf(m).diagonal() == [int(d) for d in want]


def test_snf_fixture_two_by_two():
    # gcd of entries 2; |det| = 2*8 - 4*6 = -8 -> divisors 2, 8 -> factors 2, 4
    res = snf(mat([[2, 4], [6, 8]]))
    assert res.diagonal() == [2, 4]
    assert res.P @ mat([[2, 4], [6, 8]]) @ res.Q == res.S


def test_snf_zero_matrix_leaves_transforms_identity():
    res = snf(Matrix.zeros(ZZ, 2, 3))
    assert res.S == Matrix.zeros(ZZ, 2, 3)
    assert res.P == Matrix.identity(ZZ, 2)
    assert res.Q == Matrix.identity(ZZ, 3)


def test_snf_is_deterministic():
    m = mat([[6, 4, 2], [2, 8, 10], [4, 4, 0]])
    first, second = snf(m), snf(m)
    assert (first.S, first.P, first.Q) == (second.S, second.P, second.Q)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 5), st.integers(0, 5), st.data(),
    st.sampled_from([None, 4, 6, 12]),
)
def test_snf_certificate_properties(r, c, data, modulus):
    ring = ZZ if modulus is None else Zmod(modulus)
    entries = data.draw(st.lists(
        st.integers(-30, 30), min_size=r * c, max_size=r * c))
    m = Matrix(ring, r, c, tuple(entries))
    res = snf(m)
    assert res.P @ m @ res.Q == res.S
    assert is_unimodular(res.P) and is_unimodular(res.Q)
    diag = res.diagonal()
    for i in range(r):
        for j in range(c):
            if i != j:
                assert res.S.entry(i, j) == 0
    for a, b in zip(diag, diag[1:]):
        assert ring.divides(a, b)
    if not ring.is_modular:
        assert all(d >= 0 for d in diag)


# -- solving --------------------------------------------------------------


def test_solve_fixture_over_int_and_mod5():
    a = mat([[2]])
    b = mat([[3]])
    assert solve_linear(a, b) is None
    a5, b5 = mat([[2]], Zmod(5)), mat([[3]], Zmod(5))
    x = solve_linear(a5, b5)
    assert x == mat([[4]], Zmod(5))
    # of the solutions, the one read from P @ b in [0, n): y = 2 // 2 in
    # Z/4, where the symmetric residue -2 would give y = -1 and x = 3
    assert solve_linear(mat([[2, 0]], Zmod(4)), mat([[2]], Zmod(4))) == mat([[1], [0]], Zmod(4))
    assert solve_linear(mat([[0, 3]], Zmod(6)), mat([[3]], Zmod(6))) == mat([[0], [1]], Zmod(6))


def test_solve_agrees_with_brute_force_over_modular_rings():
    rng = random.Random(7)
    for n in (4, 6):
        ring = Zmod(n)
        for _ in range(40):
            r, c = rng.randint(0, 2), rng.randint(0, 3)
            a = Matrix(ring, r, c, tuple(rng.randrange(n) for _ in range(r * c)))
            b = Matrix(ring, r, 1, tuple(rng.randrange(n) for _ in range(r)))
            brute = None
            for cand in product(range(n), repeat=c):
                x = Matrix(ring, c, 1, cand)
                if a @ x == b:
                    brute = x
                    break
            got = solve_linear(a, b)
            assert (got is None) == (brute is None)
            if got is not None:
                assert a @ got == b


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_returns_exact_solutions_over_int(r, c, data):
    a = Matrix(ZZ, r, c, tuple(data.draw(
        st.lists(st.integers(-6, 6), min_size=r * c, max_size=r * c))))
    x0 = Matrix(ZZ, c, 1, tuple(data.draw(
        st.lists(st.integers(-4, 4), min_size=c, max_size=c))))
    b = a @ x0
    got = solve_linear(a, b)
    assert got is not None
    assert a @ got == b


def test_kernel_gens_annihilate_and_saturate():
    rng = random.Random(11)
    for _ in range(60):
        r, c = rng.randint(0, 3), rng.randint(0, 4)
        a = Matrix(ZZ, r, c, tuple(rng.randint(-4, 4) for _ in range(r * c)))
        gens = kernel_gens(a)
        assert (a @ gens).is_zero
        rank = sum(1 for d in snf(a).diagonal() if d != 0)
        assert gens.cols == c - rank
        # a saturated full-nullity sublattice of the kernel is the kernel
        assert all(d == 1 for d in snf(gens).diagonal())


def test_kernel_gens_span_brute_force_kernel_mod_n():
    rng = random.Random(13)
    for n in (4, 6, 8, 9, 12):
        ring = Zmod(n)
        for _ in range(25):
            r, c = rng.randint(0, 2), rng.randint(0, 3)
            a = Matrix(ring, r, c, tuple(rng.randrange(n) for _ in range(r * c)))
            gens = kernel_gens(a)
            assert all(any(gens.col_list(j)) for j in range(gens.cols))
            rows = a.to_rows()
            brute = {x for x in product(range(n), repeat=c)
                     if all(sum(u * v for u, v in zip(row, x)) % n == 0 for row in rows)}
            assert _span(gens, ring) == brute


def _solve_by_columns(a, b):
    """Oracle: one solve per column of b, stitched together."""
    cols = [solve_linear(a, b.column(j)) for j in range(b.cols)]
    if any(x is None for x in cols):
        return None
    return Matrix(a.ring, a.cols, b.cols,
                  tuple(x.entry(i, 0) for i in range(a.cols) for x in cols))


@pytest.mark.parametrize("modulus", [None, 4, 6])
def test_multi_column_solve_matches_column_by_column(modulus):
    ring = ZZ if modulus is None else Zmod(modulus)
    rng = random.Random(2024 + (modulus or 0))
    verdicts = set()
    for _ in range(60):
        r, c, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = Matrix(ring, r, c, tuple(ring.normalize(rng.randint(-5, 5)) for _ in range(r * c)))
        # mix columns known to be solvable with arbitrary ones
        cols = []
        for _ in range(k):
            if rng.random() < 0.6:
                x0 = Matrix(ring, c, 1, tuple(ring.normalize(rng.randint(-3, 3)) for _ in range(c)))
                cols.append((a @ x0).entries)
            else:
                cols.append(tuple(ring.normalize(rng.randint(-5, 5)) for _ in range(r)))
        b = Matrix(ring, r, k, tuple(col[i] for i in range(r) for col in cols))
        got = solve_linear(a, b)
        want = _solve_by_columns(a, b)
        assert (got is None) == (want is None)
        verdicts.add(got is None)
        if got is not None:
            assert (got.rows, got.cols) == (c, k)
            assert a @ got == b
    assert verdicts == {True, False}


@pytest.mark.parametrize("modulus", [None, 4, 6])
def test_solve_degenerate_shapes(modulus):
    ring = ZZ if modulus is None else Zmod(modulus)
    a = Matrix(ring, 2, 3, tuple(ring.normalize(v) for v in (1, 2, 3, 4, 5, 6)))
    # no right-hand sides: trivially solvable, empty solution
    assert solve_linear(a, Matrix.zeros(ring, 2, 0)) == Matrix.zeros(ring, 3, 0)
    # no equations: anything goes, zero is a solution
    no_rows = Matrix.zeros(ring, 0, 3)
    assert solve_linear(no_rows, Matrix.zeros(ring, 0, 2)) == Matrix.zeros(ring, 3, 2)
    # no unknowns: solvable exactly when b is zero
    empty = Matrix.zeros(ring, 2, 0)
    assert solve_linear(empty, Matrix.zeros(ring, 2, 3)) == Matrix.zeros(ring, 0, 3)
    assert solve_linear(empty, mat([[0, 1], [0, 0]], ring)) is None
    with pytest.raises(DimensionMismatch):
        solve_linear(a, Matrix.zeros(ring, 3, 1))


def _span(gens, ring):
    """Every ring combination of the columns of gens, as entry tuples, by closure."""
    n = ring.modulus
    seen = {(0,) * gens.rows}
    frontier = list(seen)
    cols = [gens.col_list(j) for j in range(gens.cols)]
    while frontier:
        v = frontier.pop()
        for col in cols:
            w = tuple((x + y) % n for x, y in zip(v, col))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_preimage_gens_brute_force_mod_n(n):
    ring = Zmod(n)
    rng = random.Random(31 + n)
    for _ in range(30):
        r, c, k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
        f = Matrix(ring, r, c, tuple(rng.randrange(n) for _ in range(r * c)))
        t = Matrix(ring, r, k, tuple(rng.randrange(n) for _ in range(r * k)))
        pre = preimage_gens(f, t)
        assert pre.rows == c
        assert all(any(pre.col_list(j)) for j in range(pre.cols))
        target = _span(t, ring)
        brute = {x for x in product(range(n), repeat=c)
                 if (f @ Matrix(ring, c, 1, x)).entries in target}
        assert _span(pre, ring) == brute


def test_preimage_and_in_span_basics():
    f = mat([[2, 0], [0, 3]])
    t = mat([[4], [0]])
    pre = preimage_gens(f, t)
    for j in range(pre.cols):
        col = f @ pre.submatrix(0, 2, j, j + 1)
        assert in_span(col, t)
    assert in_span(mat([[4], [0]]), t)
    assert not in_span(mat([[2], [0]]), t)


# -- carried operands against the full transforms -------------------------
#
# Each caller replays the elimination's logs on only what it reads (P @ b
# and Q @ y for a solve, the kernel columns of Q, nothing for invariant
# factors).  The oracles below derive the same answers from the
# full certified transforms of an integer `snf`; over Z/n they lift the
# system to Z and adjoin n*I, so they share no elimination with the native
# mod-n path.


def integer_relations(a):
    """An integer matrix whose column span, read in a's ring, is a's: a
    itself over Z, the lift with n*I adjoined over Z/n."""
    if not a.ring.is_modular:
        return a
    return hstack(a.lift(), Matrix.diagonal(ZZ, [a.ring.modulus] * a.rows))


@functools.lru_cache(maxsize=4)
def lifted_snf(a):
    return snf(integer_relations(a))


def full_kernel_gens(a):
    res = lifted_snf(a)
    rank = sum(1 for d in res.diagonal() if d)
    cols = [[a.ring.normalize(res.Q.entry(i, j)) for i in range(a.cols)]
            for j in range(rank, res.Q.cols)]
    cols = [col for col in cols if any(col)]
    return Matrix(a.ring, a.cols, len(cols),
                  tuple(col[i] for i in range(a.cols) for col in cols))


def full_solve(a, b):
    rel, res = integer_relations(a), lifted_snf(a)
    y = [[0] * b.cols for _ in range(rel.cols)]
    for i, row in enumerate((res.P @ b.lift()).to_rows()):
        d = res.S.entry(i, i) if i < rel.cols else 0
        if any(v % d for v in row) if d else any(row):
            return None
        if d:
            y[i] = [v // d for v in row]
    x = res.Q.submatrix(0, a.cols, 0, rel.cols) @ Matrix.from_rows(ZZ, y, cols=b.cols)
    return x.reduce(a.ring)


def full_invariant_factors(a):
    diag = lifted_snf(a).diagonal()
    return tuple(d for d in diag + [0] * (a.rows - len(diag)) if d != 1)


def _random_system(rng, ring, r, c, rank, bits):
    """A matrix of rank at most `rank` (an r x rank matrix of small entries
    times a rank x c one of entries up to 2^bits), with its right-hand
    sides."""
    left = Matrix(ZZ, r, rank, tuple(rng.randint(-2, 2) for _ in range(r * rank)))
    right = Matrix(ZZ, rank, c, tuple(rng.randint(-2 ** bits, 2 ** bits)
                                      for _ in range(rank * c)))
    return _right_hand_sides(rng, (left @ right).reduce(ring))


def _right_hand_sides(rng, a):
    """a, a solvable right-hand side with a zero column, and two arbitrary
    columns."""
    ring, r, c = a.ring, a.rows, a.cols
    x = Matrix(ring, c, 2, tuple(rng.randint(-9, 9) for _ in range(2 * c)))
    solvable = hstack(a @ x, Matrix(ring, r, 1, (0,) * r))
    noise = Matrix(ring, r, 2, tuple(rng.randint(-9, 9) for _ in range(2 * r)))
    return a, solvable, noise


def _assert_native_matches_lifted(a, solvable, noise):
    """Over Z/n the native elimination picks other pivots than the lifted
    one, so generators and solutions are compared as what they mean."""
    ring, r = a.ring, a.rows
    gens, oracle_gens = kernel_gens(a), full_kernel_gens(a)
    assert (a @ gens).is_zero
    assert full_solve(gens, oracle_gens) is not None
    assert full_solve(oracle_gens, gens) is not None
    for b in (solvable, noise):
        sol = solve_linear(a, b)
        assert (sol is None) == (full_solve(a, b) is None)
        assert sol is None or a @ sol == b
    assert solve_linear(a, solvable) is not None
    want = full_invariant_factors(a)
    assert FpModule(ring, r, a).invariant_factors == want
    assert tuple(d for d in smith_diagonal(a) if d != 1) == want


def test_carried_operands_match_full_transform_derivations():
    rng = random.Random(20261018)
    rings = [ZZ, Zmod(4), Zmod(6), Zmod(8), Zmod(12)]
    # smallest first, so that a failure shows the smallest counterexample
    shapes = sorted([(0, 0), (0, 3), (3, 0)] + [(rng.randint(0, 8), rng.randint(0, 8))
                                                for _ in range(320)], key=lambda rc: rc[0] * rc[1])
    for k, (r, c) in enumerate(shapes):
        ring = rings[k % len(rings)]
        rank, bits = rng.randint(0, min(r, c)), rng.choice([2, 5, 20])
        a, solvable, noise = _random_system(rng, ring, r, c, rank, bits)
        if ring.is_modular:
            _assert_native_matches_lifted(a, solvable, noise)
            continue
        gens, sol = kernel_gens(a), solve_linear(a, solvable)
        assert gens == full_kernel_gens(a) and (a @ gens).is_zero
        assert sol == full_solve(a, solvable) and sol is not None and a @ sol == solvable
        assert solve_linear(a, noise) == full_solve(a, noise)
        diag = snf(a).diagonal()
        assert smith_diagonal(a) == diag + [0] * (r - len(diag))
        assert FpModule(ring, r, a).invariant_factors == full_invariant_factors(a)


@pytest.mark.parametrize("modulus", [12, 720, 3 * 2 ** 20])
def test_native_modular_path_at_twenty_to_thirty_rows(modulus):
    ring = Zmod(modulus)
    rng = random.Random(modulus)
    for r, c in [(20, 20), (26, 20), (20, 30)]:
        _assert_native_matches_lifted(*_random_system(rng, ring, r, c, min(r, c) - 4, 20))
        dense = Matrix(ring, r, c, tuple(rng.randrange(modulus) for _ in range(r * c)))
        _assert_native_matches_lifted(*_right_hand_sides(rng, dense))


# -- the elimination against its full-row form ------------------------------
#
# `_snf_int` updates only the support of the pivot row and only the columns
# with a nonzero quotient, and logs its row and column operations instead
# of carrying P and Q.  `_full_row_snf` is the same elimination with every
# row and column update written over the whole row and both transforms
# carried forward, as the package did it before; what it adds beyond that
# support is + 0, so S, P and Q must come out bit-identical.  It is also
# the oracle for what the readers of the logs return (P @ b, solves,
# kernels).


def _full_row_snf(m, left=None):
    ring, r, c, n = m.ring, m.rows, m.cols, m.ring.modulus
    h = (n or 0) // 2
    a = m.to_rows() if n is None else [[(v + h) % n - h for v in row] for row in m.to_rows()]
    p = (Matrix.identity(ring, r) if left is None else left).to_rows()
    q = Matrix.identity(ring, c).to_rows()
    t = 0
    while t < min(r, c):
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
                if n is None:
                    ai[t:] = [x - quo * y for x, y in zip(ai[t:], at[t:])]
                    p[i] = [x - quo * y for x, y in zip(p[i], pt)]
                else:
                    ai[t:] = [(x - quo * y + h) % n - h for x, y in zip(ai[t:], at[t:])]
                    p[i] = [(x - quo * y + h) % n - h for x, y in zip(p[i], pt)]
                dirty = dirty or ai[t] != 0
        quos = [v // piv for v in at[t + 1:]]
        if any(quos):
            for row in a[t:] + q:
                y = row[t]
                if y:
                    row[t + 1:] = ([x - k * y for x, k in zip(row[t + 1:], quos)] if n is None else
                                   [(x - k * y + h) % n - h for x, k in zip(row[t + 1:], quos)])
            dirty = dirty or any(at[t + 1:])
        if dirty:
            continue
        g = piv if n is None else gcd(piv, n)
        if g != 1:
            bad = next((j for row in a[t + 1:] for j, v in enumerate(row) if v % g), None)
            if bad is not None:
                for row in a[t:] + q:
                    row[t] += row[bad]
                continue
        t += 1
    return (Matrix.from_rows(ring, a, cols=c),
            Matrix.from_rows(ring, p, cols=r if left is None else left.cols),
            Matrix.from_rows(ring, q, cols=c))


def _sparse(rng, ring, r, c, density, bound=3):
    return Matrix(ring, r, c, tuple(rng.randint(-bound, bound) if rng.random() < density else 0
                                    for _ in range(r * c)))


def _commute_shaped(rng, ring, n1, n2, n3):
    """[-kron(m1', I) | kron(I, m1^T) | 0 ; 0 | -kron(m2', I) | kron(I, m2^T)]
    for random chains, the shape of the hom-group system."""
    m1, m2, m1y, m2y = (_sparse(rng, ring, r, c, 0.6) for r, c in
                        ((n2, n1), (n3, n2), (n2, n1), (n3, n2)))
    eye, zeros = Matrix.identity, Matrix.zeros
    return block([
        [-kron(m1y, eye(ring, n1)), kron(eye(ring, n2), m1.transpose()), zeros(ring, n2 * n1, n3 * n3)],
        [zeros(ring, n3 * n2, n1 * n1), -kron(m2y, eye(ring, n2)), kron(eye(ring, n3), m2.transpose())],
    ])


def _image_shaped(rng, ring, n1, n2, n3):
    """The commute block stacked over a homotopy row k @ kron(a2, I) and -g,
    the shape of the image-factorization system."""
    commute = _commute_shaped(rng, ring, n1, n2, n3)
    k, a2 = _sparse(rng, ring, n2 * n2, n2 * n2, 0.2), _sparse(rng, ring, n2, n2, 0.5)
    g = _sparse(rng, ring, n2 * n2, n2 + n3, 0.4)
    zeros = Matrix.zeros
    return block([
        [commute, zeros(ring, commute.rows, g.cols)],
        [zeros(ring, k.rows, n1 * n1), k @ kron(a2, Matrix.identity(ring, n2)),
         zeros(ring, k.rows, n3 * n3), -g],
    ])


def _snf_inputs(seed):
    rng = random.Random(seed)
    for ring in (ZZ, Zmod(4), Zmod(12), Zmod(720)):
        for shape in ((2, 3, 2), (3, 4, 3), (2, 5, 4)):
            yield _commute_shaped(rng, ring, *shape)
            yield _image_shaped(rng, ring, *shape)
        for r, c in ((20, 60), (24, 75), (30, 95)):
            yield _sparse(rng, ring, r, c, rng.uniform(0.05, 0.3))


def test_support_updates_match_full_row_updates_bit_for_bit():
    """S as eliminated, and P and Q as replayed from the logs of row and
    column operations, against the oracle that carries both forward; P @ b,
    the row log replayed on the columns of b, against the oracle's carried
    P @ b."""
    rng = random.Random(20261019)
    for m in _snf_inputs(20261019):
        ring, r = m.ring, m.rows
        b = Matrix(ring, r, 2, tuple(rng.randint(-5, 5) for _ in range(2 * r)))
        got = _snf_int(m)
        assert (got.S, got.P, got.Q) == _full_row_snf(m)
        pb = _replay(got.p_log, [b.col_list(j) for j in range(b.cols)], ring.modulus)
        assert mat(pb, ring).transpose() == _full_row_snf(m, b)[1]


def _carried_q_solve(a, b):
    """x = Q @ y, from the oracle's carried P @ b and Q."""
    s, pb, q = _full_row_snf(a, b)
    n = a.ring.modulus
    diag = [s.entry(i, i) for i in range(min(a.rows, a.cols))]
    y = [[0] * b.cols for _ in range(a.cols)]
    for i, (row, d) in enumerate(zip(pb.to_rows(), diag + [0] * (a.rows - len(diag)))):
        g = gcd(d, n or 0)
        if any(v % g for v in row) if g else any(row):
            return None
        if d:
            u = pow(d // g, -1, n // g) if n else 1
            y[i] = [v // g * u for v in row]
    return q @ Matrix.from_rows(a.ring, y, cols=b.cols)


def _carried_q_kernel(a):
    """The oracle's columns of Q times the annihilators of the diagonal,
    zero columns dropped."""
    s, _, q = _full_row_snf(a)
    n = a.ring.modulus
    diag = [s.entry(j, j) for j in range(min(a.rows, a.cols))]
    cols = []
    for j, d in enumerate(diag + [0] * (a.cols - len(diag))):
        k = n // gcd(d, n) if n else int(d == 0)
        col = [v * k % n if n else v * k for v in q.col_list(j)]
        if any(col):
            cols.append(col)
    return Matrix(a.ring, a.cols, len(cols), tuple(chain.from_iterable(zip(*cols))))


def test_solves_and_kernels_match_the_carried_q_answers():
    """x = V @ y and the kernel columns of V, replayed from the log, equal
    what the carried Q gives, on solvable and unsolvable right-hand sides."""
    rng = random.Random(20261020)
    verdicts = {True: 0, False: 0}
    for a in _snf_inputs(20261020):
        ring, r, c = a.ring, a.rows, a.cols
        x0 = Matrix(ring, c, 2, tuple(rng.randint(-3, 3) for _ in range(2 * c)))
        noise = Matrix(ring, r, 1, tuple(rng.randint(-3, 3) for _ in range(r)))
        for b in (a @ x0, noise):
            x = solve_linear(a, b)
            assert x == _carried_q_solve(a, b)
            verdicts[x is not None] += 1
        assert kernel_gens(a) == _carried_q_kernel(a)
    assert verdicts[True] > 40 and verdicts[False] > 10


def test_carried_operands_stay_below_the_modulus():
    """Every update of the working rows over Z/n is reduced to a symmetric
    residue, (v + h) % n - h with h = n // 2, and a negated pivot row stays
    one, so the rows the elimination hands back hold no entry of absolute
    value above h.  The logs replayed on the identity, every update
    reduced mod n, lie in [0, n): not read through P and Q, which a
    `Matrix` over Z/n would reduce on construction whatever the replay."""
    rng = random.Random(4)
    for k in range(3000):
        n = [4, 6, 8, 12, 30, 720][k % 6]
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        res = _snf_int(Matrix(Zmod(n), r, c, tuple(rng.randrange(n) for _ in range(r * c))))
        assert all(abs(v) <= n // 2 for row in res.s_rows for v in row)
        replays = [_replay(res.p_log, _identity_rows(r), n),
                   _replay(res.q_log, _identity_rows(c), n)]
        assert all(0 <= v < n for rows in replays for row in rows for v in row)


def _negative_pivots(seed):
    """Matrices of negative entries (negative symmetric residues over Z/n),
    whose pivots need the sign fix, so the row log holds negations."""
    rng = random.Random(seed)
    for ring in (ZZ, Zmod(4), Zmod(12), Zmod(720)):
        for _ in range(12):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            yield Matrix(ring, r, c, tuple(rng.randint(-9, -1) for _ in range(r * c)))


def test_replays_are_the_transforms():
    """P @ v and x @ P replayed from the row log, P^-1 @ v and x @ P^-1
    from its inverse (`_inverse_log`), and the same four for Q from the
    column log, equal the products with the frozen P and Q and with their
    inverses from the test-side oracle."""
    rng = random.Random(20261022)
    negations = 0
    for m in chain(_snf_inputs(20261022), _negative_pivots(20261022)):
        ring, n, res = m.ring, m.ring.modulus, snf(m)
        negations += sum(op == [(t, 2)] for t, op in res.p_log)
        for u, log in ((res.P, res.p_log), (res.Q, res.q_log)):
            inv, k = _inverse(u), u.rows
            v = Matrix(ring, k, 2, tuple(rng.randint(-9, 9) for _ in range(2 * k)))
            x = v.transpose()  # its rows are the columns of v

            def replayed(replay, log=log):
                return mat(replay(log, x.to_rows(), n), ring, cols=k)

            undo = _inverse_log(log)
            if log is res.p_log:
                assert replayed(_replay) == (u @ v).transpose()
                assert replayed(_replay, undo) == (inv @ v).transpose()
                assert replayed(_replay_transposed) == x @ u
                assert replayed(_replay_transposed, undo) == x @ inv
            else:
                assert replayed(_replay_transposed) == (u @ v).transpose()
                assert replayed(_replay_transposed, undo) == (inv @ v).transpose()
                assert replayed(_replay) == x @ u
                assert replayed(_replay, undo) == x @ inv
    assert negations > 20


def _entry_kind(t, op) -> str:
    """Which of the four kinds of log entry (t, op) is (see `_snf_int`): a
    fix-up (bad, [(t, -1)]) adds an earlier column, every pass a later one."""
    if type(op) is int:
        return "swap"
    if op == [(t, 2)]:
        return "negation"
    if len(op) == 1 and op[0][1] == -1 and op[0][0] < t:
        return "fix-up"
    return "pass"


def test_inverse_log_undoes_both_replays():
    """`_inverse_log` is an involution, and replaying a log and then its
    inverse gives back the vectors, by `_replay` and by `_replay_transposed`
    alike, on logs that hold swaps, passes, negations and gcd fix-ups, each
    kind over Z and over Z/n."""
    rng = random.Random(20261024)
    rings = (ZZ, Zmod(4), Zmod(6), Zmod(12), Zmod(720))
    fix_ups = [Matrix.diagonal(ring, d) for ring in rings
               for d in ([2, 3], [3, 5], [4, 6], [6, 10], [9, 12], [10, 15, 6])]
    small = [Matrix(ring, r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
             for ring in rings for _ in range(40)
             for r, c in [(rng.randint(1, 6), rng.randint(1, 6))]]
    kinds = dict.fromkeys(product(("swap", "pass", "negation", "fix-up"), (False, True)), 0)
    for m in chain(fix_ups, small, _negative_pivots(20261024)):
        n, res = m.ring.modulus, _snf_int(m)
        for log, k in ((res.p_log, m.rows), (res.q_log, m.cols)):
            for t, op in log:
                kinds[_entry_kind(t, op), m.ring.is_modular] += 1
            undo = _inverse_log(log)
            assert _inverse_log(undo) == log
            vecs = [[rng.randrange(n) if n else rng.randint(-9, 9) for _ in range(k)]
                    for _ in range(3)]
            for replay in (_replay, _replay_transposed):
                assert replay(undo, replay(log, [v[:] for v in vecs], n), n) == vecs
    assert all(count > 5 for count in kinds.values()), kinds


def test_transposed_smith_form_solves_the_transpose():
    """`transposed` of the Smith form of m is one of m^T: P and Q are Q^T
    and P^T of m's, it certifies Q^T @ m^T @ P^T == S^T, and `_solve` on it
    answers every system in m^T that `solve_linear` answers."""
    rng = random.Random(20261020)
    for m in chain(_snf_inputs(20261020), _negative_pivots(20261020)):
        ring, res = m.ring, snf(m)
        t, mt = res.transposed(), m.transpose()
        assert (t.P, t.Q, t.S) == (res.Q.transpose(), res.P.transpose(), res.S.transpose())
        assert t.P @ mt @ t.Q == t.S
        assert t.diagonal(m.cols) == res.diagonal(m.cols)
        x = Matrix(ring, m.rows, 2, tuple(rng.randint(-9, 9) for _ in range(2 * m.rows)))
        b = Matrix(ring, m.cols, 1, tuple(rng.randint(-9, 9) for _ in range(m.cols)))
        assert mt @ linalg._solve(mt, t, mt @ x) == mt @ x
        assert (linalg._solve(mt, t, b) is None) == (solve_linear(mt, b) is None)


@pytest.mark.parametrize("ring", [ZZ, Zmod(12)], ids=["Z", "Z/12"])
def test_kernels_solves_and_diagonals_freeze_only_what_they_return(ring, monkeypatch):
    """`smith_diagonal`, `kernel_gens` and `solve_linear` read the rows the
    elimination keeps and build no S, P, Q, identity or empty operand.
    What is left per call, counted through both builders (the validating
    `Matrix.__post_init__` and the trusted `_matrix`): nothing for
    `smith_diagonal`; the result of `kernel_gens` (1); x = V @ y, replayed
    on the columns of y, and its certificate a @ x of a solvable
    `solve_linear` (2), and nothing when it has no solution.

    The traced `linalg.matrix.built` of the benchmark cannot show this
    saving: it counts only `__post_init__`, and the tracer reads S, P and Q
    of every elimination, which builds them."""
    a = mat([[2, 4, 0, 6, 1], [0, 6, 3, 3, 9], [4, 2, 6, 0, 2], [0, 0, 0, 0, 0]], ring)
    b = a @ mat([[1, 0], [2, 1], [0, 3], [1, 1], [5, 0]], ring)
    unsolvable = mat([[0], [0], [0], [1]], ring)
    assert solve_linear(a, unsolvable) is None
    built = []
    post_init, trusted = Matrix.__post_init__, linalg._matrix
    monkeypatch.setattr(Matrix, "__post_init__", lambda m: built.append(m) or post_init(m))
    monkeypatch.setattr(linalg, "_matrix", lambda *args: built.append(args) or trusted(*args))
    for call, want in ((lambda: smith_diagonal(a), 0), (lambda: kernel_gens(a), 1),
                       (lambda: solve_linear(a, b), 2), (lambda: solve_linear(a, unsolvable), 0)):
        del built[:]
        call()
        assert len(built) == want


def test_matrix_from_a_list_is_an_immutable_tuple_matrix():
    for ring in (ZZ, Zmod(5)):
        entries = [1, 7]
        m = Matrix(ring, 1, 2, entries)
        entries[0] = 3
        want = Matrix(ring, 1, 2, (1, 7))
        assert type(m.entries) is tuple and m.entries == want.entries
        assert m == want and hash(m) == hash(want) and len({m, want}) == 1
        with pytest.raises(TypeError):
            m.entries[0] = 2
        with pytest.raises(AttributeError):
            m.entries = (0, 0)


def test_matmul_matches_the_entrywise_sum():
    rng = random.Random(8)
    for ring in (ZZ, Zmod(12)):
        for _ in range(60):
            p, q, r = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
            a = Matrix(ring, p, q, tuple(rng.randint(-9, 9) for _ in range(p * q)))
            x = Matrix(ring, q, r, tuple(rng.randint(-9, 9) for _ in range(q * r)))
            want = [sum(a.entry(i, k) * x.entry(k, j) for k in range(q))
                    for i in range(p) for j in range(r)]
            assert a @ x == Matrix(ring, p, r, tuple(want))


@pytest.mark.parametrize("modulus", [None, 12, 720])
def test_snf_certifies_sparse_thirty_by_ninety(modulus):
    ring = ZZ if modulus is None else Zmod(modulus)
    rng = random.Random(3090 + (modulus or 0))
    for density in (0.08, 0.2):
        m = _sparse(rng, ring, 30, 90, density)
        res = snf(m)
        assert res.P @ m @ res.Q == res.S
        assert is_unimodular(res.P) and is_unimodular(res.Q)
        diag = res.diagonal()
        assert all(res.S.entry(i, j) == 0 for i in range(30) for j in range(90) if i != j)
        assert all(ring.divides(x, y) for x, y in zip(diag, diag[1:]))
        assert modulus is not None or all(d >= 0 for d in diag)


# -- determinants and matrix algebra ---------------------------------------


def test_det_matches_cofactor_expansion():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det(mat(rows, cols=n)) == _det_int(rows)


def test_unimodular_fixtures():
    assert is_unimodular(mat([[1, 5], [0, -1]]))
    assert not is_unimodular(mat([[2, 0], [0, 1]]))
    assert is_unimodular(mat([[3]], Zmod(4)))
    assert not is_unimodular(mat([[2]], Zmod(4)))


def _inverse(u):
    """The test-side oracle's inverse of the matrix u, over u's ring."""
    return mat(unimodular_inverse(u.to_rows(), u.ring.modulus), u.ring, cols=u.rows)


def test_unimodular_inverse_of_smith_transforms():
    """The test-side inverse oracle on Smith transforms and fixtures."""
    rng = random.Random(11)
    eye = Matrix.identity
    for n, bound in ((0, 1), (1, 3), (3, 3), (6, 20), (9, 2 ** 20)):
        m = mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n + 1)], cols=n)
        res = snf(m)
        for u in (res.P, res.Q):
            inv = _inverse(u)
            assert u @ inv == eye(ZZ, u.rows) and inv @ u == eye(ZZ, u.rows)
    swap = mat([[0, 1], [1, 0]])
    assert _inverse(swap) == swap
    assert _inverse(mat([[2, 3], [1, 2]])) == mat([[2, -3], [-1, 2]])
    for bad in (mat([[2, 0], [0, 1]]), mat([[1, 2], [2, 4]]), mat([[1, 2]]), mat([[2]], Zmod(4)),
                mat([[2, 0], [0, 3]], Zmod(6))):
        with pytest.raises(ValueError):
            unimodular_inverse(bad.to_rows(), bad.ring.modulus)
    # over Z/n the native transforms are unimodular there, and so invertible
    for ring in (Zmod(4), Zmod(12), Zmod(720)):
        for n, bound in ((0, 1), (1, 3), (3, 11), (6, 719), (8, 2 ** 20)):
            m = mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n + 1)],
                    ring, cols=n)
            res = snf(m)
            for u in (res.P, res.Q):
                inv = _inverse(u)
                assert u @ inv == eye(ring, u.rows) == inv @ u


def test_stack_and_block_shapes():
    a = mat([[1, 2]])
    b = mat([[3, 4]])
    assert vstack(a, b) == mat([[1, 2], [3, 4]])
    assert hstack(a.transpose(), b.transpose()) == mat([[1, 3], [2, 4]])
    assert block_diagonal(a, b) == mat([[1, 2, 0, 0], [0, 0, 3, 4]])
    with pytest.raises(RingMismatch):
        block_diagonal(mat([[5]]), mat([[3]], Zmod(4)))
    with pytest.raises(DimensionMismatch):
        block_diagonal()
    empty = Matrix.zeros(ZZ, 0, 2)
    assert vstack(empty, a) == a
    with pytest.raises(DimensionMismatch):
        vstack(a, mat([[1]]))
    with pytest.raises(RingMismatch):
        a @ mat([[1], [1]], Zmod(4))


def test_reduce_is_a_ring_map():
    m = mat([[5, 11]], Zmod(12))
    assert m.reduce(Zmod(4)) == mat([[1, 3]], Zmod(4))
    assert m.reduce(Zmod(12)) is m
    assert m.lift() == mat([[5, 11]])
    assert mat([[-7, 9]]).reduce(Zmod(5)) == mat([[3, 4]], Zmod(5))
    for target in (Zmod(5), Zmod(24), Zmod(8)):
        with pytest.raises(RingMismatch):
            m.reduce(target)


def test_modular_entries_normalize_on_construction():
    m = mat([[-1, 7]], Zmod(4))
    assert m.entries == (3, 3)
    assert m.lift().ring == ZZ
    assert m.lift().reduce(Zmod(4)) == m
    # arithmetic leaves the reduction to the constructor
    assert (m + m).entries == (2, 2)
    assert (-m).entries == (1, 1)
    assert m.scale(7).entries == (1, 1)
    assert (m @ mat([[3], [2]], Zmod(4))).entries == (3,)
    assert kron(m, mat([[3]], Zmod(4))).entries == (1, 1)
    assert (m - mat([[1, 2]], Zmod(4))).entries == (2, 1)


@pytest.mark.parametrize("bad", [0.5, 1.0, Fraction(1, 2), Decimal(1), "1", None],
                         ids=["float", "whole-float", "fraction", "decimal", "str", "none"])
def test_non_integer_entries_are_rejected(bad):
    for ring in (ZZ, Zmod(4)):
        with pytest.raises(InvariantViolation):
            Matrix(ring, 1, 1, (bad,))
        with pytest.raises(InvariantViolation):
            mat([[1, bad]], ring)


def test_negative_dimensions_are_rejected():
    for ring in (ZZ, Zmod(4)):
        for build in (lambda: Matrix.identity(ring, -1), lambda: Matrix.zeros(ring, -1, 2),
                      lambda: Matrix.zeros(ring, 2, -1), lambda: Matrix(ring, -1, 0, ())):
            with pytest.raises(DimensionMismatch):
                build()


@pytest.mark.parametrize("modulus", [4.0, float(2 ** 60), True, Fraction(4), Decimal(12)],
                         ids=["float", "big-float", "bool", "fraction", "decimal"])
def test_a_modulus_that_is_not_an_int_is_rejected(modulus):
    # RingSpec(float(2**60)) used to equal Zmod(2**60) and reduce 2**60 + 1 to 0.0
    with pytest.raises(ValueError):
        RingSpec(modulus)
    with pytest.raises(WorkspaceError, match=r"^ring\.Zmod: Zmod modulus must be an integer >= 2$"):
        ring_from_json({"Zmod": modulus}, "ring.Zmod")


@pytest.mark.parametrize("build", [
    lambda: Matrix(ZZ, 2.0, 1, [1, 2]),
    lambda: Matrix(Zmod(4), 1, 2.0, [1, 2]),
    lambda: Matrix(ZZ, True, 1, [1]),
    lambda: Matrix.zeros(ZZ, 2.0, 1),
    lambda: Matrix.zeros(ZZ, 1, Fraction(2)),
    lambda: Matrix.identity(ZZ, 2.0),
    lambda: Matrix.from_rows(ZZ, [], cols=1.0),
    lambda: FpModule(ZZ, 2.0, Matrix(ZZ, 2, 1, [2, 0])),
], ids=["matrix-rows", "matrix-cols", "bool-rows", "zeros", "zeros-fraction", "identity",
        "empty-from-rows", "module-rank"])
def test_dimensions_that_are_not_ints_are_rejected(build):
    with pytest.raises(DimensionMismatch):
        build()


@pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=["Z", "Z/4"])
def test_public_entry_points_still_reject_bad_input(ring):
    """Results computed inside `linalg` skip the per-entry scan; what a
    caller hands in, and every shape, is still checked."""
    m = mat([[1, 2], [3, 0]], ring)
    for build, error in ((lambda: m.scale(0.5), InvariantViolation),
                         (lambda: m.scale(Fraction(1, 2)), InvariantViolation),
                         (lambda: m.submatrix(0, 5, 0, 2), DimensionMismatch),
                         (lambda: m.submatrix(0, 2, 1, 0), DimensionMismatch),
                         (lambda: Matrix.diagonal(ring, [0.5]), InvariantViolation),
                         (lambda: Matrix.identity(ring, -1), DimensionMismatch),
                         (lambda: Matrix.zeros(ring, -1, 2), DimensionMismatch)):
        with pytest.raises(error):
            build()


def test_trusted_results_equal_validated_construction(monkeypatch):
    """Every matrix `linalg` builds without the per-entry scan, the ones
    its functions use inside included, equals its entries passed through
    `Matrix(...)`, holds only ints and, over Z/n, lies in [0, n); sizes
    0-6, entries up to 2^20 in absolute value."""
    built = []
    trusted = linalg._matrix
    monkeypatch.setattr(linalg, "_matrix", lambda *args: built.append(trusted(*args)) or built[-1])
    rng = random.Random(20261019)

    def rand(ring, r, c):
        return Matrix(ring, r, c, [rng.randint(-2 ** 20, 2 ** 20) for _ in range(r * c)])

    for ring in (ZZ, Zmod(4), Zmod(12), Zmod(720)):
        for _ in range(40):
            p, q, r = (rng.randint(0, 6) for _ in range(3))
            a, b, x = rand(ring, p, q), rand(ring, p, q), rand(ring, q, r)
            res = snf(a)
            results = [a - b, a @ x, a.transpose(), block_diagonal(hstack(a, b), vstack(a, b)),
                       a.submatrix(rng.randint(0, p), p, rng.randint(0, q), q), kron(a, x),
                       Matrix.identity(ring, p),
                       a.lift().reduce(Zmod(2)), kernel_gens(a), preimage_gens(a, b),
                       solve_linear(a, a @ x), res.S, res.P, res.Q,
                       *(a.column(j) for j in range(q))]
            assert {id(m) for m in results} <= {id(t) for t in built}
    assert len(built) > 3000
    for m in built:
        assert m == Matrix(m.ring, m.rows, m.cols, list(m.entries))
        assert all(type(e) is int for e in m.entries)
        n = m.ring.modulus
        assert n is None or all(0 <= e < n for e in m.entries)
