import numpy as np
import pytest

from exalg import linalg as la
from exalg.linalg import (
    DimensionMismatch,
    Subspace,
    left_kernel_basis,
    matmul_mod,
    subspace_from_rows,
    zero_subspace,
)

P = la.DEFAULT_PRIME
# _exact_terms(MID_PRIME) = 53: of the primes with 1 < _exact_terms(p) < 64,
# its 53*(MID_PRIME-1)^2 comes closest to 2^53 (about 18p short).  The
# accepted primes where 2^53 // (p-1)^2 terms would overshoot 2^53 - 2p, so
# that _exact_terms is one less, are 5, 17, 257, 379 and 65537.
MID_PRIME = 13036379


def random_matrix(rng: np.random.Generator, rows: int, cols: int, p: int) -> np.ndarray:
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


def full_subspace(ambient: int, p: int) -> Subspace:
    return Subspace(ambient, la.identity(ambient), p)


def is_prime_miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin for word-sized moduli."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def subspace_sum(u: la.Subspace, w: la.Subspace) -> la.Subspace:
    if u.ambient != w.ambient:
        raise la.DimensionMismatch("subspace ambient mismatch")
    stacked = np.vstack([u.basis, w.basis]) if (u.dim or w.dim) else la.zeros(0, u.ambient)
    return la.subspace_from_rows(stacked, u.ambient, u.p)


def subspace_intersection(u: Subspace, w: Subspace) -> Subspace:
    if u.ambient != w.ambient:
        raise DimensionMismatch("subspace ambient mismatch")
    p = u.p
    if u.dim == 0 or w.dim == 0:
        return zero_subspace(u.ambient, p)
    # Pairs (s, t) with s @ u.basis = t @ w.basis sweep out the intersection.
    stacked = np.vstack([u.basis, (-w.basis) % p])
    pairs = left_kernel_basis(stacked, p)  # rows (s | t)
    if pairs.dim == 0:
        return zero_subspace(u.ambient, p)
    vecs = matmul_mod(pairs.basis[:, : u.dim], u.basis, p)
    return subspace_from_rows(vecs, u.ambient, p)


def reduce_mod_subspace(vec: np.ndarray, s: Subspace) -> np.ndarray:
    """Canonical coset representative of vec modulo the subspace."""
    v = np.asarray(vec, dtype=np.int64) % s.p
    if s.dim == 0:
        return v
    # RREF basis: the pivot coordinates are the coefficients outright.
    coeffs = v[s.pivots]
    return (v - matmul_mod(coeffs.reshape(1, -1), s.basis, s.p).ravel()) % s.p


def rref_reference(a, p):
    """Textbook row reduction, one entry at a time (oracle for fast paths)."""
    arr = np.asarray(a, dtype=np.int64)
    m = [[int(x) % p for x in row] for row in arr]
    rows, cols = arr.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for i in range(r, rows):
            if m[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return r, np.array(m, dtype=np.int64).reshape(rows, cols), pivots


def test_rref_identity():
    rank, red, piv = la.rref(np.eye(2, dtype=np.int64), P)
    assert rank == 2
    assert np.array_equal(red, np.eye(2, dtype=np.int64))
    assert piv == [0, 1]


def test_rref_zero_matrix():
    rank, red, piv = la.rref(np.zeros((3, 4), dtype=np.int64), P)
    assert rank == 0
    assert piv == []


def test_rref_rank_one():
    rank, red, piv = la.rref(np.array([[1, 2], [2, 4]]), P)
    assert rank == 1
    assert piv == [0]
    assert np.array_equal(red[0], np.array([1, 2]))


def test_rref_matches_reference_on_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(0, 9))
        n = int(rng.integers(0, 9))
        a = random_matrix(rng, m, n, P)
        got = la.rref(a, P)
        want = rref_reference(a, P)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]


def test_rref_small_matches_reference_on_rank_deficient_and_sparse():
    # rows that vanish left of a pivot column and all-zero columns exercise
    # the column-sliced row operations
    rng = np.random.default_rng(22)
    for k in range(300):
        p = (5, P)[k % 2]
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if k % 4 < 2:
            inner = int(rng.integers(0, min(m, n) + 1))
            a = matmul_mod(random_matrix(rng, m, inner, p), random_matrix(rng, inner, n, p), p)
        else:
            a = random_matrix(rng, m, n, p) * (rng.random((m, n)) < 0.3)
        got, want = la._rref_small(a, p), rref_reference(a, p)
        assert got[0] == want[0] and got[2] == want[2]
        assert np.array_equal(got[1], want[1])


def low_rank_sparse_and_late_largest(rng: np.random.Generator, p: int):
    """Random low-rank and sparse matrices, and matrices whose columns hold
    their largest entry below their first nonzero entry."""
    for k in range(120):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        if k % 3 == 0:
            inner = int(rng.integers(0, min(m, n) + 1))
            yield matmul_mod(random_matrix(rng, m, inner, p), random_matrix(rng, inner, n, p), p)
        elif k % 3 == 1:
            yield random_matrix(rng, m, n, p) * (rng.random((m, n)) < 0.3)
        else:
            # each column: zeros, a small first nonzero, then p - 1 lower down
            a = random_matrix(rng, m + 2, n, p) * (rng.random((m + 2, n)) < 0.5)
            for c in range(n):
                top = int(rng.integers(0, m))
                a[:top, c] = 0
                a[top, c] = 1 + c % 2
                a[top + 1 + int(rng.integers(0, 2)), c] = p - 1
            yield a


@pytest.mark.parametrize("p", [5, 32003, 94906249])
def test_rref_matches_reference_whichever_entry_is_the_pivot(p):
    # the per-pivot loop takes any nonzero entry of a column as the pivot,
    # the reference the first one: the RREF is unique, so they agree
    rng = np.random.default_rng(p)
    late = 0
    for a in low_rank_sparse_and_late_largest(rng, p):
        got, want = la.rref(a, p), rref_reference(a, p)
        assert got[0] == want[0] and got[2] == want[2]
        assert np.array_equal(got[1], want[1])
        nz = a != 0
        late += any(nz[:, c].any() and np.argmax(a[:, c]) != np.argmax(nz[:, c]) for c in range(a.shape[1]))
    assert late >= 40


@pytest.mark.parametrize("p", [5, 32003, 94906249])
def test_column_bounded_elimination_finds_the_left_kernel(p):
    # [A | I] reduced over A's columns only: the rows above the rank are
    # RREF(A) beside a transform T with T·A = R; the rows below it have a
    # zero A part, and their I part spans A's left kernel
    rng = np.random.default_rng(p + 1)
    # the last [A | I] is above the blocked path's size threshold
    tall = matmul_mod(random_matrix(rng, 150, 40, p), random_matrix(rng, 40, 60, p), p)
    assert 150 * (60 + 150) > la._BLOCK_THRESHOLD
    for a in [*low_rank_sparse_and_late_largest(rng, p), tall]:
        m, n = a.shape
        r, red, piv = la._rref_small(np.hstack([a, la.identity(m)]), p, n)
        rank, ra, pa = rref_reference(a, p)
        assert r == rank and piv == pa
        assert np.array_equal(red[:r, :n], ra[:r])
        assert not red[r:, :n].any()
        t = red[:, n:]
        assert np.array_equal(matmul_mod(t, a, p), red[:, :n])
        rel = t[r:]
        assert not matmul_mod(rel, a, p).any()
        assert la.rref(rel, p)[0] == m - rank
        assert subspace_from_rows(rel, m, p) == left_kernel_basis(a, p)


def test_rref_blocked_path_matches_small_path():
    rng = np.random.default_rng(11)
    for rows, cols in [(140, 150), (150, 90), (200, 200)]:
        a = random_matrix(rng, rows, cols, P)
        # plant rank deficiency
        a[rows // 2] = (3 * a[0] + 5 * a[1]) % P
        a[:, cols // 2] = 0
        fast = la._rref_blocked(a, P)
        slow = la._rref_small(a, P)
        assert fast[0] == slow[0]
        assert fast[2] == slow[2]
        assert np.array_equal(fast[1], slow[1])


@pytest.mark.parametrize(
    "p, width", [(5, la._PANEL), (32003, la._PANEL), (MID_PRIME, 53), (94906249, 1)]
)
def test_rref_blocked_exact_for_every_prime_regime(p, width):
    # Each prime sets through w*(p-1)^2 <= 2^53 - 2p how many products of
    # residues one float sum may hold: more than a leaf's width at 5 and
    # 32003, 53 at MID_PRIME, so that long products run in chunks, and one at
    # the largest accepted prime.
    assert min(la._PANEL, la._exact_terms(p)) == width
    rng = np.random.default_rng(p)
    # pivots and multipliers all p - 1: every product sums (p-1)^2 terms
    a = np.full((150, 140), p - 1, dtype=np.int64)
    a[:100, :100] = (p - 1) * np.eye(100, dtype=np.int64)
    fast = la._rref_blocked(a, p)
    assert fast[0] == 101
    assert np.array_equal(fast[1], la._rref_small(a, p)[1])
    # widths around the recursion's split into leaves, the rank loss in one
    # half of the columns only; with 40 rows the right halves run out of rows
    split_shapes = [(300, la._PANEL - 1), (300, la._PANEL + 1), (300, 2 * la._PANEL), (40, 450)]
    for rows, cols in split_shapes:
        assert rows * cols > la._BLOCK_THRESHOLD
        h = cols // 2
        for lossy in ("left", "right"):
            a = rng.integers(0, p, size=(rows, cols))
            if lossy == "left":
                # left columns 5.. are combinations of columns 0..4
                a[:, 5:h] = la.matmul_mod(a[:, :5], rng.integers(0, p, size=(5, h - 5)), p)
            else:
                # right columns are combinations of the left ones
                a[:, h:] = la.matmul_mod(a[:, :h], rng.integers(0, p, size=(h, cols - h)), p)
            fast = la._rref_blocked(a, p)
            slow = la._rref_small(a, p)
            rank = min(rows, cols - h + 5) if lossy == "left" else min(rows, h)
            assert fast[0] == slow[0] == rank
            assert fast[2] == slow[2]
            assert np.array_equal(fast[1], slow[1])
    for rows, cols in [(200, 83), (83, 200), (129, 129)]:
        assert rows * cols > la._BLOCK_THRESHOLD
        rank = min(rows, cols) - 9
        x = rng.integers(0, p, size=(rows, rank)).astype(object)
        y = rng.integers(0, p, size=(rank, cols)).astype(object)
        a = np.array(x.dot(y) % p, dtype=np.int64)
        a[:, [0, cols // 2]] = 0
        a[rows // 3] = 0
        fast = la._rref_blocked(a, p)
        slow = la._rref_small(a, p)
        assert fast[0] == slow[0] <= rank
        assert fast[2] == slow[2]
        assert fast[1].dtype == np.int64
        assert 0 <= fast[1].min() and fast[1].max() < p
        assert np.array_equal(fast[1], slow[1])


@pytest.mark.parametrize("rows, cols", [(9, 12), (140, 150)])
def test_rref_leaves_its_argument_unchanged(rows, cols):
    rng = np.random.default_rng(rows)
    base = rng.integers(-3 * P, 3 * P, size=(rows, cols), dtype=np.int64)
    before = base.tobytes()
    # kernel_basis hands rref the reversed-column view a[:, ::-1]
    for arg in (base, base[:, ::-1]):
        la.rref(arg, P)
        assert base.tobytes() == before


def test_matmul_mod_exactness_and_chunking():
    rng = np.random.default_rng(3)
    a = random_matrix(rng, 17, 23, P)
    b = random_matrix(rng, 23, 9, P)
    assert np.array_equal(la.matmul_mod(a, b, P), (a @ b) % P)
    # tiny prime exercises the chunked accumulation path
    small_p = 5
    a2 = random_matrix(rng, 8, 40, small_p)
    b2 = random_matrix(rng, 40, 6, small_p)
    assert np.array_equal(la.matmul_mod(a2, b2, small_p), (a2 @ b2) % small_p)
    # the largest accepted prime: one-term chunks, checked against Python ints
    assert (la.MAX_PRIME - 1) ** 2 <= 2**53 < la.MAX_PRIME**2
    big_p = la.check_prime(94906249)
    a3 = random_matrix(rng, 5, 7, big_p)
    b3 = random_matrix(rng, 7, 4, big_p)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % big_p for col in b3.T] for row in a3]
    assert la.matmul_mod(a3, b3, big_p).tolist() == want
    # operands of magnitude p - 1, some negative, at the chunk boundary
    for p in (94906249, MID_PRIME):
        k = la._exact_terms(p)
        for inner in (k, k + 1):
            a4 = np.full((3, inner), p - 1, dtype=np.int64)
            b4 = np.full((inner, 2), p - 1, dtype=np.int64)
            a4[1] = -a4[1]
            b4[::2, 1] *= -1
            want = (a4.astype(object).dot(b4.astype(object)) % p).tolist()
            assert la.matmul_mod(a4, b4, p).tolist() == want
    # row panels against an object-dtype oracle: a row count that is not a
    # multiple of the panel height, one-row panels, a product just above
    # _PANEL_CUT (one BLAS call), no rows, no columns and k = 0
    shapes = [(300, 40, 50), (3, 600, 500), (257, 256, 256), (0, 7, 5), (6, 7, 0), (6, 0, 5)]
    assert 300 % (la._PANEL_WORK // (40 * 50)) and 300 * 40 * 50 > la._PANEL_WORK
    assert 600 * 500 > la._PANEL_WORK and 3 * 600 * 500 <= la._PANEL_CUT
    assert 257 * 256 * 256 > la._PANEL_CUT >= 256**3
    for p in (5, P, 94906249):
        for m, k, n in shapes:
            a5 = random_matrix(rng, m, k, p)
            b5 = random_matrix(rng, k, n, p)
            want = (a5.astype(object).dot(b5.astype(object)) % p).tolist()
            assert la.matmul_mod(a5, b5, p).tolist() == want, (p, m, k, n)
    with pytest.raises(ValueError, match="prime"):
        la.check_prime(94906297)  # the first prime above MAX_PRIME
    with pytest.raises(ValueError, match="MAX_PRIME"):
        la.matmul_mod(a3, b3, 2**31 - 1)


def test_matmul_mod_keeps_mid_size_blas_calls_on_one_thread(monkeypatch):
    # OpenBLAS runs a gemm of at most _PANEL_WORK multiply-adds on the
    # calling thread: every call for a product of at most _PANEL_CUT stays
    # there, unless one row alone is larger; a product that small already,
    # or larger than _PANEL_CUT, is one call
    calls = []

    class SpyNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, x, y, **kw):
            calls.append((x.shape[0], x.shape[0] * x.shape[1] * y.shape[1]))
            return np.matmul(x, y, **kw)

    monkeypatch.setattr(la, "np", SpyNumpy())
    rng = np.random.default_rng(5)
    for m, k, n in [(20, 10, 30), (300, 40, 50), (1000, 10, 120), (60, 60, 160), (3, 600, 500), (257, 256, 256)]:
        calls.clear()
        a = random_matrix(rng, m, k, P)
        b = random_matrix(rng, k, n, P)
        assert np.array_equal(la.matmul_mod(a, b, P), (a @ b) % P)
        assert sum(rows for rows, _ in calls) == m
        if not la._PANEL_WORK < m * k * n <= la._PANEL_CUT:
            assert calls == [(m, m * k * n)]
        else:
            assert all(work <= max(la._PANEL_WORK, k * n) for _, work in calls), calls
            assert len(calls) > 1


def test_is_prime_matches_miller_rabin():
    # every n below 2·10^5 and the 20001 largest n that check_prime accepts
    window = [*range(200_000), *range(la.MAX_PRIME - 20_000, la.MAX_PRIME + 1)]
    assert [n for n in window if la.is_prime(n) != is_prime_miller_rabin(n)] == []


@pytest.mark.parametrize("p", [5, 32003, 65537, MID_PRIME, 94906249])
def test_float_reduction_exact_at_extremes(p):
    lo, hi = 2 * p - 2**53, 2**53 - p  # _reduce's proven range
    w = la._exact_terms(p)
    big = w * (p - 1) ** 2
    # a residue minus, or plus, w products of residues stays in range
    assert w >= 1 and lo <= -big and big + p - 1 <= hi
    k_hi, k_lo = (hi - 1) // p, -((-lo - 1) // p)
    vals = [-big, -big + p - 1, big + p - 1, 0, p - 1, lo, hi]
    vals += [k * p + d for k in (k_lo, k_hi) for d in (-1, 0, 1)]
    assert min(vals) == lo and max(vals) == hi
    x = np.array(vals, dtype=np.float64)
    assert [int(v) for v in x] == vals
    la._reduce(x, p, np.empty_like(x))
    assert [int(v) for v in x] == [v % p for v in vals]


def test_kernel_identity_is_zero():
    k = la.kernel_basis(np.eye(4, dtype=np.int64), P)
    assert k.dim == 0


def test_kernel_zero_matrix_is_full():
    k = la.kernel_basis(np.zeros((2, 5), dtype=np.int64), P)
    assert k.dim == 5


def test_kernel_of_row_vector():
    k = la.kernel_basis(np.array([[1, 1, 0]]), P)
    assert k.dim == 2
    assert la.coords_in_rref_basis([[1, P - 1, 0]], k) is not None
    assert la.coords_in_rref_basis([[0, 0, 1]], k) is not None
    assert la.coords_in_rref_basis([[1, 0, 0]], k) is None



@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (3, 5), (5, 3), (200, 150)])
def test_kernel_basis_of_empty_and_full_rank_matrices(rows, cols):
    # no row, no column, or full rank: the one elimination covers them all
    rng = np.random.default_rng(rows * 1000 + cols)
    for p in (5, P):
        while True:
            a = random_matrix(rng, rows, cols, p)
            if la.rref(a, p)[0] == min(rows, cols):
                break
        k = la.kernel_basis(a, p)
        if rows == 0:
            assert k == full_subspace(cols, p)
        elif rows >= cols:
            assert k == zero_subspace(cols, p)
        else:
            assert k == la.subspace_from_rows(k.basis, cols, p)
            assert k.dim == cols - rows
            assert not la.matmul_mod(a, k.basis.T, p).any()


@pytest.mark.parametrize("rows,cols", [(7, 9), (12, 5), (150, 130)])
def test_kernel_basis_is_canonical_rref(rows, cols):
    # rank-deficient inputs with zero columns, below and above the blocked
    # elimination threshold
    rng = np.random.default_rng(rows * cols)
    for p in (5, P):
        for _ in range(4 if rows * cols > la._BLOCK_THRESHOLD else 40):
            rank = int(rng.integers(0, min(rows, cols)))
            a = la.matmul_mod(
                random_matrix(rng, rows, rank, p), random_matrix(rng, rank, cols, p), p
            )
            a[:, rng.integers(0, cols, size=int(rng.integers(1, cols)))] = 0
            k = la.kernel_basis(a, p)
            assert k == la.subspace_from_rows(k.basis, cols, p)
            assert k.dim == cols - la.rref(a, p)[0]
            assert not la.matmul_mod(a, k.basis.T, p).any()
            assert k.pivots == [int(np.flatnonzero(row)[0]) for row in k.basis]

def test_solve_identity():
    b = np.array([4, 7, 1])
    x = la.solve(np.eye(3, dtype=np.int64), b[:, None], P)
    assert np.array_equal(x[:, 0], b)


def test_solve_inconsistent():
    assert la.solve(np.zeros((2, 2), dtype=np.int64), np.array([1, 0])[:, None], P) is None


def test_solve_back_substitution():
    a = np.array([[1, 1], [0, 1]])
    x = la.solve(a, np.array([3, 1])[:, None], P)
    assert np.array_equal(x[:, 0], np.array([2, 1]))


def test_solve_dimension_mismatch():
    with pytest.raises(la.DimensionMismatch):
        la.solve(np.eye(2, dtype=np.int64), np.array([1, 2, 3])[:, None], P)
    # right-hand sides come as a matrix: a vector is refused, not reshaped
    with pytest.raises(ValueError, match="2-d matrix"):
        la.solve(np.eye(2, dtype=np.int64), np.array([1, 2]), P)


def test_solve_consistent_random():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 6, 4, P)
    x = random_matrix(rng, 4, 3, P)
    b = la.matmul_mod(a, x, P)
    cols = [la.solve(a, col[:, None], P) for col in b.T]
    for col, got in zip(b.T, cols):
        assert got is not None
        assert np.array_equal(la.matmul_mod(a, got, P)[:, 0], col)
    # a matrix right-hand side: one column of x per column of b, each its
    # one-column solve
    got = la.solve(a, b, P)
    assert got.shape == (4, 3)
    assert np.array_equal(got, np.hstack(cols))
    # one inconsistent column makes the whole system inconsistent
    off = b.copy()
    off[:, 1] = random_matrix(rng, 6, 1, P)[:, 0]
    assert la.solve(a, off[:, 1:2], P) is None
    assert la.solve(a, off, P) is None
    # a singular square a has no inverse: solve against the identity fails
    sq = la.matmul_mod(random_matrix(rng, 4, 3, P), random_matrix(rng, 3, 4, P), P)
    assert la.solve(sq, la.identity(4), P) is None
    inv = la.solve(a[:4], la.identity(4), P)
    assert np.array_equal(la.matmul_mod(a[:4], inv, P), la.identity(4))


def test_subspace_ops_equal_inputs():
    rng = np.random.default_rng(1)
    u = la.subspace_from_rows(random_matrix(rng, 2, 5, P), 5, P)
    s, i = subspace_sum(u, u), subspace_intersection(u, u)
    assert s == u
    assert i == u


def test_subspace_ops_complementary_axes():
    u = la.subspace_from_rows(np.array([[1, 0]]), 2, P)
    w = la.subspace_from_rows(np.array([[0, 1]]), 2, P)
    s, i = subspace_sum(u, w), subspace_intersection(u, w)
    assert s.dim == 2
    assert i.dim == 0


def test_subspace_ops_two_lines_in_three_space():
    u = la.subspace_from_rows(np.array([[1, 2, 3]]), 3, P)
    w = la.subspace_from_rows(np.array([[1, 0, 1]]), 3, P)
    s, i = subspace_sum(u, w), subspace_intersection(u, w)
    assert s.dim == 2
    assert i.dim == 0


def test_rank_transpose_and_rank_nullity_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        rows = int(rng.integers(0, 8))
        cols = int(rng.integers(0, 8))
        a = random_matrix(rng, rows, cols, P)
        rank = la.rref(a, P)[0]
        assert rank == la.rref(a.T, P)[0]
        assert la.kernel_basis(a, P).dim + rank == cols


def test_modular_law_random():
    rng = np.random.default_rng(43)
    for _ in range(200):
        amb = int(rng.integers(1, 7))
        u = la.subspace_from_rows(random_matrix(rng, int(rng.integers(0, 5)), amb, P), amb, P)
        w = la.subspace_from_rows(random_matrix(rng, int(rng.integers(0, 5)), amb, P), amb, P)
        s, i = subspace_sum(u, w), subspace_intersection(u, w)
        assert s.dim + i.dim == u.dim + w.dim


def test_coords_in_rref_basis_roundtrip():
    rng = np.random.default_rng(9)
    basis = la.subspace_from_rows(random_matrix(rng, 3, 7, P), 7, P)
    c = np.array([2, 5, 11], dtype=np.int64)[: basis.dim]
    v = la.matmul_mod(c.reshape(1, -1), basis.basis, P).ravel()
    got = la.coords_in_rref_basis(np.stack([v, 2 * v]), basis)
    assert got is not None
    assert np.array_equal(got, np.stack([c, 2 * c]))
    assert la.coords_in_rref_basis(la.zeros(0, 7), basis).shape == (0, basis.dim)
    outside = np.ones(7, dtype=np.int64)
    if reduce_mod_subspace(outside, basis).any():
        assert la.coords_in_rref_basis(np.stack([v, outside]), basis) is None
