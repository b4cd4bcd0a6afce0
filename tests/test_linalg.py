import numpy as np
import pytest

from exalg import linalg as la

P = la.DEFAULT_PRIME


def random_matrix(rng: np.random.Generator, rows: int, cols: int, p: int) -> np.ndarray:
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


def subspace_sum(u: la.Subspace, w: la.Subspace) -> la.Subspace:
    if u.ambient != w.ambient:
        raise la.DimensionMismatch("subspace ambient mismatch")
    stacked = np.vstack([u.basis, w.basis]) if (u.dim or w.dim) else la.zeros(0, u.ambient)
    return la.subspace_from_rows(stacked, u.ambient, u.p)


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


@pytest.mark.parametrize("p, width", [(5, la._PANEL), (32003, la._PANEL), (94906249, 1)])
def test_rref_blocked_exact_for_every_prime_regime(p, width):
    # Each prime sets the panel width through w*(p-1)^2 <= 2^53: full-width
    # panels at 5 and 32003, one-column panels at the largest accepted prime.
    assert min(la._PANEL, la._exact_terms(p)) == width
    rng = np.random.default_rng(p)
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
    with pytest.raises(ValueError, match="prime"):
        la.check_prime(94906297)  # the first prime above MAX_PRIME
    with pytest.raises(ValueError, match="MAX_PRIME"):
        la.matmul_mod(a3, b3, 2**31 - 1)


def test_kernel_identity_is_zero():
    k = la.kernel_basis(np.eye(4, dtype=np.int64), P)
    assert k.dim == 0


def test_kernel_zero_matrix_is_full():
    k = la.kernel_basis(np.zeros((2, 5), dtype=np.int64), P)
    assert k.dim == 5


def test_kernel_of_row_vector():
    k = la.kernel_basis(np.array([[1, 1, 0]]), P)
    assert k.dim == 2
    assert k.contains(np.array([1, P - 1, 0]))
    assert k.contains(np.array([0, 0, 1]))
    assert not k.contains(np.array([1, 0, 0]))



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
    x = la.solve(np.eye(3, dtype=np.int64), b, P)
    assert np.array_equal(x, b)


def test_solve_inconsistent():
    assert la.solve(np.zeros((2, 2), dtype=np.int64), np.array([1, 0]), P) is None


def test_solve_back_substitution():
    a = np.array([[1, 1], [0, 1]])
    x = la.solve(a, np.array([3, 1]), P)
    assert np.array_equal(x, np.array([2, 1]))


def test_solve_dimension_mismatch():
    with pytest.raises(la.DimensionMismatch):
        la.solve(np.eye(2, dtype=np.int64), np.array([1, 2, 3]), P)


def test_solve_consistent_random():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 6, 4, P)
    x = random_matrix(rng, 4, 3, P)
    b = la.matmul_mod(a, x, P)
    for col in b.T:
        got = la.solve(a, col, P)
        assert got is not None
        assert np.array_equal(la.matmul_mod(a, got.reshape(-1, 1), P).ravel(), col)


def test_subspace_ops_equal_inputs():
    rng = np.random.default_rng(1)
    u = la.subspace_from_rows(random_matrix(rng, 2, 5, P), 5, P)
    s, i = subspace_sum(u, u), la.subspace_intersection(u, u)
    assert s == u
    assert i == u


def test_subspace_ops_complementary_axes():
    u = la.subspace_from_rows(np.array([[1, 0]]), 2, P)
    w = la.subspace_from_rows(np.array([[0, 1]]), 2, P)
    s, i = subspace_sum(u, w), la.subspace_intersection(u, w)
    assert s.dim == 2
    assert i.dim == 0


def test_subspace_ops_two_lines_in_three_space():
    u = la.subspace_from_rows(np.array([[1, 2, 3]]), 3, P)
    w = la.subspace_from_rows(np.array([[1, 0, 1]]), 3, P)
    s, i = subspace_sum(u, w), la.subspace_intersection(u, w)
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
        s, i = subspace_sum(u, w), la.subspace_intersection(u, w)
        assert s.dim + i.dim == u.dim + w.dim


def test_coords_in_rref_basis_roundtrip():
    rng = np.random.default_rng(9)
    basis = la.subspace_from_rows(random_matrix(rng, 3, 7, P), 7, P)
    c = np.array([2, 5, 11], dtype=np.int64)[: basis.dim]
    v = la.matmul_mod(c.reshape(1, -1), basis.basis, P).ravel()
    got = la.coords_in_rref_basis(v, basis)
    assert got is not None
    assert np.array_equal(got, c)
    outside = np.ones(7, dtype=np.int64)
    if la.reduce_mod_subspace(outside, basis).any():
        assert la.coords_in_rref_basis(outside, basis) is None
