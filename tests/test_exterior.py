import numpy as np

from exalg import exterior as ext
from exalg import linalg as la

P = la.DEFAULT_PRIME


def test_square_is_absent():
    assert ext.wedge((0,), (0,)) is None


def test_anticommutation_of_generators():
    assert ext.wedge((0,), (1,)) == (1, (0, 1))
    assert ext.wedge((1,), (0,)) == (-1, (0, 1))


def test_single_transposition_sign():
    # (x0 x2) ∧ x1 moves x1 past x2 once
    assert ext.wedge((0, 2), (1,)) == (-1, (0, 1, 2))


def wedge_sign_bruteforce(a, b):
    """Sign of a ∧ b computed by bubble-sorting the concatenation."""
    seq = list(a + b)
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def test_wedge_sign_matches_bruteforce():
    for n in range(1, 5):
        mons = [m for d in range(n + 1) for m in ext.basis_of_degree(n, d)]
        for a in mons:
            for b in mons:
                got = ext.wedge(a, b)
                want = wedge_sign_bruteforce(a, b)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and got[0] == want


def test_basis_sizes_sum_to_power_of_two():
    for n_plus_1 in range(1, 6):
        basis = ext.algebra_basis(n_plus_1)
        assert sum(len(b) for b in basis) == 2 ** n_plus_1
        for j, b in enumerate(basis):
            assert len(b) == ext.algebra_dim(n_plus_1, j)
            assert b == sorted(b)


def test_right_mult_zero_form():
    basis = ext.algebra_basis(3)
    m = ext.right_mult_matrix(basis[1], basis[2], np.zeros(3, dtype=np.int64), P)
    assert not m.any()


def test_right_mult_by_x0_degree0():
    basis = ext.algebra_basis(2)
    form = np.array([1, 0])
    m = ext.right_mult_matrix(basis[0], basis[1], form, P)
    assert np.array_equal(m, np.array([[1, 0]]))


def test_right_mult_sum_form_degree1_n2():
    # v = x0 + x1 on the degree-1 span of the algebra on three variables:
    # x0 -> x0x1, x1 -> -x0x1, x2 -> -x0x2 - x1x2 (one transposition each)
    basis = ext.algebra_basis(3)
    form = np.array([1, 1, 0])
    m = ext.right_mult_matrix(basis[1], basis[2], form, P)
    want = np.array([[1, 0, 0], [P - 1, 0, 0], [0, P - 1, P - 1]])
    assert np.array_equal(m, want)


def test_generator_matrices_square_zero_and_anticommute():
    for n_plus_1 in (2, 3, 4):
        mats = ext.generator_matrices(n_plus_1, P)
        for i in range(n_plus_1):
            for j in range(n_plus_1):
                for d in range(n_plus_1 - 1):
                    prod = (
                        la.matmul_mod(mats[i][d], mats[j][d + 1], P)
                        + la.matmul_mod(mats[j][d], mats[i][d + 1], P)
                    ) % P
                    assert not prod.any()


def test_self_composition_of_any_form_vanishes():
    rng = np.random.default_rng(12)
    n_plus_1 = 4
    basis = ext.algebra_basis(n_plus_1)
    for _ in range(10):
        form = rng.integers(0, P, n_plus_1, dtype=np.int64)
        for d in range(n_plus_1 - 1):
            a = ext.right_mult_matrix(basis[d], basis[d + 1], form, P)
            b = ext.right_mult_matrix(basis[d + 1], basis[d + 2], form, P)
            assert not la.matmul_mod(a, b, P).any()
