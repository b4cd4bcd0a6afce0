from itertools import combinations_with_replacement
from math import comb

import numpy as np

from exalg import exterior as ext
from exalg import gmod
from exalg import linalg as la
from exalg.exterior import Monomial

P = la.DEFAULT_PRIME


def wedge(a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
    """Product a ∧ b: None when the index sets meet, else (sign, merged)."""
    if set(a) & set(b):
        return None
    # sign = parity of moving each b-index left past the larger a-indices
    inversions = 0
    for i in b:
        inversions += sum(1 for j in a if j > i)
    merged = tuple(sorted(a + b))
    return (-1) ** inversions, merged


def test_square_is_absent():
    assert wedge((0,), (0,)) is None


def test_anticommutation_of_generators():
    assert wedge((0,), (1,)) == (1, (0, 1))
    assert wedge((1,), (0,)) == (-1, (0, 1))


def test_single_transposition_sign():
    # (x0 x2) ∧ x1 moves x1 past x2 once
    assert wedge((0, 2), (1,)) == (-1, (0, 1, 2))


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
                got = wedge(a, b)
                want = wedge_sign_bruteforce(a, b)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and got[0] == want


def test_basis_sizes_sum_to_power_of_two():
    for n_plus_1 in range(1, 6):
        basis = [ext.basis_of_degree(n_plus_1, j) for j in range(n_plus_1 + 1)]
        assert sum(len(b) for b in basis) == 2 ** n_plus_1
        for j, b in enumerate(basis):
            assert len(b) == comb(n_plus_1, j)
            assert b == sorted(b)


def test_multiset_count_matches_enumeration():
    # no letters: one empty monomial in degree 0 and none after
    for letters in range(7):
        for size in range(9):
            want = len(list(combinations_with_replacement(range(letters), size)))
            assert ext.multiset_count(letters, size) == want


def algebra(n_plus_1):
    """E as the free module on one generator in degree 0, in its monomial basis."""
    return gmod.free_module(n_plus_1, P, [0])


def test_right_mult_zero_form():
    m = algebra(3).form_action(np.zeros(3, dtype=np.int64), 1)
    assert not m.any()


def test_right_mult_by_x0_degree0():
    form = np.array([1, 0])
    m = algebra(2).form_action(form, 0)
    assert np.array_equal(m, np.array([[1, 0]]))


def test_right_mult_sum_form_degree1_n2():
    # v = x0 + x1 on the degree-1 span of the algebra on three variables:
    # x0 -> x0x1, x1 -> -x0x1, x2 -> -x0x2 - x1x2 (one transposition each)
    form = np.array([1, 1, 0])
    m = algebra(3).form_action(form, 1)
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


def test_generator_matrices_hold_the_bruteforce_signs():
    # entry (S, S ∪ {i}) of x_i's matrix is the sign of S ∧ x_i; all else is 0
    for n_plus_1 in range(1, 6):
        for p in (5, 32003):
            mats = ext.generator_matrices(n_plus_1, p)
            for i in range(n_plus_1):
                for d in range(n_plus_1):
                    rows = ext.basis_of_degree(n_plus_1, d)
                    cols = ext.basis_of_degree(n_plus_1, d + 1)
                    want = np.zeros((len(rows), len(cols)), dtype=np.int64)
                    for r, mon in enumerate(rows):
                        sign = wedge_sign_bruteforce(mon, (i,))
                        if sign is not None:
                            want[r, cols.index(tuple(sorted(mon + (i,))))] = sign % p
                    assert np.array_equal(mats[i][d], want)


def test_self_composition_of_any_form_vanishes():
    rng = np.random.default_rng(12)
    n_plus_1 = 4
    e = algebra(n_plus_1)
    for _ in range(10):
        form = rng.integers(0, P, n_plus_1, dtype=np.int64)
        for d in range(n_plus_1 - 1):
            a = e.form_action(form, d)
            b = e.form_action(form, d + 1)
            assert not la.matmul_mod(a, b, P).any()
