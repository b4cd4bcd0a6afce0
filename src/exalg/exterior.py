"""
Monomial combinatorics of the exterior algebra on x_0, ..., x_n.

A monomial is a strictly increasing tuple of indices.  Products carry the
merge-permutation sign forced by x_i x_j = -x_j x_i and x_i^2 = 0.  The
canonical basis ordering (degree first, lexicographic within a degree) is
part of the interchange format and must not change.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .linalg import zeros

Monomial = tuple[int, ...]


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


def basis_of_degree(n_plus_1: int, degree: int) -> list[Monomial]:
    """All degree-j monomials, lexicographically ordered."""
    if degree < 0 or degree > n_plus_1:
        return []
    return list(combinations(range(n_plus_1), degree))


def algebra_basis(n_plus_1: int) -> list[list[Monomial]]:
    """The full 2^(n+1) monomial basis grouped by degree."""
    return [basis_of_degree(n_plus_1, j) for j in range(n_plus_1 + 1)]


def algebra_dim(n_plus_1: int, degree: int) -> int:
    return comb(n_plus_1, degree) if 0 <= degree <= n_plus_1 else 0


def right_mult_matrix(
    source: list[Monomial],
    target: list[Monomial],
    form: np.ndarray,
    p: int,
) -> np.ndarray:
    """Matrix of right multiplication by a linear form, source to target span.

    Row-vector convention: basis monomial m maps to sum_i form[i] * (m ∧ x_i),
    expressed in the target monomial list.
    """
    index = {mon: k for k, mon in enumerate(target)}
    out = zeros(len(source), len(target))
    for r, mon in enumerate(source):
        for i, c in enumerate(form):
            c = int(c) % p
            if c == 0:
                continue
            w = wedge(mon, (i,))
            if w is None:
                continue
            sign, merged = w
            if merged in index:
                out[r, index[merged]] = (out[r, index[merged]] + sign * c) % p
    return out


def generator_matrices(n_plus_1: int, p: int) -> list[list[np.ndarray]]:
    """Right multiplication by each x_i on the full algebra, per degree.

    Result[i][d] maps the degree-d monomial span to the degree-(d+1) span.
    """
    basis = algebra_basis(n_plus_1)
    mats = []
    for i in range(n_plus_1):
        form = np.zeros(n_plus_1, dtype=np.int64)
        form[i] = 1
        mats.append(
            [right_mult_matrix(basis[d], basis[d + 1], form, p) for d in range(n_plus_1)]
        )
    return mats
