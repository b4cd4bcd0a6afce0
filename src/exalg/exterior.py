"""
Monomial combinatorics of the exterior algebra on x_0, ..., x_n.

A monomial is a strictly increasing tuple of indices.  Products carry the
merge-permutation sign forced by x_i x_j = -x_j x_i and x_i^2 = 0.  The
canonical basis ordering (degree first, lexicographic within a degree) is
part of the interchange format and must not change.  generator_matrices is
the one table of E's multiplication; a module multiplies by a general
linear form through gmod.GradedModule.form_action.
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


def multiset_count(letters: int, size: int) -> int:
    """Degree-size monomials in commuting letters, as combinations_with_replacement counts them."""
    return comb(max(letters + size - 1, 0), size)


def generator_matrices(n_plus_1: int, p: int) -> list[list[np.ndarray]]:
    """Right multiplication by each x_i on E in its monomial basis, per degree.

    Result[i][d] maps the degree-d monomial span to the degree-(d+1) span:
    for i not in S, entry (S, S ∪ {i}) is wedge(S, (i,))'s sign mod p, and
    every other entry is 0.
    """
    mats = [[zeros(comb(n_plus_1, d), comb(n_plus_1, d + 1)) for d in range(n_plus_1)] for _ in range(n_plus_1)]
    for d in range(n_plus_1):
        column = {mon: c for c, mon in enumerate(basis_of_degree(n_plus_1, d + 1))}
        for r, mon in enumerate(basis_of_degree(n_plus_1, d)):
            for i in range(n_plus_1):
                w = wedge(mon, (i,))
                if w is not None:
                    mats[i][d][r, column[w[1]]] = w[0] % p
    return mats
