"""
Monomial combinatorics of the exterior algebra on x_0, ..., x_n.

A monomial is a strictly increasing tuple of indices.  Products carry the
sign forced by x_i x_j = -x_j x_i and x_i^2 = 0.  The canonical basis
ordering (degree first, lexicographic within a degree) is part of the
interchange format and must not change.  generator_matrices is the one
table of E's multiplication; a module multiplies by a general linear form
through gmod.GradedModule.form_action.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .linalg import zeros

Monomial = tuple[int, ...]


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

    Result[i][d] maps the degree-d monomial span to the degree-(d+1) span.
    Each degree-(d+1) monomial T is x_S·x_i for each of its letters i = T[k],
    S = T without i, with sign (-1)^(d-k): x_i moves left past the d - k
    letters of S above it.  Every other entry is 0.
    """
    mats = [[zeros(comb(n_plus_1, d), comb(n_plus_1, d + 1)) for d in range(n_plus_1)] for _ in range(n_plus_1)]
    for d in range(n_plus_1):
        row = {mon: r for r, mon in enumerate(basis_of_degree(n_plus_1, d))}
        for c, mon in enumerate(basis_of_degree(n_plus_1, d + 1)):
            for k, i in enumerate(mon):
                mats[i][d][row[mon[:k] + mon[k + 1 :]], c] = (-1) ** (d - k) % p
    return mats
