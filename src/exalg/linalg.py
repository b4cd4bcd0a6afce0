"""
Dense exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Row
reduction uses deterministic pivoting (first nonzero entry in column
order), so every result is bit-reproducible.  Large eliminations go
through a panel-blocked Gauss-Jordan that keeps the matrix in float64 and
runs its trailing updates as BLAS products.  Every accepted prime is at
most MAX_PRIME, so (p-1)^2 <= 2^53 and each product of two residues is
exact in a double; the panel width w is capped so that w*(p-1)^2 <= 2^53,
which keeps every panel product exact as well (w = 64 at p = 32003, w = 1
at the largest accepted primes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

DEFAULT_PRIME = 32003
# Largest modulus with (p-1)^2 <= 2^53: the float64 exactness condition.
MAX_PRIME = isqrt(1 << 53) + 1

# Panel width for the blocked elimination, and the size threshold below
# which the plain per-pivot loop is faster.
_PANEL = 64
_BLOCK_THRESHOLD = 1 << 14


class DimensionMismatch(ValueError):
    pass


def _as_mat(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def inv_mod(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
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


def check_prime(p: int) -> int:
    """p itself if it is a prime in [5, MAX_PRIME], else ValueError."""
    if not (5 <= p <= MAX_PRIME and is_prime(p)):
        raise ValueError(f"modulus must be a prime in [5, {MAX_PRIME}], got {p}")
    return p


def _exact_terms(p: int) -> int:
    """Largest k with k*(p-1)^2 <= 2^53: a sum of k products of residues
    mod p is then exact in a double.  At least 1 for every p <= MAX_PRIME."""
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds MAX_PRIME = {MAX_PRIME}")
    return (1 << 53) // ((p - 1) * (p - 1))


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p, using float64 BLAS when the inner dimension allows.

    A dot product of length k has magnitude at most k*(p-1)^2; as long as
    that stays below 2^53 the float64 product is exact.  Longer inner
    dimensions are accumulated in chunks.
    """
    a = _as_mat(a)
    b = _as_mat(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"matmul {a.shape} @ {b.shape}")
    k = a.shape[1]
    if k == 0:
        return zeros(a.shape[0], b.shape[1])
    if a.size == 0 or b.size == 0:
        return zeros(a.shape[0], b.shape[1])
    safe = _exact_terms(p)
    if k <= safe:
        c = a.astype(np.float64) @ b.astype(np.float64)
        return np.mod(c, p).astype(np.int64)
    acc = zeros(a.shape[0], b.shape[1])
    for lo in range(0, k, safe):
        hi = min(lo + safe, k)
        c = a[:, lo:hi].astype(np.float64) @ b[lo:hi].astype(np.float64)
        acc = (acc + np.mod(c, p).astype(np.int64)) % p
    return acc


def _rref_small(a: np.ndarray, p: int) -> tuple[int, np.ndarray, list[int]]:
    m, n = a.shape
    r = a % p
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        k = row + int(nz[0])
        if k != row:
            r[[row, k]] = r[[k, row]]
        r[row] = (r[row] * inv_mod(r[row, col], p)) % p
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other] = (r[other] - np.outer(r[other, col], r[row])) % p
        pivots.append(col)
        row += 1
    return len(pivots), r, pivots


def _rref_blocked(a: np.ndarray, p: int) -> tuple[int, np.ndarray, list[int]]:
    # Gauss-Jordan with delayed rank-one updates, float64 throughout.  The
    # current matrix is A - U[:, :k] @ V[:k] mod p: column peeks and pivot-row
    # reads apply the k pending updates lazily, and a full panel is flushed
    # into A as one BLAS product.  The panel width keeps every product and
    # every A - U @ V exact in a double, so the result matches the
    # sequential elimination entry for entry.
    m, n = a.shape
    w = min(_PANEL, _exact_terms(p))
    A = (a % p).astype(np.float64)
    U = np.empty((m, w))  # multiplier columns
    V = np.empty((w, n))  # normalized pivot rows, zero left of their pivot
    k = 0
    c0 = 0  # pivot column of V[0], the panel's first
    pivots: list[int] = []
    pivot_rows: list[int] = []
    used = np.zeros(m, dtype=bool)

    def flush() -> None:
        # V[:k] is zero left of c0, so the columns before it are final.
        tail = A[:, c0:]
        tail -= U[:, :k] @ V[:k, c0:]
        np.mod(tail, p, out=tail)

    for col in range(n):
        if len(pivots) == m:
            break
        cur = np.mod(A[:, col] - U[:, :k] @ V[:k, col], p)
        cand = np.flatnonzero((cur != 0) & ~used)
        if cand.size == 0:
            continue
        r = int(cand[0])
        rowvec = np.mod(A[r, col:] - U[r, :k] @ V[:k, col:], p)
        rowvec = np.mod(rowvec * inv_mod(int(rowvec[0]), p), p)
        if k == 0:
            c0 = col
        # Row r is zero left of col in exact arithmetic, but A's copy there
        # is stale (its pending updates were never applied): write the zeros,
        # or they survive into the output.  A[r] is now current, so its
        # pending multipliers are cleared or the flush would apply them twice.
        A[r, :col] = 0
        A[r, col:] = rowvec
        U[r, :k] = 0
        U[:, k] = cur
        U[r, k] = 0
        V[k, :col] = 0
        V[k, col:] = rowvec
        k += 1
        used[r] = True
        pivots.append(col)
        pivot_rows.append(r)
        if k == w:
            flush()
            k = 0
    if k:
        flush()
    rank = len(pivots)
    out = zeros(m, n)
    # rows never chosen as pivots are exactly zero after full reduction
    out[:rank] = A[pivot_rows]
    return rank, out, pivots


def rref(mat, p: int) -> tuple[int, np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (rank, reduced, pivot_columns).  Pivoting is deterministic:
    the first not-yet-used row with a nonzero entry in the current column
    wins, and pivot rows are emitted in pivot-column order.
    """
    a = _as_mat(mat)
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0, a % p, []
    if a.size <= _BLOCK_THRESHOLD:
        return _rref_small(a, p)
    return _rref_blocked(a, p)


@dataclass
class Subspace:
    """A subspace of F_p^ambient, stored as an RREF basis (rows)."""

    ambient: int
    basis: np.ndarray  # shape (dim, ambient), reduced row echelon form
    p: int

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def pivots(self) -> list[int]:
        if not self.basis.size:
            return []
        return np.argmax(self.basis != 0, axis=1).tolist()

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.int64) % self.p
        if v.shape != (self.ambient,):
            raise DimensionMismatch("vector/ambient mismatch")
        return reduce_mod_subspace(v, self).max(initial=0) == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.p == other.p
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )


def subspace_from_rows(rows, ambient: int, p: int) -> Subspace:
    a = _as_mat(rows) if len(rows) else zeros(0, ambient)
    if a.shape[1] != ambient:
        raise DimensionMismatch("row length/ambient mismatch")
    rank, red, _ = rref(a, p)
    return Subspace(ambient, red[:rank], p)


def zero_subspace(ambient: int, p: int) -> Subspace:
    return Subspace(ambient, zeros(0, ambient), p)


def full_subspace(ambient: int, p: int) -> Subspace:
    return Subspace(ambient, identity(ambient), p)


def reduce_mod_subspace(vec: np.ndarray, s: Subspace) -> np.ndarray:
    """Canonical coset representative of vec modulo the subspace."""
    v = np.asarray(vec, dtype=np.int64) % s.p
    if s.dim == 0:
        return v
    # RREF basis: the pivot coordinates are the coefficients outright.
    coeffs = v[s.pivots]
    return (v - matmul_mod(coeffs.reshape(1, -1), s.basis, s.p).ravel()) % s.p


def coords_in_rref_basis(vec: np.ndarray, s: Subspace) -> np.ndarray | None:
    """Coordinates of vec in the RREF basis of s, or None if not a member."""
    v = np.asarray(vec, dtype=np.int64) % s.p
    if reduce_mod_subspace(v, s).any():
        return None
    return v[s.pivots]


def kernel_basis(mat, p: int) -> Subspace:
    """Right null space {v : mat @ v = 0} as a Subspace whose basis is the
    canonical RREF, obtained from one elimination."""
    a = _as_mat(mat)
    rows, cols = a.shape
    if cols == 0:
        return zero_subspace(0, p)
    if rows == 0:
        return full_subspace(cols, p)
    # Eliminating the reversed columns leaves each pivot row with entries
    # only left of its pivot, at free columns.  The kernel vector of free
    # column f is then 1 at f, 0 at the other free columns and nonzero only
    # at pivot columns right of f: with rows in ascending f these vectors
    # already are the kernel's RREF.  The RREF is unique, so the result is
    # byte-identical to re-reducing it.
    rank, red, rev_pivots = rref(a[:, ::-1], p)
    free_mask = np.ones(cols, dtype=bool)
    pivots = [cols - 1 - c for c in rev_pivots]
    free_mask[pivots] = False
    free = np.flatnonzero(free_mask)
    if not free.size:
        return zero_subspace(cols, p)
    basis = zeros(free.size, cols)
    basis[np.arange(free.size), free] = 1
    if pivots:
        basis[:, pivots] = (-red[:rank, cols - 1 - free].T) % p
    return Subspace(cols, basis, p)


def left_kernel_basis(mat, p: int) -> Subspace:
    """Left null space {v : v @ mat = 0}."""
    a = _as_mat(mat)
    return kernel_basis(a.T, p)


def solve(a, b, p: int) -> np.ndarray | None:
    """Some x with a @ x = b, or None if the system is inconsistent."""
    a = _as_mat(a)
    bv = np.asarray(b, dtype=np.int64) % p
    if bv.ndim != 1 or bv.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"solve: {a.shape} vs b of shape {bv.shape}")
    aug = np.hstack([a % p, bv.reshape(-1, 1)])
    rank, red, pivots = rref(aug, p)
    n = a.shape[1]
    if pivots and pivots[-1] == n:
        return None
    x = zeros(1, n)[0]
    for i, c in enumerate(pivots):
        x[c] = red[i, n]
    return x


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

