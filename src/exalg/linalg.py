"""
Dense exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Row
reduction returns the reduced row echelon form, which is unique, so every
result is bit-reproducible whatever order the pivots are found in.  Small
matrices are reduced one pivot at a time in int64.  Large ones go through a
recursive Gauss-Jordan in float64: reduce the left half of the columns,
bring the right half up to date with one product, recurse on the rows that
are not yet pivots, then clear the left pivot rows at the new pivot columns
with one more product.  Each half stores the row transform it applied in
its own pivot columns (in-place inversion), so no triangular solve is
needed.  Leaves of _PANEL columns find their pivots one at a time on their
nonzero rows only.

Exactness.  Every accepted prime is at most MAX_PRIME, so (p-1)^2 <= 2^53
and each product of two residues is exact in a double.  A residue plus or
minus a sum of w such products lies in [2p - 2^53, 2^53 - p] when
w*(p-1)^2 <= 2^53 - 2p (_exact_terms; w = 1 at the largest accepted
primes), and on that range _reduce computes x mod p exactly with one floor
and one +-p correction, with no float modulo.  Longer products are split
into runs of w terms.  matmul_mod sums at most w products per float run
and reduces the exact integer result in int64.

Threads.  OpenBLAS runs a gemm of at most 2^18 multiply-adds on the calling
thread and hands larger ones to its thread pool, whose wake-up and spinning
cost more CPU than a mid-size product saves.  matmul_mod therefore computes
a run of at most _PANEL_CUT multiply-adds as row panels of at most
_PANEL_WORK each, and hands larger runs to BLAS whole, where the pool pays.
Every entry is the same exact integer dot product either way, so the split
changes no output.  The library never sets a thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

DEFAULT_PRIME = 32003
# Largest modulus with (p-1)^2 <= 2^53: the float64 exactness condition.
MAX_PRIME = isqrt(1 << 53) + 1

# Column width of the recursive elimination's leaves, and the size
# threshold below which the plain per-pivot loop is faster.
_PANEL = 64
_BLOCK_THRESHOLD = 1 << 14
# matmul_mod's row panels: at most _PANEL_WORK multiply-adds each, OpenBLAS's
# one-thread gemm limit (SMP_THRESHOLD_MIN 65536 x GEMM_MULTITHREAD_THRESHOLD
# 4 in its interface/gemm.c), for products of at most _PANEL_CUT.
_PANEL_WORK = 1 << 18
_PANEL_CUT = 1 << 24


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
    """Trial division: under 10^4 steps for every n up to MAX_PRIME."""
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def check_prime(p: int) -> int:
    """p itself if it is a prime in [5, MAX_PRIME], else ValueError."""
    if not (5 <= p <= MAX_PRIME and is_prime(p)):
        raise ValueError(f"modulus must be a prime in [5, {MAX_PRIME}], got {p}")
    return p


def _exact_terms(p: int) -> int:
    """Largest w with w*(p-1)^2 <= 2^53 - 2p: a sum of w products of residues
    mod p is then exact in a double, and a residue plus or minus such a sum
    lies inside _reduce's range.  At least 1 for every accepted prime."""
    w = ((1 << 53) - 2 * p) // ((p - 1) * (p - 1))
    if w < 1:
        raise ValueError(f"modulus {p} too large for exact float64 sums, MAX_PRIME = {MAX_PRIME}")
    return w


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """x <- x mod p in place, for integral float64 x in [2p - 2^53, 2^53 - p].

    scratch is a float64 buffer of x's shape that the caller owns.  Proof of
    exactness: fl(1/p) and the product x*fl(1/p) each carry a relative error
    below 2^-53, so y = fl(x*fl(1/p)) is within |x|/p * 2^-52 <= 2/p < 1 of
    x/p, and q = floor(y) is floor(x/p) + e with e in {-1, 0, 1}.  Then q*p
    lies in [x - 2p + 1, x + p], inside [-2^53, 2^53] by the range of x, so
    q*p is an exact double; x - q*p is an integer in [-p, 2p), exact as well,
    and one +p or -p lands it in [0, p).
    """
    np.multiply(x, 1.0 / p, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= p
    x -= scratch
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)


def _panel_matmul(af: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """af @ bf for float64 operands: in row panels of at most _PANEL_WORK
    multiply-adds, written into one buffer, when the product has at most
    _PANEL_CUT; else, or when one panel holds every row, in one BLAS call.
    A row with more than _PANEL_WORK is a panel of its own."""
    m, k = af.shape
    n = bf.shape[1]
    step = max(1, _PANEL_WORK // max(k * n, 1))
    if m <= step or m * k * n > _PANEL_CUT:
        return np.matmul(af, bf)
    out = np.empty((m, n))
    for lo in range(0, m, step):
        np.matmul(af[lo : lo + step], bf, out=out[lo : lo + step])
    return out


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p, using float64 BLAS when the inner dimension allows.

    For entries of magnitude below p, a dot product of length k has
    magnitude at most k*(p-1)^2; as long as that stays below 2^53 the
    float64 product is an exact integer, reduced in int64.  Longer inner
    dimensions are accumulated in runs of _exact_terms(p) terms.  Each run
    of at most _PANEL_CUT multiply-adds is computed in row panels of at most
    _PANEL_WORK, which OpenBLAS runs on the calling thread (module
    docstring); a larger run is one BLAS call.
    """
    a = _as_mat(a)
    b = _as_mat(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"matmul {a.shape} @ {b.shape}")
    k = a.shape[1]
    safe = _exact_terms(p)
    af = a.astype(np.float64)
    bf = b.astype(np.float64)
    if k <= safe:
        return _panel_matmul(af, bf).astype(np.int64) % p
    acc = zeros(a.shape[0], b.shape[1])
    for lo in range(0, k, safe):
        hi = min(lo + safe, k)
        acc += _panel_matmul(af[:, lo:hi], bf[lo:hi]).astype(np.int64)
        acc %= p
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
        # left of col the pivot row is zero, so only columns col: change
        r[row, col:] = (r[row, col:] * inv_mod(r[row, col], p)) % p
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other, col:] = (r[other, col:] - np.outer(r[other, col], r[row, col:])) % p
        pivots.append(col)
        row += 1
    return len(pivots), r, pivots


def _addmul(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int, sign: int) -> None:
    """c <- c + sign * a @ b mod p in place, for float64 residues.  Runs of
    _exact_terms(p) inner terms keep every value inside _reduce's range."""
    w = _exact_terms(p)
    for lo in range(0, a.shape[1], w):
        prod = a[:, lo : lo + w] @ b[lo : lo + w]
        if sign > 0:
            c += prod
        else:
            c -= prod
        _reduce(c, p, prod)


def _gj_leaf(A: np.ndarray, r0: int, lo: int, hi: int, p: int) -> list[int]:
    # _gj's leaf: Gauss-Jordan on columns lo:hi one pivot at a time.  Rows
    # that are zero there stay zero, so the pivots are found on the nonzero
    # rows alone, in int64 (a product of residues fits); then the k-th pivot
    # row moves, whole, to row r0 + k.  Setting the pivot entry to 1 before
    # scaling and the other rows' entries to 0 before the update leaves T's
    # column in the pivot column (in-place inversion).
    B = A[r0:, lo:hi]
    live = np.flatnonzero(B.any(axis=1))
    C = B[live].astype(np.int64)
    used = [False] * live.size
    pivots: list[int] = []
    prow: list[int] = []
    for j in range(hi - lo):
        if len(prow) == live.size:
            break
        rows = C[:, j].nonzero()[0].tolist()
        r = next((x for x in rows if not used[x]), None)
        if r is None:
            continue
        inv = inv_mod(int(C[r, j]), p)
        C[r, j] = 1
        C[r] = C[r] * inv % p
        rows.remove(r)
        if rows:
            f = C[rows, j]
            C[rows, j] = 0
            C[rows] = (C[rows] - f[:, None] * C[r]) % p
        used[r] = True
        prow.append(r)
        pivots.append(lo + j)
    if not pivots:
        return pivots
    B[live] = C
    # the rows the pivot rows displace take the places they leave
    src = live[prow]
    r = src.size
    held = np.zeros(r, dtype=bool)
    held[src[src < r]] = True
    moved = np.concatenate([src, np.flatnonzero(~held)])
    A[r0 + np.concatenate([np.arange(r), src[src >= r]])] = A[r0 + moved]
    return pivots


def _gj(A: np.ndarray, r0: int, lo: int, hi: int, p: int, keep: bool) -> list[int]:
    # Gauss-Jordan on A[r0:, lo:hi] in place, rows r0.. being those not yet
    # pivots.  Returns the pivot columns; their rows end up at r0, r0 + 1, ...
    # Each pivot column holds, instead of its unit vector, the column of the
    # row transform T for its pivot row; T's other columns are unit vectors,
    # so T acts on further columns through one product.  T is T3 T2 T1: T1
    # reduces the left half, T2 the right half on the rows left over, and T3
    # clears the left pivot rows at the right half's pivot columns.
    # keep=False skips what only T itself needs.
    if r0 == A.shape[0]:
        return []
    if hi - lo <= _PANEL:
        return _gj_leaf(A, r0, lo, hi, p)
    h = (lo + hi) // 2
    c1 = _gj(A, r0, lo, h, p, True)
    s = r0 + len(c1)
    if c1:
        # right half <- T1 @ right half
        y = A[r0:s, h:hi].copy()
        A[r0:s, h:hi] = 0
        _addmul(A[r0:, h:hi], A[r0:, c1], y, p, 1)
    c2 = _gj(A, s, h, hi, p, keep)
    if c1 and c2:
        t = s + len(c2)
        # right half <- T3 @ right half
        mult = A[r0:s, c2]
        A[r0:s, c2] = 0
        _addmul(A[r0:s, h:hi], mult, A[s:t, h:hi], p, -1)
        if keep:
            # T1's columns in c1 <- T3 T2 T1's
            z = A[s:t, c1]
            A[s:t, c1] = 0
            below = A[s:, c1]
            _addmul(below, A[s:, c2], z, p, 1)
            A[s:, c1] = below
            above = A[r0:s, c1]
            _addmul(above, mult, A[s:t, c1], p, -1)
            A[r0:s, c1] = above
    return c1 + c2


def _rref_blocked(a: np.ndarray, p: int) -> tuple[int, np.ndarray, list[int]]:
    m, n = a.shape
    A = (a % p).astype(np.float64)
    pivots = _gj(A, 0, 0, n, p, False)
    rank = len(pivots)
    out = zeros(m, n)
    out[:rank] = A[:rank]
    # the pivot columns hold transform entries: write the RREF's unit vectors
    out[:, pivots] = 0
    out[np.arange(rank), pivots] = 1
    return rank, out, pivots


def rref(mat, p: int) -> tuple[int, np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (rank, reduced, pivot_columns).  The reduced form is unique, so
    it does not depend on which rows serve as pivots; pivot rows are emitted
    in pivot-column order, followed by zero rows.
    """
    a = _as_mat(mat)
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


def coords_in_rref_basis(rows, s: Subspace) -> np.ndarray | None:
    """Coordinates of each row in the RREF basis of s (a member's entries at
    the pivots), or None if some row is not a member."""
    v = _as_mat(rows) % s.p
    if v.shape[1] != s.ambient:
        raise DimensionMismatch("row length/ambient mismatch")
    coords = v[:, s.pivots]
    if not np.array_equal(matmul_mod(coords, s.basis, s.p), v):
        return None
    return coords


def kernel_basis(mat, p: int) -> Subspace:
    """Right null space {v : mat @ v = 0} as a Subspace whose basis is the
    canonical RREF, obtained from one elimination."""
    a = _as_mat(mat)
    cols = a.shape[1]
    # Eliminating the reversed columns leaves each pivot row with entries
    # only left of its pivot, at free columns.  The kernel vector of free
    # column f is then 1 at f, 0 at the other free columns and nonzero only
    # at pivot columns right of f: with rows in ascending f these vectors
    # already are the kernel's RREF.  The RREF is unique, so the result is
    # byte-identical to re-reducing it.  No row, no column and full rank
    # need no case of their own.
    rank, red, rev_pivots = rref(a[:, ::-1], p)
    free_mask = np.ones(cols, dtype=bool)
    pivots = [cols - 1 - c for c in rev_pivots]
    free_mask[pivots] = False
    free = np.flatnonzero(free_mask)
    basis = zeros(free.size, cols)
    basis[np.arange(free.size), free] = 1
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

