"""
Finitely generated graded right modules over the exterior algebra.

A module is a graded dimension vector plus, for every generator x_i and
every degree d, the matrix of right multiplication M_d -> M_{d+1} in the
row-vector convention (v acting by v @ X_i[d]).  The exterior relations
become matrix identities:

    X_i[d] @ X_i[d+1] = 0
    X_i[d] @ X_j[d+1] + X_j[d] @ X_i[d+1] = 0   (i != j)

Degree-zero homomorphisms are per-degree blocks commuting with every
action matrix.  The Hom solver works from a presentation: a map is fixed by
the images of the source's top generators, and those images are cut down
one degree at a time to the ones that respect the relations among the
generators' monomial multiples.  One elimination per degree yields both
the generators in that degree and the relations landing there, so every
elimination stays at per-degree size.

The radical powers mJ, mJ², ... come from one lazy generator,
radical_powers: top generators and Ext over the radical-square-zero
truncation read only mJ, and square_truncate divides out mJ².
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import exterior, linalg
from .linalg import (
    Subspace,
    left_kernel_basis,
    matmul_mod,
    rref,
    subspace_from_rows,
    zero_subspace,
    zeros,
)


class ModulusMismatch(ValueError):
    pass


def _check_compatible(a: "GradedModule", b: "GradedModule") -> None:
    if a.p != b.p:
        raise ModulusMismatch(f"moduli differ: {a.p} vs {b.p}")
    if a.n_plus_1 != b.n_plus_1:
        raise ValueError(f"variable counts differ: {a.n_plus_1} vs {b.n_plus_1}")


class GradedModule:
    """Graded dimensions plus per-degree right-action matrices."""

    def __init__(self, n_plus_1: int, p: int, dims: dict[int, int], actions):
        self.n_plus_1 = int(n_plus_1)
        if self.n_plus_1 < 1:
            raise ValueError("n_plus_1 must be positive")
        self.p = linalg.check_prime(int(p))
        self.dims = {int(d): int(c) for d, c in dims.items() if int(c)}
        for d, c in self.dims.items():
            if c < 0:
                raise ValueError(f"negative dimension {c} in degree {d}")
        acts: list[dict[int, np.ndarray]] = []
        for i in range(self.n_plus_1):
            given = actions[i] if i < len(actions) else {}
            block: dict[int, np.ndarray] = {}
            for d, mat in given.items():
                d = int(d)
                rows = self.dims.get(d, 0)
                cols = self.dims.get(d + 1, 0)
                m = np.asarray(mat, dtype=np.int64) % self.p
                if m.shape != (rows, cols):
                    raise ValueError(
                        f"action x_{i} at degree {d}: shape {m.shape}, expected {(rows, cols)}"
                    )
                if rows and cols:
                    block[d] = m
            acts.append(block)
        self.actions = acts

    # -- basic accessors -------------------------------------------------

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    @property
    def degrees(self) -> list[int]:
        return sorted(self.dims)

    @property
    def min_deg(self) -> int | None:
        return min(self.dims) if self.dims else None

    @property
    def max_deg(self) -> int | None:
        return max(self.dims) if self.dims else None

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def action(self, i: int, d: int) -> np.ndarray:
        got = self.actions[i].get(d)
        if got is not None:
            return got
        return zeros(self.dim(d), self.dim(d + 1))

    def form_action(self, form, d: int) -> np.ndarray:
        """Right multiplication by the linear form sum_i form[i] x_i."""
        shape = np.shape(form)
        if shape != (self.n_plus_1,):
            raise ValueError(f"a linear form needs {self.n_plus_1} coefficients, got shape {shape}")
        out = zeros(self.dim(d), self.dim(d + 1))
        for i, c in enumerate(form):
            c = int(c) % self.p
            if c:
                out = (out + c * self.action(i, d)) % self.p
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedModule):
            return NotImplemented
        if (self.n_plus_1, self.p, self.dims) != (other.n_plus_1, other.p, other.dims):
            return False
        for i in range(self.n_plus_1):
            for d in self.dims:
                if not np.array_equal(self.action(i, d), other.action(i, d)):
                    return False
        return True

    def __repr__(self) -> str:
        return f"GradedModule(n_plus_1={self.n_plus_1}, dims={dict(sorted(self.dims.items()))})"


@dataclass
class ModuleMap:
    """Degree-zero homomorphism: one block per degree, row-vector action."""

    source: GradedModule
    target: GradedModule
    blocks: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        _check_compatible(self.source, self.target)
        norm: dict[int, np.ndarray] = {}
        for d, mat in self.blocks.items():
            d = int(d)
            rows = self.source.dim(d)
            cols = self.target.dim(d)
            m = np.asarray(mat, dtype=np.int64) % self.source.p
            if m.shape != (rows, cols):
                raise ValueError(f"map block at degree {d}: shape {m.shape} != {(rows, cols)}")
            if rows and cols:
                norm[d] = m
        self.blocks = norm

    def block(self, d: int) -> np.ndarray:
        got = self.blocks.get(d)
        if got is not None:
            return got
        return zeros(self.source.dim(d), self.target.dim(d))

    def is_zero(self) -> bool:
        return all(not b.any() for b in self.blocks.values())

    def commutes(self) -> bool:
        p = self.source.p
        for i in range(self.source.n_plus_1):
            for d in set(self.source.dims) | set(self.target.dims):
                lhs = matmul_mod(self.source.action(i, d), self.block(d + 1), p)
                rhs = matmul_mod(self.block(d), self.target.action(i, d), p)
                if not np.array_equal(lhs, rhs):
                    return False
        return True

    def degreewise_bijective(self) -> bool:
        if self.source.dims != self.target.dims:
            return False
        p = self.source.p
        for d, k in self.source.dims.items():
            if rref(self.block(d), p)[0] != k:
                return False
        return True


def map_compose(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """First f, then g (row-vector order)."""
    if f.target is not g.source and f.target.dims != g.source.dims:
        raise ValueError("map composition mismatch")
    p = f.source.p
    blocks = {}
    for d in f.source.dims:
        blocks[d] = matmul_mod(f.block(d), g.block(d), p)
    return ModuleMap(f.source, g.target, blocks)


def identity_map(m: GradedModule) -> ModuleMap:
    return ModuleMap(m, m, {d: linalg.identity(k) for d, k in m.dims.items()})


def zero_map(a: GradedModule, b: GradedModule) -> ModuleMap:
    return ModuleMap(a, b, {})


# -- constructors ---------------------------------------------------------


def zero_module(n_plus_1: int, p: int) -> GradedModule:
    return GradedModule(n_plus_1, p, {}, [{} for _ in range(n_plus_1)])


def free_module(n_plus_1: int, p: int, generator_degrees) -> GradedModule:
    """Direct sum of one rank-one free module per listed generator degree."""
    gens = sorted(int(g) for g in generator_degrees)
    gen_mats = exterior.generator_matrices(n_plus_1, p)
    dims: dict[int, int] = {}
    for g in gens:
        for j in range(n_plus_1 + 1):
            dims[g + j] = dims.get(g + j, 0) + comb(n_plus_1, j)
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(n_plus_1)]
    for i in range(n_plus_1):
        for d in sorted(dims):
            mat = zeros(dims[d], dims.get(d + 1, 0))
            r0 = 0
            c0 = 0
            for g in gens:
                br = exterior.algebra_dim(n_plus_1, d - g)
                bc = exterior.algebra_dim(n_plus_1, d + 1 - g)
                if br and bc:
                    mat[r0 : r0 + br, c0 : c0 + bc] = gen_mats[i][d - g]
                r0 += br
                c0 += bc
            actions[i][d] = mat
    return GradedModule(n_plus_1, p, dims, actions)


def simple_module(n_plus_1: int, p: int, degree: int = 0) -> GradedModule:
    """The one-dimensional module concentrated in a single degree."""
    return GradedModule(n_plus_1, p, {degree: 1}, [{} for _ in range(n_plus_1)])


# -- validation -----------------------------------------------------------


def _product(m: GradedModule, i: int, j: int, d: int):
    """x_i then x_j from degree d; an absent block is zero, never built densely."""
    a, b = m.actions[i].get(d), m.actions[j].get(d + 1)
    return 0 if a is None or b is None else matmul_mod(a, b, m.p)


def validate(m: GradedModule) -> list[str]:
    """Check the graded-module axioms; returns one message per violation.

    Entries need no range check: the constructor reduces every block mod p.
    """
    problems: list[str] = []
    for d in m.degrees:
        for i in range(m.n_plus_1):
            if np.any(_product(m, i, i, d)):
                problems.append(f"square-zero violated: (i={i}, j={i}, d={d})")
        for i in range(m.n_plus_1):
            for j in range(i + 1, m.n_plus_1):
                anti = (_product(m, i, j, d) + _product(m, j, i, d)) % m.p
                if np.any(anti):
                    problems.append(f"anticommutation violated: (i={i}, j={j}, d={d})")
    return problems


def is_square_zero(m: GradedModule) -> bool:
    """True when every length-two product of action matrices vanishes."""
    for d in m.degrees:
        for i in range(m.n_plus_1):
            for j in range(m.n_plus_1):
                if np.any(_product(m, i, j, d)):
                    return False
    return True


# -- structural operations -------------------------------------------------


def shift(m: GradedModule, i: int) -> GradedModule:
    """Graded shift: shift(m, i) has degree-j part equal to m's degree i+j."""
    if i == 0:
        return m
    dims = {d - i: c for d, c in m.dims.items()}
    actions = [{d - i: mat for d, mat in m.actions[k].items()} for k in range(m.n_plus_1)]
    return GradedModule(m.n_plus_1, m.p, dims, actions)


def dual(m: GradedModule) -> GradedModule:
    """Graded dual: dimensions reflect, actions transpose.

    The convention X'_i[-d-1] = transpose(X_i[d]) keeps all module axioms
    (transposing reverses products, and the signless identities are
    symmetric in the two factors), and dual(dual(m)) == m on the nose.
    """
    dims = {-d: c for d, c in m.dims.items()}
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(m.n_plus_1)]
    for i in range(m.n_plus_1):
        for d, mat in m.actions[i].items():
            actions[i][-d - 1] = mat.T
    return GradedModule(m.n_plus_1, m.p, dims, actions)


def transport(m: GradedModule, a: np.ndarray) -> GradedModule:
    """Twist by the linear substitution x_i -> sum_j a[i, j] x_j.

    The matrix must be invertible; the result is the same underlying graded
    space with action matrices recombined, and it satisfies the module
    axioms because the exterior relations are GL(V)-equivariant.
    """
    p = m.p
    a = np.asarray(a, dtype=np.int64) % p
    if a.shape != (m.n_plus_1, m.n_plus_1):
        raise ValueError("substitution matrix has wrong shape")
    if rref(a, p)[0] != m.n_plus_1:
        raise ValueError("substitution matrix is singular")
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(m.n_plus_1)]
    for i in range(m.n_plus_1):
        for d in m.degrees:
            actions[i][d] = m.form_action(a[i], d)
    return GradedModule(m.n_plus_1, m.p, dict(m.dims), actions)


def direct_sum(*mods: GradedModule):
    """Block-diagonal sum with one inclusion and one projection per summand.

    Returns (sum, incls, projs) with the maps listed in summand order.
    """
    if not mods:
        raise ValueError("direct_sum needs at least one summand")
    first = mods[0]
    for other in mods[1:]:
        _check_compatible(first, other)
    degrees = sorted(set().union(*(m.dims for m in mods)))
    # offsets[k][d]: where summand k starts inside degree d of the sum
    offsets = [dict.fromkeys(degrees, 0)]
    for m in mods:
        offsets.append({d: offsets[-1][d] + m.dim(d) for d in degrees})
    dims = offsets[-1]
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(first.n_plus_1)]
    for i in range(first.n_plus_1):
        for d in degrees:
            if not dims[d] or not dims.get(d + 1, 0):
                continue
            mat = zeros(dims[d], dims[d + 1])
            for m, off in zip(mods, offsets):
                mat[off[d] : off[d] + m.dim(d), off[d + 1] : off[d + 1] + m.dim(d + 1)] = m.action(i, d)
            actions[i][d] = mat
    total = GradedModule(first.n_plus_1, first.p, dims, actions)
    incls, projs = [], []
    for m, off in zip(mods, offsets):
        inc = {d: np.eye(m.dim(d), dims[d], off[d], dtype=np.int64) for d in degrees}
        incls.append(ModuleMap(m, total, inc))
        projs.append(ModuleMap(total, m, {d: b.T.copy() for d, b in inc.items()}))
    return total, incls, projs


def _closure_subspaces(m: GradedModule, seeds: dict[int, list[np.ndarray]]) -> dict[int, Subspace]:
    """Smallest action-stable graded subspace containing the seed vectors."""
    p = m.p
    rows: dict[int, list[np.ndarray]] = {d: [np.asarray(v) % p for v in vs] for d, vs in seeds.items()}
    if not rows:
        return {}
    lo = min(rows)
    spans: dict[int, Subspace] = {}
    for d in [e for e in m.degrees if e >= lo]:
        here = rows.get(d, [])
        mat = np.array(here, dtype=np.int64).reshape(len(here), m.dim(d))
        spans[d] = subspace_from_rows(mat, m.dim(d), p)
        if spans[d].dim and m.dim(d + 1):
            nxt = rows.setdefault(d + 1, [])
            for i in range(m.n_plus_1):
                img = matmul_mod(spans[d].basis, m.action(i, d), p)
                nxt.extend(img)
    return {d: s for d, s in spans.items() if s.dim}


def submodule_from_subspaces(m: GradedModule, spans: dict[int, Subspace]):
    """The module structure on an action-stable family of subspaces."""
    p = m.p
    dims = {d: s.dim for d, s in spans.items() if s.dim}
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(m.n_plus_1)]
    blocks = {}
    for d, s in spans.items():
        if not s.dim:
            continue
        blocks[d] = s.basis
        nxt = spans.get(d + 1)
        if nxt is None or not nxt.dim:
            continue
        piv = nxt.pivots
        for i in range(m.n_plus_1):
            actions[i][d] = matmul_mod(s.basis, m.action(i, d)[:, piv], p)
    sub = GradedModule(m.n_plus_1, p, dims, actions)
    incl = ModuleMap(sub, m, blocks)
    return sub, incl


def _nonpivots(total: int, s: Subspace | None) -> np.ndarray:
    """The coordinates off s's pivots: the quotient's basis slots."""
    return np.delete(np.arange(total), s.pivots if s else [])


def quotient_by_subspaces(m: GradedModule, spans: dict[int, Subspace]):
    """Quotient by an action-stable family of subspaces, with projection."""
    p = m.p
    dims: dict[int, int] = {}
    proj_blocks: dict[int, np.ndarray] = {}
    nonpiv: dict[int, np.ndarray] = {}
    for d, total in m.dims.items():
        s = spans.get(d)
        piv = s.pivots if s else []
        npv = _nonpivots(total, s)
        nonpiv[d] = npv
        dims[d] = npv.size
        # v minus its pivot coordinates times the RREF basis: the coset's
        # canonical representative, zero at every pivot
        proj = linalg.identity(total)
        if piv:
            proj[piv] = (proj[piv] - s.basis) % p
        proj_blocks[d] = proj[:, npv]
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(m.n_plus_1)]
    for i in range(m.n_plus_1):
        for d in m.degrees:
            if dims.get(d, 0) and dims.get(d + 1, 0):
                sect = m.action(i, d)[nonpiv[d], :]
                actions[i][d] = matmul_mod(sect, proj_blocks[d + 1], p)
    quot = GradedModule(m.n_plus_1, p, {d: c for d, c in dims.items() if c}, actions)
    proj = ModuleMap(m, quot, {d: b for d, b in proj_blocks.items() if b.size})
    return quot, proj


def induced_on_quotient(quot: GradedModule, spans: dict[int, Subspace], f: ModuleMap) -> ModuleMap:
    """The map quot -> f.target that f induces, for quot the quotient of
    f.source by spans and f vanishing on spans.

    Basis slot c of the quotient is the coset of the unit vector e_c, so the
    induced map takes f's rows at the non-pivot coordinates.
    """
    blocks = {d: f.block(d)[_nonpivots(f.source.dim(d), spans.get(d))] for d in quot.degrees}
    return ModuleMap(quot, f.target, blocks)


def is_short_exact(incl: ModuleMap, proj: ModuleMap) -> bool:
    """Degree-wise exactness of A -> B -> C: incl injective, proj surjective,
    the composite zero and dim A + dim C = dim B in every degree."""
    a, b, c = incl.source, incl.target, proj.target
    p = a.p
    if any(a.dim(d) + c.dim(d) != b.dim(d) for d in set(a.dims) | set(b.dims) | set(c.dims)):
        return False
    if any(rref(incl.block(d), p)[0] != k for d, k in a.dims.items()):
        return False
    if any(rref(proj.block(d), p)[0] != k for d, k in c.dims.items()):
        return False
    return map_compose(incl, proj).is_zero()


def sub_quotient(m: GradedModule, generators: list[tuple[int, np.ndarray]]):
    """Submodule generated by homogeneous vectors, plus the quotient.

    Returns (sub, incl, quot, proj) with proj∘incl = 0 and degree-wise
    dimensions adding up.
    """
    seeds: dict[int, list[np.ndarray]] = {}
    for d, v in generators:
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (m.dim(d),):
            raise ValueError(f"generator in degree {d} has wrong length")
        seeds.setdefault(int(d), []).append(v)
    spans = _closure_subspaces(m, seeds)
    sub, incl = submodule_from_subspaces(m, spans)
    quot, proj = quotient_by_subspaces(m, spans)
    return sub, incl, quot, proj


def radical_powers(m: GradedModule):
    """Yield mJ, mJ², ... as one subspace per degree, up to the first zero
    power.  mJ is spanned by the stacked actions and mJ^(k+1) by mJ^k's basis
    times every action; each power is built only when it is asked for."""
    n1, p = m.n_plus_1, m.p
    rows = {d: [m.action(i, d - 1) for i in range(n1)] for d in m.degrees}
    while True:
        power = {d: subspace_from_rows(np.vstack(r), m.dim(d), p) for d, r in rows.items()}
        yield power
        if not any(s.dim for s in power.values()):
            return
        below = {d: power.get(d - 1, zero_subspace(m.dim(d - 1), p)).basis for d in m.degrees}
        rows = {d: [matmul_mod(b, m.action(i, d - 1), p) for i in range(n1)] for d, b in below.items()}


def socle(m: GradedModule) -> dict[int, Subspace]:
    """The graded socle: vectors killed by every variable, per degree."""
    return {
        d: left_kernel_basis(np.hstack([m.action(i, d) for i in range(m.n_plus_1)]), m.p)
        for d in m.degrees
    }


def top_generators(m: GradedModule) -> list[tuple[int, np.ndarray]]:
    """A deterministic choice of minimal generators: one vector per top slot.

    The slots are the non-pivot coordinates of the radical, degrees ascending.
    """
    return [
        (d, v)
        for d, rad in next(radical_powers(m)).items()
        for v in linalg.identity(m.dim(d))[_nonpivots(m.dim(d), rad)]
    ]


def square_truncate(m: GradedModule) -> GradedModule:
    """Quotient by all products of two radical layers (radical-square zero)."""
    powers = radical_powers(m)
    next(powers)
    return quotient_by_subspaces(m, next(powers, {}))[0]


def monomial_rows(m: GradedModule, d0: int, top: np.ndarray) -> list[np.ndarray]:
    """Entry j holds the rows of top (vectors in m_d0) times every degree-j
    monomial, in (row, monomial) order, up to j = n + 1 or m's top degree.

    A monomial's row is its largest-variable predecessor's row pushed through
    that variable's action, which avoids any sign bookkeeping.
    """
    n1, p = m.n_plus_1, m.p
    rows = top.shape[0]
    out = [top]
    prev = {(): 0}  # degree-(j-1) monomial -> its position
    for j in range(1, min(n1, m.max_deg - d0) + 1 if m.dims else 0):
        d = d0 + j - 1
        mons = exterior.basis_of_degree(n1, j)
        acts = np.hstack([m.action(i, d) for i in range(n1)])
        pushed = matmul_mod(out[-1], acts, p).reshape(rows, len(prev), n1, m.dim(d + 1))
        cur = pushed[:, [prev[mon[:-1]] for mon in mons], [mon[-1] for mon in mons]]
        out.append(cur.reshape(rows * len(mons), m.dim(d + 1)))
        prev = {mon: k for k, mon in enumerate(mons)}
    return out


# -- Hom spaces ------------------------------------------------------------


def _blocks_layout(a: GradedModule, b: GradedModule) -> list[int]:
    return sorted(d for d in a.dims if b.dim(d))


def flatten_map(f: ModuleMap) -> np.ndarray:
    """Coordinates of a map in the canonical (degree-ascending) layout."""
    layout = _blocks_layout(f.source, f.target)
    if not layout:
        return zeros(1, 0)[0]
    return np.concatenate([f.block(d).ravel() for d in layout])


def map_from_flat(a: GradedModule, b: GradedModule, vec: np.ndarray) -> ModuleMap:
    layout = _blocks_layout(a, b)
    blocks = {}
    ofs = 0
    for d in layout:
        r, c = a.dim(d), b.dim(d)
        blocks[d] = np.asarray(vec[ofs : ofs + r * c], dtype=np.int64).reshape(r, c)
        ofs += r * c
    return ModuleMap(a, b, blocks)


def hom_space_dim_layout(a: GradedModule, b: GradedModule) -> int:
    return sum(a.dim(d) * b.dim(d) for d in _blocks_layout(a, b))


def _hom_solve(a: GradedModule, b: GradedModule):
    """Solve for the degree-zero maps a -> b.  Returns (u, flatten): u has one
    row per map of a basis, the images of a's top generators, and flatten()
    gives those maps in flatten_map's layout, one row each.

    A map is fixed by the images u_g in b_(deg g) of a's top generators g,
    and such images extend to a map exactly when every relation among the
    words g·x_S holds among the u_g·x_S.  One elimination per degree e,
    ascending, finds both.  In RREF [R | T] of [A | I], A the words of the
    lower generators that land in e, R's nonzero rows are RREF(a_e·J): its
    non-pivot slots are the generators in degree e, top_generators' choice.
    The rows where R is zero are the relations.  Each has a 1 at its own
    word, which no other row touches, so it fixes that word's image from the
    images of the other words (r of them, r = dim a_e·J).  Row k < r, with
    pivot c, gives e_c = T_k·(words) - sum_t R[k, t]·(generator t), so the
    map's block in degree e is a square matrix times the images of those r
    words and the degree-e generators.  The candidate images start free and
    each degree cuts them to the ones respecting its relations (every
    word's image must vanish where a_e = 0); the blocks are read at the end.
    The rows of u start as identity blocks and are only ever multiplied on
    the left by a kernel basis, so they stay independent.
    """
    _check_compatible(a, b)
    p, n1 = a.p, a.n_plus_1
    if not hom_space_dim_layout(a, b):
        return zeros(0, 0), lambda: zeros(0, 0)
    words: dict[int, list[np.ndarray]] = {}  # generator degree -> monomial_rows of its generators
    units: dict[int, list[np.ndarray]] = {}  # the same for b's basis where b is nonzero
    # the candidates: one vector of b_(deg g) per generator g found so far, degrees ascending
    u = zeros(0, 0)
    reads = []  # (e, word positions, the matrix taking their images to the block)

    def images(e: int) -> np.ndarray:
        # (candidates, words, b_e): each candidate's images of the words in degree e
        parts, ofs = [np.zeros((len(u), 0, b.dim(e)), dtype=np.int64)], 0
        for d, w in words.items():
            g, bd = len(w[0]), b.dim(d)
            if 0 <= e - d <= n1:
                count = g * comb(n1, e - d)
                if bd:
                    ud = u[:, ofs : ofs + g * bd].reshape(-1, bd)
                    img = matmul_mod(ud, units[d][e - d].reshape(bd, -1), p)
                else:
                    img = zeros(len(u) * count, b.dim(e))
                parts.append(img.reshape(len(u), count, b.dim(e)))
            ofs += g * bd
        return np.concatenate(parts, axis=1)

    def along_words(mat: np.ndarray, imgs: np.ndarray) -> np.ndarray:
        # mat (r, words) applied along the word axis: (candidates, r, b_e)
        t, w, c = imgs.shape
        out = matmul_mod(mat, imgs.transpose(1, 0, 2).reshape(w, t * c), p)
        return out.reshape(len(mat), t, c).transpose(1, 0, 2)

    for e in sorted(d for d in set(a.dims) | set(b.dims) if d <= b.max_deg):
        ae, be = a.dim(e), b.dim(e)
        if ae:
            low = [w[e - d] for d, w in words.items() if e - d <= n1]
            nw = sum(len(x) for x in low)
            amat = np.vstack(low) if low else zeros(0, ae)
            _, red, piv = rref(np.hstack([amat, linalg.identity(nw)]), p)
            r = bisect_left(piv, ae)  # rows r.. have zero A part
            gens = np.delete(np.arange(ae), piv[:r])
            own = [c - ae for c in piv[r:]]  # each relation's own word
            rest = np.delete(np.arange(nw), own)
            if gens.size:
                words[e] = monomial_rows(a, e, linalg.identity(ae)[gens])
        if not be:
            continue
        if ae:
            if gens.size:
                units[e] = monomial_rows(b, e, linalg.identity(be))
                k = gens.size * be
                u = np.block([[u, zeros(len(u), k)], [zeros(k, u.shape[1]), linalg.identity(k)]])
            expr = zeros(ae, ae)
            expr[piv[:r], :r] = red[:r, ae + rest]
            expr[piv[:r], r:] = -red[:r, gens] % p
            expr[gens, r + np.arange(gens.size)] = 1
            reads.append((e, np.concatenate([rest, nw + np.arange(gens.size)]), expr))
            if not own:
                continue  # no relation lands in e
            imgs = images(e)
            cons = (imgs[:, own] + along_words(red[r:, ae + rest], imgs[:, rest])) % p
        else:
            cons = images(e)  # every word is a relation where a_e = 0
        if cons.any():
            u = matmul_mod(left_kernel_basis(cons.reshape(len(u), -1), p).basis, u, p)

    def flatten() -> np.ndarray:
        flat = [along_words(expr, images(e)[:, cols]).reshape(len(u), -1) for e, cols, expr in reads]
        return np.hstack(flat)

    return u, flatten


def hom_dim(a: GradedModule, b: GradedModule) -> int:
    """dim of the degree-zero Hom space: the count of independent candidate
    images, read before any map is flattened."""
    return len(_hom_solve(a, b)[0])


def hom_space(a: GradedModule, b: GradedModule) -> Subspace:
    """The degree-zero Hom space as the RREF basis of its flattened maps
    (flatten_map's layout, ambient hom_space_dim_layout(a, b))."""
    u, flatten = _hom_solve(a, b)
    ambient = hom_space_dim_layout(a, b)
    if not len(u):
        return zero_subspace(ambient, a.p)
    return subspace_from_rows(flatten(), ambient, a.p)


# -- isomorphism testing ----------------------------------------------------


ISO_TRIALS = 24


@dataclass
class IsoVerdict:
    kind: str  # "ISO" | "NOT_ISO" | "UNDECIDED"
    certificate: ModuleMap | None = None
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.kind == "ISO"


def iso_probable(a: GradedModule, b: GradedModule, seed: int = 0) -> IsoVerdict:
    """Randomized isomorphism test with a verified certificate.

    NOT_ISO is returned only with a structural witness (graded dimensions
    differ, or the Hom space is zero); ISO only with an explicit invertible
    commuting map.  Anything else is UNDECIDED after ISO_TRIALS random
    samples from the Hom space.
    """
    _check_compatible(a, b)
    if a.dims != b.dims:
        bad = sorted(set(a.dims) ^ set(b.dims) | {d for d in a.dims if a.dim(d) != b.dim(d)})
        return IsoVerdict("NOT_ISO", witness=f"graded dimensions differ at degree {bad[0]}")
    if a.is_zero():
        return IsoVerdict("ISO", certificate=zero_map(a, b))
    space = hom_space(a, b)
    if not space.dim:
        return IsoVerdict("NOT_ISO", witness="Hom space is zero")
    p = a.p
    rng = np.random.default_rng(seed)
    for _ in range(ISO_TRIALS):
        coeffs = rng.integers(0, p, space.dim, dtype=np.int64)
        f = map_from_flat(a, b, matmul_mod(coeffs.reshape(1, -1), space.basis, p).ravel())
        if f.degreewise_bijective():
            if not f.commutes():  # pragma: no cover - linear combos always commute
                continue
            return IsoVerdict("ISO", certificate=f)
    return IsoVerdict("UNDECIDED")
