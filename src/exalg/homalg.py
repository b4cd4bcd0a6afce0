"""
Hom and Ext in the graded and stable categories, endomorphism algebras,
and first extensions over the radical-square-zero truncation.

Stable Hom is the Hom space modulo maps factoring through a projective.
Because the algebra is self-injective, those are exactly the maps
extending over the minimal injective envelope of the source, which is how
hom_basis computes the projectively-trivial subspace; the test suite checks
it against the route through a projective cover of the target.

Ext dimensions build no such subspace.  A minimal cover sequence
0 -> Omega X -> P -> X -> 0 gives the exact sequence 0 -> Hom(X, N) ->
Hom(P, N) -> Hom(Omega X, N) -> Ext^1(X, N) -> 0, and Hom(P, N) is the sum
of N_g over P's generator degrees g.

A Hom space is the HomSubspace gmod.hom_space returns: the RREF basis of
its flattened maps, with the source's generator slots; gmod.split_flat
cuts it into blocks.  A map is fixed by its generator images, so End's
structure constants and the ptriv subspace go through one routine,
_composite_coords: it composes maps only at those slots, one product per
slot degree, and reads coordinates off the basis maps' slot rows with one
linalg.solve, whose consistency is the membership check; it builds no
ModuleMap.  hom_dim (gmod's) flattens no map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exterior, gmod, homology
from .gmod import GradedModule, ModuleMap, hom_dim
from .linalg import (
    Subspace,
    coords_in_rref_basis,
    kernel_basis,
    matmul_mod,
    solve,
    subspace_from_rows,
    zero_subspace,
    zeros,
)


class DimTooLarge(ValueError):
    """The trace-form radical criterion needs the dimension below p."""


@dataclass
class HomSpace:
    """A Hom space with its projectively-trivial subspace in basis coordinates."""

    source: GradedModule
    target: GradedModule
    space: Subspace  # gmod.hom_space(source, target)
    ptriv: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> list[ModuleMap]:
        return [gmod.map_from_flat(self.source, self.target, v) for v in self.space.basis]

    @property
    def stable_dim(self) -> int:
        return self.dim - self.ptriv.dim

    def stable_class_reps(self) -> list[ModuleMap]:
        """Canonical coset representatives spanning Hom modulo ptriv.

        With the basis in RREF coordinates, the basis elements indexed away
        from the ptriv pivot columns represent a basis of the quotient, and
        each has zero coordinates on the ptriv pivots, which makes the
        choice reproducible.
        """
        reps = np.delete(self.space.basis, self.ptriv.pivots, axis=0)
        return [gmod.map_from_flat(self.source, self.target, v) for v in reps]


def _composite_coords(a: GradedModule, b: GradedModule, space: gmod.HomSubspace, firsts, seconds) -> np.ndarray:
    """Coordinates in space = gmod.hom_space(a, b) of each composite "first
    map, then second map", first-major: (A·B, space.dim).  At slot degree e,
    firsts[e] (A, slots_e, c_e) holds the first maps' slot rows and
    seconds[e] (B, c_e, b_e) the second maps' blocks.  A map is fixed by its
    slot rows, so x·W = the composites' slot rows, W the basis maps' (which
    are independent), has one solution; a composite outside the space makes
    the system inconsistent and raises ValueError."""
    p, blocks = a.p, gmod.split_flat(a, b, space.basis)
    w, rows = [], []
    for e, sl in space.slots.items():
        (na, g, c), nb, be = firsts[e].shape, len(seconds[e]), b.dim(e)
        prod = matmul_mod(firsts[e].reshape(na * g, c), seconds[e].transpose(1, 0, 2).reshape(c, nb * be), p)
        rows.append(prod.reshape(na, g, nb, be).transpose(0, 2, 1, 3).reshape(na * nb, g * be))
        w.append(blocks[e][:, sl].reshape(space.dim, -1))
    x = solve(np.hstack(w).T, np.hstack(rows).T, p)
    if x is None:
        raise ValueError("map is not in the Hom space")
    return x.T


def factor_through_projectives(m: GradedModule, n: GradedModule, space: gmod.HomSubspace) -> Subspace:
    """Maps m -> n factoring through a projective, in Hom-basis coordinates.

    space is gmod.hom_space(m, n).  The subspace is { g∘ι : g ∈ Hom(I(m), n) }
    for ι the minimal injective envelope of the source; every projective
    factorization extends over ι by injectivity, so this is the whole
    subspace.  Its spanning composites are ι, then each basis map of
    Hom(I(m), n), read at m's generator slots by _composite_coords.
    """
    if not space.dim:
        return zero_subspace(0, m.p)
    env, mono = homology.injective_envelope(m)
    env_blocks = gmod.split_flat(env, n, gmod.hom_space(env, n).basis)
    firsts = {e: mono.block(e)[None, sl] for e, sl in space.slots.items()}
    return subspace_from_rows(_composite_coords(m, n, space, firsts, env_blocks), space.dim, m.p)


def hom_basis(m: GradedModule, n: GradedModule) -> HomSpace:
    """The degree-zero Hom space with its projectively-trivial subspace."""
    space = gmod.hom_space(m, n)
    return HomSpace(m, n, space, factor_through_projectives(m, n, space))


def stable_hom_dim(m: GradedModule, n: GradedModule) -> int:
    return hom_basis(m, n).stable_dim


def ext_dim(m: GradedModule, n: GradedModule, k: int = 1) -> int:
    """dim Ext^k(m, n) = dim Ext^1(Omega^(k-1) m, n) by the cover sequence
    (module docstring); the tests check it against stable Hom out of Omega^k m."""
    if k < 1:
        raise ValueError("ext_dim needs k >= 1")
    x = homology.syzygy(m, k - 1) if k > 1 else m
    gens = gmod.top_generators(x)
    omega = homology.syzygy_step(x, gens)[0]
    return hom_dim(omega, n) - sum(n.dim(g) * sl.size for g, sl in gens.items()) + hom_dim(x, n)


# -- endomorphism algebras ---------------------------------------------------


@dataclass
class FiniteAlgebra:
    """Structure constants of a finite-dimensional unital algebra."""

    dim: int
    p: int
    mult: np.ndarray  # (dim, dim, dim): mult[i, j] = coords of b_i * b_j
    one: np.ndarray  # coords of the unit
    rad_filtration: list[Subspace]  # rad^0 ⊇ rad^1 ⊇ ... ⊇ 0

    @property
    def radical(self) -> Subspace:
        return self.rad_filtration[1] if len(self.rad_filtration) > 1 else zero_subspace(self.dim, self.p)

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mult, self.mult.transpose(1, 0, 2)))

    def is_local(self) -> bool:
        """End/rad = F_p, which implies indecomposability but is not implied by it."""
        return self.dim - self.radical.dim == 1

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "p": self.p,
            "one": [int(x) for x in self.one],
            "mult": self.mult.tolist(),
            "radical_dims": [s.dim for s in self.rad_filtration],
        }


def algebra_radical_subspace(dim: int, p: int, mult: np.ndarray) -> Subspace:
    """Jacobson radical as the radical of the trace form of left multiplication.

    Valid for p larger than the algebra dimension; guarded by DimTooLarge.
    The result is validated: it must be a two-sided ideal and nilpotent.
    """
    if dim >= p:
        raise DimTooLarge(f"algebra dimension {dim} is not below the modulus {p}")
    # mult[i] is the matrix of left multiplication by the i-th basis element,
    # so gram[i, j] = trace(mult[i] @ mult[j]) is one product of flattenings
    flat = mult.reshape(dim, dim * dim)
    gram = matmul_mod(flat, mult.transpose(0, 2, 1).reshape(dim, dim * dim).T, p)
    rad = kernel_basis(gram, p)
    # two-sided ideal check: row (r, k) of the products is e_k * r, then r * e_k
    left = matmul_mod(rad.basis, mult.transpose(1, 0, 2).reshape(dim, dim * dim), p)
    right = matmul_mod(rad.basis, flat, p)
    if coords_in_rref_basis(np.vstack([left, right]).reshape(-1, dim), rad) is None:
        raise ValueError("trace-form radical is not an ideal")
    # nilpotency check happens while building the filtration
    return rad


def _radical_filtration(dim: int, p: int, mult: np.ndarray, rad: Subspace) -> list[Subspace]:
    out = [subspace_from_rows(np.eye(dim, dtype=np.int64), dim, p), rad]
    # left[j, u*dim + c]: entry (j, c) of left multiplication by rad's u-th row
    left = matmul_mod(rad.basis, mult.reshape(dim, dim * dim), p)
    left = left.reshape(rad.dim, dim, dim).transpose(1, 0, 2).reshape(dim, rad.dim * dim)
    cur = rad
    while cur.dim:
        # every product u * v with u in rad and v in cur, one row each
        rows = matmul_mod(cur.basis, left, p).reshape(-1, dim)
        nxt = subspace_from_rows(rows, dim, p)
        if nxt.dim >= cur.dim:
            raise ValueError("radical filtration does not descend; not nilpotent")
        out.append(nxt)
        cur = nxt
    return out


def end_algebra(m: GradedModule) -> FiniteAlgebra:
    """The endomorphism algebra in structure constants, with its radical.

    Product convention follows composition in diagram order: the (i, j)
    entry is "apply basis map i, then basis map j".
    """
    space = gmod.hom_space(m, m)
    dim = space.dim
    p = m.p
    if dim == 0:
        return FiniteAlgebra(0, p, np.zeros((0, 0, 0), dtype=np.int64), zeros(1, 0)[0], [zero_subspace(0, p)])
    blocks = gmod.split_flat(m, m, space.basis)
    firsts = {e: blocks[e][:, sl] for e, sl in space.slots.items()}
    mult = _composite_coords(m, m, space, firsts, blocks).reshape(dim, dim, dim)
    one = coords_in_rref_basis(gmod.flatten_map(gmod.identity_map(m))[None], space)[0]
    rad = algebra_radical_subspace(dim, p, mult)
    filtration = _radical_filtration(dim, p, mult, rad)
    return FiniteAlgebra(dim, p, mult, one, filtration)


def truncated_poly_fingerprint(a: FiniteAlgebra, n: int, d: int) -> bool:
    """Does the algebra match the truncated polynomial algebra on n letters
    with relations of order d?  Checked through dimension data: total
    dimension, the whole radical filtration, vanishing of rad^d, and
    commutativity; equal dimensions force the natural surjection from the
    truncated polynomial algebra to be an isomorphism.
    """
    if d < 1:
        raise ValueError("order must be at least 1")
    if not a.is_commutative():
        return False
    expected_dims = [sum(exterior.multiset_count(n, j) for j in range(s, d)) for s in range(d + 1)]
    # the filtration ends at the zero ideal, so it continues with zeros
    fil_dims = [s.dim for s in a.rad_filtration]
    return fil_dims[: d + 1] + [0] * (d + 1 - len(fil_dims)) == expected_dims


# -- extensions over the radical-square-zero truncation ----------------------


def ext1_square_zero(mbar: GradedModule, nbar: GradedModule) -> int:
    """dim Ext^1 over the radical-square-zero algebra by the cover sequence
    0 -> Omega -> P -> mbar -> 0 there (module docstring).

    Input modules must themselves be square-zero (all double products of
    actions vanish).  P has t_d = dim mbar_d - dim rad(mbar)_d generators
    in degree d, so dim P_d = t_d + (n+1) t_(d-1).  Omega lies in rad P,
    which every variable kills, so a map Omega -> nbar lands in the socle:
    dim Hom(Omega, nbar) = sum_d dim Omega_d * dim soc(nbar)_d.
    """
    if not gmod.is_square_zero(mbar) or not gmod.is_square_zero(nbar):
        raise ValueError("ext1_square_zero expects radical-square-zero modules")
    top = {d: mbar.dim(d) - rad.dim for d, rad in next(gmod.radical_powers(mbar)).items()}
    n1 = mbar.n_plus_1
    hom_omega = sum(
        (n1 * top.get(d - 1, 0) + top.get(d, 0) - mbar.dim(d)) * soc.dim
        for d, soc in gmod.socle(nbar).items()
    )
    return hom_omega - sum(t * nbar.dim(d) for d, t in top.items()) + hom_dim(mbar, nbar)
