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

A Hom space is the Subspace gmod.hom_space returns, the RREF basis of its
flattened maps: coordinates are read from its rows, and maps are built only
where a composite or a caller needs them.  hom_dim (gmod's) flattens no map.
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


def _coords(space: Subspace, maps: list[ModuleMap]) -> np.ndarray:
    """Coordinates of maps in the RREF basis of their flattened Hom space."""
    flats = np.array([gmod.flatten_map(f) for f in maps], dtype=np.int64)
    coords = coords_in_rref_basis(flats.reshape(len(maps), space.ambient), space)
    if coords is None:
        raise ValueError("map is not in the Hom space")
    return coords


def factor_through_projectives(m: GradedModule, n: GradedModule, space: Subspace) -> Subspace:
    """Maps m -> n factoring through a projective, in Hom-basis coordinates.

    space is gmod.hom_space(m, n).  The subspace is { g∘ι : g ∈ Hom(I(m), n) }
    for ι the minimal injective envelope of the source; every projective
    factorization extends over ι by injectivity, so this is the whole
    subspace.
    """
    if not space.dim:
        return zero_subspace(0, m.p)
    env, mono = homology.injective_envelope(m)
    composites = [
        gmod.map_compose(mono, gmod.map_from_flat(env, n, v)) for v in gmod.hom_space(env, n).basis
    ]
    return subspace_from_rows(_coords(space, composites), space.dim, m.p)


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
    return hom_dim(omega, n) - sum(n.dim(g) for g, _ in gens) + hom_dim(x, n)


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
    basis = [gmod.map_from_flat(m, m, v) for v in space.basis]
    # one row of products at a time keeps dim, not dim², composites alive
    mult = np.stack([_coords(space, [gmod.map_compose(f, g) for g in basis]) for f in basis])
    one = _coords(space, [gmod.identity_map(m)])[0]
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
