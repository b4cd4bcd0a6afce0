"""
Hom and Ext in the graded and stable categories, endomorphism algebras,
and first extensions over the radical-square-zero truncation.

Stable Hom is the Hom space modulo maps factoring through a projective.
Because the algebra is self-injective, those are exactly the maps
extending over the minimal injective envelope of the source, which is how
the projectively-trivial subspace is computed here; the route through a
projective cover of the target is also provided and the two are checked
against each other in the test suite.

A Hom space is the Subspace gmod.hom_space returns, the RREF basis of its
flattened maps: dimensions and coordinates are read from its rows, and maps
are built only where a composite or a caller needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import gmod, homology
from .gmod import GradedModule, ModuleMap
from .linalg import (
    Subspace,
    coords_in_rref_basis,
    kernel_basis,
    matmul_mod,
    rref,
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

    def coords_of(self, f: ModuleMap) -> np.ndarray:
        return _coords(self.space, [f])[0]


def _coords(space: Subspace, maps: list[ModuleMap]) -> np.ndarray:
    """Coordinates of maps in the RREF basis of their flattened Hom space."""
    flats = np.array([gmod.flatten_map(f) for f in maps], dtype=np.int64)
    coords = coords_in_rref_basis(flats.reshape(len(maps), space.ambient), space)
    if coords is None:
        raise ValueError("map is not in the Hom space")
    return coords


def factor_through_projectives(
    m: GradedModule, n: GradedModule, space: Subspace | None = None
) -> Subspace:
    """Maps m -> n factoring through a projective, in Hom-basis coordinates.

    space is gmod.hom_space(m, n), computed when not given.  The subspace
    is { g∘ι : g ∈ Hom(I(m), n) } for ι the minimal injective envelope of
    the source; every projective factorization extends over ι by
    injectivity, so this is the whole subspace.
    """
    if space is None:
        space = gmod.hom_space(m, n)
    if not space.dim:
        return zero_subspace(0, m.p)
    env, mono = homology.injective_envelope(m)
    composites = [gmod.map_compose(mono, g) for g in gmod.hom_space_maps(env, n)]
    return subspace_from_rows(_coords(space, composites), space.dim, m.p)


def factor_through_projectives_via_cover(
    m: GradedModule, n: GradedModule, space: Subspace | None = None
) -> Subspace:
    """Same subspace computed through the projective cover of the target."""
    if space is None:
        space = gmod.hom_space(m, n)
    if not space.dim:
        return zero_subspace(0, m.p)
    cover, epi = homology.projective_cover(n)
    composites = [gmod.map_compose(h, epi) for h in gmod.hom_space_maps(m, cover)]
    return subspace_from_rows(_coords(space, composites), space.dim, m.p)


def hom_basis(m: GradedModule, n: GradedModule) -> HomSpace:
    """The degree-zero Hom space with its projectively-trivial subspace."""
    space = gmod.hom_space(m, n)
    return HomSpace(m, n, space, factor_through_projectives(m, n, space))


def hom_dim(m: GradedModule, n: GradedModule) -> int:
    return gmod.hom_space(m, n).dim


def stable_hom_dim(m: GradedModule, n: GradedModule) -> int:
    return hom_basis(m, n).stable_dim


def ext_dim(m: GradedModule, n: GradedModule, k: int = 1) -> int:
    """dim Ext^k as stable maps out of the k-th syzygy."""
    if k < 1:
        raise ValueError("ext_dim needs k >= 1")
    return stable_hom_dim(homology.syzygy(m, k), n)


def ext_cocycles(m: GradedModule, n: GradedModule) -> tuple[GradedModule, ModuleMap, GradedModule, ModuleMap, list[ModuleMap]]:
    """First-extension data: the cover sequence of m and a basis of cocycles.

    Returns (syz, incl, cover, epi, reps) where reps are canonical stable
    representatives in Hom(syzygy, n) spanning the extension classes.
    """
    syz, incl, cover, epi = homology.syzygy_step(m)
    hs = hom_basis(syz, n)
    return syz, incl, cover, epi, hs.stable_class_reps()


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


def algebra_product(mult: np.ndarray, u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of u * v in an algebra with structure constants mult."""
    acc = zeros(1, mult.shape[0])[0]
    for i in np.nonzero(u)[0]:
        acc = (acc + int(u[i]) * matmul_mod(v.reshape(1, -1), mult[i], p).ravel()) % p
    return acc


def algebra_radical_subspace(dim: int, p: int, mult: np.ndarray) -> Subspace:
    """Jacobson radical as the radical of the trace form of left multiplication.

    Valid for p larger than the algebra dimension; guarded by DimTooLarge.
    The result is validated: it must be a two-sided ideal and nilpotent.
    """
    if dim >= p:
        raise DimTooLarge(f"algebra dimension {dim} is not below the modulus {p}")
    # mult[i] is the matrix of left multiplication by the i-th basis element
    gram = zeros(dim, dim)
    for i in range(dim):
        for j in range(i, dim):
            t = int(np.trace(matmul_mod(mult[i], mult[j], p)) % p)
            gram[i, j] = t
            gram[j, i] = t
    rad = kernel_basis(gram, p)
    # two-sided ideal check
    for r in rad.basis:
        for e in np.eye(dim, dtype=np.int64):
            left = algebra_product(mult, e, r, p)
            right = algebra_product(mult, r, e, p)
            if not rad.contains(left) or not rad.contains(right):
                raise ValueError("trace-form radical is not an ideal")
    # nilpotency check happens while building the filtration
    return rad


def _radical_filtration(dim: int, p: int, mult: np.ndarray, rad: Subspace) -> list[Subspace]:
    out = [subspace_from_rows(np.eye(dim, dtype=np.int64), dim, p), rad]
    cur = rad
    while cur.dim:
        rows = []
        for u in rad.basis:
            for v in cur.basis:
                rows.append(algebra_product(mult, u, v, p))
        nxt = subspace_from_rows(np.array(rows).reshape(len(rows), dim), dim, p)
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


def is_indecomposable(m: GradedModule) -> bool:
    """Locality of the endomorphism algebra (top residue one-dimensional)."""
    if m.is_zero():
        return False
    return end_algebra(m).is_local()


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
    expected_dims = [sum(comb(n + j - 1, j) for j in range(s, d)) for s in range(d + 1)]
    if a.dim != expected_dims[0]:
        return False
    fil_dims = [s.dim for s in a.rad_filtration]
    while len(fil_dims) < d + 1:
        fil_dims.append(fil_dims[-1])
    for s in range(d + 1):
        if fil_dims[s] != expected_dims[s]:
            return False
    return fil_dims[d] == 0


# -- extensions over the radical-square-zero truncation ----------------------


def _square_zero_cover(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Minimal cover of a square-zero module over the square-zero algebra.

    The ordinary free cover modulo its J² family, with the map the epi
    induces there: well defined because m·J² = 0.
    """
    cover, epi = homology.projective_cover(m)
    spans = gmod.radical_image(cover, gmod.radical_subspaces(cover))
    quot, _ = gmod.quotient_by_subspaces(cover, spans)
    return quot, gmod.induced_on_quotient(quot, spans, epi)


def ext1_square_zero(mbar: GradedModule, nbar: GradedModule) -> int:
    """dim Ext^1 over the radical-square-zero algebra.

    Input modules must themselves be square-zero (all double products of
    actions vanish).  The square-zero cover P0 of mbar is the ordinary
    minimal free cover modulo its J² family, with the induced epi; Ext^1 is
    the cokernel of restriction Hom(P0, nbar) -> Hom(syzygy, nbar).
    """
    if not gmod.is_square_zero(mbar) or not gmod.is_square_zero(nbar):
        raise ValueError("ext1_square_zero expects radical-square-zero modules")
    if mbar.is_zero() or nbar.is_zero():
        return 0
    cover, epi = _square_zero_cover(mbar)
    syz, incl = homology.kernel_submodule(epi)
    if syz.is_zero():
        return 0
    h1 = gmod.hom_space(syz, nbar)
    if not h1.dim:
        return 0
    restricted = [gmod.map_compose(incl, f) for f in gmod.hom_space_maps(cover, nbar)]
    return h1.dim - rref(_coords(h1, restricted), mbar.p)[0]
