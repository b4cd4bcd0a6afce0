"""
Homological operators: minimal projective covers, syzygies and cosyzygies,
Betti tables, radical-compatibility of submodules (by dimension additivity
over m/L), regular sequences, complexity estimates, and the translate
Omega^2(-)(n+1).

Everything is exact.  Projective covers choose generators lifting the
standard complement of the radical, so resolutions are minimal by
construction and syzygies never acquire free summands.

Betti tables build no syzygy: Tor^E_i(M, k) is the homology of the
Cartan complex M ⊗ Gamma_i(V), whose basis is the divided-power monomials
y^(a), a a multiset of i letters, and whose differential sends v ⊗ y^(a)
to sum_l v·x_l ⊗ y^(a - e_l).  Every coefficient is 1, so E ⊗ Gamma(V)
resolves k in every characteristic; with symmetric powers the coefficients
a_l vanish mod p once an exponent reaches p.  minimal_resolution first
changes rings: a regular sequence of linear forms is dropped, so M is
resolved as M/UM over the exterior algebra on V/U, U the forms' span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import exterior, gmod
from .gmod import GradedModule, ModuleMap
from .linalg import (
    Subspace,
    coords_in_rref_basis,
    identity,
    left_kernel_basis,
    matmul_mod,
    rref,
    solve,
    subspace_from_rows,
    zeros,
)

DEFAULT_DEPTH = 12
REGULAR_SEARCH_TRIALS = 64


class FreeModuleError(ValueError):
    """Raised when an operation requires a module with no free behaviour."""


def projective_cover(
    m: GradedModule, gens: dict[int, np.ndarray] | None = None
) -> tuple[GradedModule, ModuleMap]:
    """Minimal free cover: one generator per basis slot of m modulo radical.

    gens is gmod.top_generators(m), {degree: slots}; a caller that already
    holds it passes it.  Generator k of degree d goes to the unit vector at
    gens[d][k], and the epi's blocks are those unit vectors' words
    (gmod.generator_words).
    """
    if gens is None:
        gens = gmod.top_generators(m)
    cover = gmod.free_module(m.n_plus_1, m.p, [d for d, sl in gens.items() for _ in sl])
    epi = ModuleMap(cover, m, gmod.generator_words(m, {d: identity(m.dim(d))[sl] for d, sl in gens.items()}))
    return cover, epi


def kernel_submodule(f: ModuleMap) -> tuple[GradedModule, ModuleMap]:
    """The kernel of a module map with its inclusion."""
    spans: dict[int, Subspace] = {}
    for d in f.source.degrees:
        spans[d] = left_kernel_basis(f.block(d), f.source.p)
    sub, incl = gmod.submodule_from_subspaces(f.source, spans)
    return sub, incl


def syzygy_step(
    m: GradedModule, gens: dict[int, np.ndarray] | None = None
) -> tuple[GradedModule, ModuleMap, GradedModule, ModuleMap]:
    """(syzygy, inclusion, cover, epi) for one minimal cover of m.

    gens is as in projective_cover.
    """
    cover, epi = projective_cover(m, gens)
    syz, incl = kernel_submodule(epi)
    return syz, incl, cover, epi


def syzygy(m: GradedModule, k: int = 1) -> GradedModule:
    """k-th syzygy by iterated minimal covers; free modules go to zero."""
    if k < 1:
        raise ValueError("syzygy order must be at least 1")
    cur = m
    for _ in range(k):
        cur = syzygy_step(cur)[0]
    return cur


def injective_envelope(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """Minimal injective envelope, built as the dual of a minimal cover."""
    cover, epi = projective_cover(gmod.dual(m))
    env = gmod.dual(cover)
    # the dual of epi, read as a map out of dual(dual(m)) == m
    mono = ModuleMap(m, env, {-d: b.T for d, b in epi.blocks.items()})
    return env, mono


def cosyzygy_step(m: GradedModule) -> tuple[GradedModule, ModuleMap]:
    """(cosyzygy, projection): cokernel of the minimal injective envelope."""
    env, mono = injective_envelope(m)
    spans: dict[int, Subspace] = {}
    for d in env.degrees:
        spans[d] = subspace_from_rows(mono.block(d), env.dim(d), m.p)
    quot, proj = gmod.quotient_by_subspaces(env, spans)
    return quot, proj


def cosyzygy(m: GradedModule, k: int = 1) -> GradedModule:
    """k-th cosyzygy; any free summand disappears into the envelope."""
    if k < 1:
        raise ValueError("cosyzygy order must be at least 1")
    cur = m
    for _ in range(k):
        cur = cosyzygy_step(cur)[0]
    return cur


@dataclass
class BettiTable:
    """Generator degrees of each term of a minimal free resolution."""

    depth: int
    rows: list[list[int]]  # rows[i] = sorted degrees of the i-th free term

    @property
    def betti_numbers(self) -> list[int]:
        return [len(r) for r in self.rows]

    def is_linear(self) -> bool:
        """True when row i sits entirely in degree i."""
        return all(all(d == i for d in row) for i, row in enumerate(self.rows))

    def degree_counts(self, i: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.rows[i]:
            out[d] = out.get(d, 0) + 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "betti": self.betti_numbers,
            "rows": [sorted(r) for r in self.rows],
        }

    def to_text(self) -> str:
        """Aligned table: column i, row r shows the rank of F^i in degree r+i."""
        if not self.rows:
            return "(empty)"
        cols = len(self.rows)
        slopes = sorted(
            {d - i for i, row in enumerate(self.rows) for d in row}
        ) or [0]
        header = ["      "] + [f"{i:>6}" for i in range(cols)]
        lines = ["".join(header)]
        totals = ["total:"] + [f"{len(row):>6}" for row in self.rows]
        lines.append("".join(totals))
        for s in slopes:
            cells = [f"{s:>5}:"]
            for i in range(cols):
                c = self.degree_counts(i).get(s + i, 0)
                cells.append(f"{c if c else '.':>6}")
            lines.append("".join(cells))
        return "\n".join(lines)


def _gamma_pattern(n_plus_1: int, j: int) -> np.ndarray:
    """up[l, k]: the position in Gamma_j of y^(b + e_l), b the k-th basis
    element of Gamma_{j-1}.  Each y^(a) is the sorted letter tuple a from
    combinations_with_replacement, so b + e_l inserts one l into b; every
    (a, l) with a_l > 0 comes from exactly one (b, l)."""
    upper = {a: k for k, a in enumerate(combinations_with_replacement(range(n_plus_1), j))}
    lower = list(combinations_with_replacement(range(n_plus_1), j - 1))
    return np.array([[upper[tuple(sorted(b + (l,)))] for b in lower] for l in range(n_plus_1)])


def _cartan_differential(m: GradedModule, s: int, j: int, up: np.ndarray) -> np.ndarray:
    """d on M_s ⊗ Gamma_j -> M_{s+1} ⊗ Gamma_{j-1}: v ⊗ y^(a) goes to sum_l
    v·x_l ⊗ y^(a - e_l), so block (up[l, k], k) of up = _gamma_pattern(n_plus_1, j)
    is x_l's action.  Rows are indexed (a, basis of M_s), columns (b, basis of M_{s+1})."""
    sizes = [exterior.multiset_count(m.n_plus_1, i) for i in (j, j - 1)]
    blocks = np.zeros((sizes[0], m.dim(s), sizes[1], m.dim(s + 1)), dtype=np.int64)
    for x, src in enumerate(up):
        blocks[src, :, np.arange(sizes[1]), :] = m.action(x, s)
    return blocks.reshape(sizes[0] * m.dim(s), -1)


def _cartan_rows(m: GradedModule, depth: int) -> list[list[int]]:
    """Rows 0..depth as the homology of the Cartan complex M ⊗ Gamma.

    beta_{i,t} = dim C_i(t) - rank d_i(t) - rank d_{i+1}(t) with
    C_i(t) = M_{t-i} ⊗ Gamma_i; each differential's rank is computed once.
    A module in one degree has no differential, so no Gamma_j is built.
    """
    steps = [s for s in m.degrees if m.dim(s + 1)]
    rank: dict[tuple[int, int], int] = {}  # (j, s): rank of d_j on M_s ⊗ Gamma_j
    for j in range(1, depth + 2) if steps else ():
        up = _gamma_pattern(m.n_plus_1, j)
        for s in steps:
            rank[j, s] = rref(_cartan_differential(m, s, j, up), m.p)[0]
    rows = []
    for i in range(depth + 1):
        size = exterior.multiset_count(m.n_plus_1, i)
        beta = {s: m.dim(s) * size - rank.get((i, s), 0) - rank.get((i + 1, s - 1), 0) for s in m.degrees}
        rows.append([s + i for s, b in beta.items() for _ in range(b)])
    return rows


def _reduced_table(
    m: GradedModule, depth: int, forms: list[np.ndarray], quot: GradedModule
) -> BettiTable:
    """The table of m from _regular_steps' forms and quotient: quot over the
    exterior algebra on V/U, U the forms' span, whose variables are the
    x_c for the non-pivot columns c of RREF(forms)."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if len(forms) == m.n_plus_1:
        # U = V: m is free on the degrees of m/Jm (none for the zero module)
        rows = [[d for d in quot.degrees for _ in range(quot.dim(d))]]
        rows += [[] for _ in range(depth)]
    else:
        pivots = rref(np.array(forms).reshape(-1, m.n_plus_1), m.p)[2]
        keep = [c for c in range(m.n_plus_1) if c not in pivots]
        small = GradedModule(len(keep), m.p, quot.dims, [quot.actions[c] for c in keep])
        rows = _cartan_rows(small, depth)
    return BettiTable(depth, rows)


def minimal_resolution(m: GradedModule, depth: int = DEFAULT_DEPTH) -> BettiTable:
    """Generator degrees of the minimal free resolution up to F^depth.

    If a linear form l acts exactly on M then Tor^E_i(M, k)_j =
    Tor^{E/l}_i(M/lM, k)_j, so M is resolved as M/UM over the exterior
    algebra on V/U, U the span of a regular sequence.  Every form is
    certified by the exact regular_element_test and any certified sequence
    gives the same rows; the seeded search only decides how many variables
    are saved.  A complexity-one module drops to one variable and a free
    module to its generators.  What is left has maximal complexity when the
    search found a maximal sequence, so its syzygies grow like its Betti
    numbers; _cartan_rows reads its rows off the Cartan complex and builds
    none of them.
    """
    return _reduced_table(m, depth, *_regular_steps(m))


def lowest_step(m: GradedModule):
    """Split off the submodule generated by the lowest-degree piece.

    Returns (L, incl, N, proj) with N = m/L.
    """
    if m.is_zero():
        raise ValueError("lowest_step of the zero module")
    d0 = m.min_deg
    return gmod.sub_quotient(m, {d0: identity(m.dim(d0))})


def is_relative_sub(m: GradedModule, incl: ModuleMap) -> bool:
    """Radical-compatibility of a submodule L: mJ^k meets L in exactly LJ^k.

    The projection onto N = m/L maps mJ^k onto NJ^k with kernel mJ^k ∩ L,
    which contains LJ^k, so mJ^k ∩ L = LJ^k exactly when
    dim mJ^k = dim LJ^k + dim NJ^k in every degree.  Each term's powers come
    from its own radical_powers, and a term whose powers have ended reads as
    zero; the check runs until mJ^k = 0.
    """
    image = {d: subspace_from_rows(incl.block(d), m.dim(d), m.p) for d in incl.source.degrees}
    l_powers = gmod.radical_powers(incl.source)
    n_powers = gmod.radical_powers(gmod.quotient_by_subspaces(m, image)[0])
    for m_power in gmod.radical_powers(m):
        l_power, n_power = next(l_powers, {}), next(n_powers, {})
        for d, s in m_power.items():
            if s.dim != sum(t[d].dim for t in (l_power, n_power) if d in t):
                return False
    return True


def regular_element_test(m: GradedModule, form) -> bool:
    """Exactness of right multiplication by the form, degree by degree."""
    form = np.asarray(form, dtype=np.int64) % m.p
    if not form.any():
        raise ValueError("the zero form is never regular")
    img_rank = 0  # the image in degree d, zero below a gap in the degrees
    for d in m.degrees:
        cur = m.form_action(form, d)
        cur_rank = rref(cur, m.p)[0]
        if m.dim(d) - cur_rank != img_rank:
            return False
        img_rank = cur_rank
    return True


def quotient_by_form_image(m: GradedModule, form) -> GradedModule:
    """m / (m·v) for a linear form v; the image family is action-stable."""
    p = m.p
    form = np.asarray(form, dtype=np.int64) % p
    spans: dict[int, Subspace] = {}
    for d in m.degrees:
        mat = m.form_action(form, d - 1) if m.dim(d - 1) else zeros(0, m.dim(d))
        spans[d] = subspace_from_rows(mat, m.dim(d), p)
    quot, _ = gmod.quotient_by_subspaces(m, spans)
    return quot


@dataclass
class ComplexityEstimate:
    """Two independent complexity measurements and their evidence."""

    cx_regseq: int
    cx_betti: int | None  # None means the Betti window did not settle
    table: BettiTable  # the resolution the Betti route read
    regular_sequence: list[np.ndarray] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "cx_regseq": self.cx_regseq,
            "cx_betti": self.cx_betti if self.cx_betti is not None else "UNKNOWN",
            "depth_used": self.table.depth,
            "regular_sequence": [[int(x) for x in v] for v in self.regular_sequence],
            "betti": self.table.betti_numbers,
        }


def betti_complexity(table: BettiTable, n_plus_1: int) -> int | None:
    """Growth degree of the upper half of the Betti numbers; None if unsettled."""
    vals = table.betti_numbers[(table.depth + 1) // 2 :]
    if len(vals) >= 2 and not any(vals):
        return 0
    for g in range(n_plus_1):
        if len(vals) < 2:
            return None
        if all(v == vals[0] for v in vals):
            return g + 1
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return None


def _regular_steps(m: GradedModule, seed: int = 0) -> tuple[list[np.ndarray], GradedModule]:
    """(regular_sequence(m, seed), m modulo the images of its forms)."""
    n1 = m.n_plus_1
    rng = np.random.default_rng(seed)
    cur = m
    seq: list[np.ndarray] = []
    while len(seq) < n1:
        if cur.is_zero():
            # every form is regular on the zero module
            v = np.zeros(n1, dtype=np.int64)
            v[0] = 1
            seq.append(v)
            continue
        # l exact on N gives dim N_d = rank l|N_d + rank l|N_{d-1}, so the
        # alternating sum of dims vanishes: otherwise no form is regular
        if sum(-c if d % 2 else c for d, c in cur.dims.items()):
            break
        found = None
        for _ in range(REGULAR_SEARCH_TRIALS):
            v = rng.integers(0, m.p, n1, dtype=np.int64)
            if not v.any():
                continue
            if regular_element_test(cur, v):
                found = v
                break
        if found is None:
            break
        seq.append(found)
        cur = quotient_by_form_image(cur, found)
    return seq, cur


def regular_sequence(m: GradedModule, seed: int = 0) -> list[np.ndarray]:
    """A maximal regular sequence of linear forms, found greedily (seeded).

    At each step the search samples linear forms and keeps the first one
    acting exactly on the current quotient; a quotient whose dimensions
    have a nonzero alternating sum has none and is not sampled.  Over a
    large field a generic form is regular whenever any form is, so the
    greedy length is the maximal one with overwhelming probability; the
    complexity of m is n_plus_1 minus that length.
    """
    return _regular_steps(m, seed)[0]


def complexity(m: GradedModule, depth: int = DEFAULT_DEPTH, seed: int = 0) -> ComplexityEstimate:
    """Complexity by both routes, regular_sequence and betti_complexity,
    from one search: the resolution drops the same forms."""
    seq, quot = _regular_steps(m, seed)
    table = _reduced_table(m, depth, seq, quot)
    return ComplexityEstimate(
        cx_regseq=m.n_plus_1 - len(seq),
        cx_betti=betti_complexity(table, m.n_plus_1),
        table=table,
        regular_sequence=seq,
    )


def ar_translate(m: GradedModule) -> GradedModule:
    """Omega^2 of the module, shifted by the number of variables."""
    syz1, _, _, _ = syzygy_step(m)
    if syz1.is_zero():
        raise FreeModuleError("translate of a free module is undefined")
    syz2 = syzygy_step(syz1)[0]
    return gmod.shift(syz2, m.n_plus_1)


def lift_through_cover(free: GradedModule, images: dict[int, np.ndarray], epi: ModuleMap) -> ModuleMap:
    """A map free -> epi's source whose composite with epi sends the
    degree-g generators to the rows of images[g] in epi's target.

    free is the free module on images' generators.  One solve per degree
    finds preimages of every image of that degree under epi, and the lift's
    blocks are the preimages' words (gmod.generator_words), so it is a
    genuine module map.
    """
    pre = {}
    for g, img in images.items():
        x = solve(epi.block(g).T, img.T, free.p)
        if x is None:
            raise ValueError("cannot lift through a non-surjective cover")
        pre[g] = x.T
    return ModuleMap(free, epi.source, gmod.generator_words(epi.source, pre))


def syzygy_of_ses(incl: ModuleMap, proj: ModuleMap):
    """Induced maps on syzygies of a short exact sequence A -> B -> C.

    Generator k of degree d of A's cover goes to row gens_a[d][k] of incl's
    block, lifted through B's cover; B's generators go through proj to C
    the same way.  The lifts restrict to the syzygies.  Returns (incl_s,
    proj_s, exact) where exact reports whether the induced sequence of
    syzygies is again short exact degree-wise.
    """
    a, b, c = incl.source, incl.target, proj.target
    p = a.p
    gens_a, gens_b = gmod.top_generators(a), gmod.top_generators(b)
    _, incl_a, cover_a, _ = syzygy_step(a, gens_a)
    _, incl_b, cover_b, epi_b = syzygy_step(b, gens_b)
    _, incl_c, _, epi_c = syzygy_step(c)

    lift_ab = lift_through_cover(cover_a, {d: incl.block(d)[sl] for d, sl in gens_a.items()}, epi_b)
    lift_bc = lift_through_cover(cover_b, {d: proj.block(d)[sl] for d, sl in gens_b.items()}, epi_c)

    # restrict to kernels, checking each block where it is built
    def restrict(big: ModuleMap, sub_incl: ModuleMap, tgt_incl: ModuleMap) -> ModuleMap:
        """big on sub_incl's source, as a map into tgt_incl's source."""
        blocks = {}
        for d in sub_incl.source.degrees:
            moved = matmul_mod(sub_incl.block(d), big.block(d), p)
            # the inclusion block is a kernel basis, already in RREF
            coords = coords_in_rref_basis(moved, Subspace(big.target.dim(d), tgt_incl.block(d), p))
            if coords is None:
                raise ValueError("restriction does not land in the target kernel")
            blocks[d] = coords
        return ModuleMap(sub_incl.source, tgt_incl.source, blocks)

    incl_s = restrict(lift_ab, incl_a, incl_b)
    proj_s = restrict(lift_bc, incl_b, incl_c)
    return incl_s, proj_s, gmod.is_short_exact(incl_s, proj_s)
