"""
Homological operators: minimal projective covers, syzygies and cosyzygies,
Betti tables, linearity and weak-Koszulness tests, regular sequences,
complexity estimates, and the translate Omega^2(-)(n+1).

Everything is exact.  Projective covers choose generators lifting the
standard complement of the radical, so resolutions are minimal by
construction and syzygies never acquire free summands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gmod
from .gmod import GradedModule, ModuleMap
from .linalg import (
    Subspace,
    full_subspace,
    left_kernel_basis,
    matmul_mod,
    rref,
    solve,
    subspace_from_rows,
    subspace_intersection,
    zero_subspace,
    zeros,
)

DEFAULT_DEPTH = 12
REGULAR_SEARCH_TRIALS = 64


class FreeModuleError(ValueError):
    """Raised when an operation requires a module with no free behaviour."""


def free_map_from_generators(
    free: GradedModule,
    gen_degrees: list[int],
    target: GradedModule,
    images: list[np.ndarray],
) -> ModuleMap:
    """The unique module map from a free module sending generators to images.

    The free basis is indexed by (generator, monomial); a monomial row is
    the row of its largest-variable predecessor pushed through that
    variable's action, which avoids any sign bookkeeping.
    """
    p = free.p
    blocks: dict[int, np.ndarray] = {}
    prev_rows: np.ndarray | None = None
    prev_index: dict[tuple[int, tuple[int, ...]], int] = {}
    for e in sorted(free.dims):
        labels = gmod.free_basis_labels(free.n_plus_1, gen_degrees, e)
        rows = zeros(len(labels), target.dim(e))
        by_last: dict[int, tuple[list[int], list[int]]] = {}
        for r, (k, mon) in enumerate(labels):
            if not mon:
                if target.dim(e):
                    rows[r] = np.asarray(images[k], dtype=np.int64) % p
            else:
                dst, src = by_last.setdefault(mon[-1], ([], []))
                dst.append(r)
                src.append(prev_index[(k, mon[:-1])])
        if target.dim(e):
            for i, (dst, src) in by_last.items():
                if prev_rows is None or prev_rows.shape[1] == 0:
                    continue
                rows[dst] = matmul_mod(prev_rows[src], target.action(i, e - 1), p)
        blocks[e] = rows
        prev_rows = rows if target.dim(e) else zeros(len(labels), target.dim(e))
        prev_index = {lab: r for r, lab in enumerate(labels)}
    return ModuleMap(free, target, blocks)


def projective_cover(
    m: GradedModule, gens: list[tuple[int, np.ndarray]] | None = None
) -> tuple[GradedModule, ModuleMap]:
    """Minimal free cover: one generator per basis slot of m modulo radical.

    A caller that already holds gmod.top_generators(m) passes it as gens.
    """
    if gens is None:
        gens = gmod.top_generators(m)
    if not gens:
        z = gmod.zero_module(m.n_plus_1, m.p)
        return z, gmod.zero_map(z, m)
    degrees = [d for d, _ in gens]
    cover = gmod.free_module(m.n_plus_1, m.p, degrees)
    epi = free_map_from_generators(cover, degrees, m, [v for _, v in gens])
    return cover, epi


def kernel_submodule(f: ModuleMap) -> tuple[GradedModule, ModuleMap]:
    """The kernel of a module map with its inclusion."""
    spans: dict[int, Subspace] = {}
    for d in f.source.degrees:
        spans[d] = left_kernel_basis(f.block(d), f.source.p)
    sub, incl = gmod.submodule_from_subspaces(f.source, spans)
    return sub, incl


def syzygy_step(
    m: GradedModule, gens: list[tuple[int, np.ndarray]] | None = None
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


def minimal_resolution(m: GradedModule, depth: int = DEFAULT_DEPTH) -> BettiTable:
    """Generator degrees of the minimal free resolution up to F^depth.

    F^i's generators are the top of Omega^i, so a depth-k resolution builds
    Omega^1 ... Omega^k and nothing beyond.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rows: list[list[int]] = []
    cur = m
    for i in range(depth + 1):
        gens = gmod.top_generators(cur)
        rows.append([d for d, _ in gens])
        if gens and i < depth:
            cur = syzygy_step(cur, gens)[0]
    return BettiTable(depth, rows)


def is_linear(m: GradedModule, depth: int = DEFAULT_DEPTH) -> bool:
    """True when row i of the resolution sits entirely in degree i.

    Strict: a module generated away from degree zero fails; use
    is_shifted_linear to test linearity up to a grading shift.
    """
    return minimal_resolution(m, depth).is_linear()


def is_shifted_linear(m: GradedModule, depth: int = DEFAULT_DEPTH) -> bool:
    """Linearity after shifting the lowest generators to degree zero."""
    if m.is_zero():
        return True
    return is_linear(gmod.shift(m, m.min_deg), depth)


def lowest_step(m: GradedModule):
    """Split off the submodule generated by the lowest-degree piece.

    Returns (L, incl, N, proj) with N = m/L.
    """
    if m.is_zero():
        raise ValueError("lowest_step of the zero module")
    d0 = m.min_deg
    gens = []
    for c in range(m.dim(d0)):
        v = zeros(1, m.dim(d0))[0]
        v[c] = 1
        gens.append((d0, v))
    sub, incl, quot, proj = gmod.sub_quotient(m, gens)
    return sub, incl, quot, proj


def is_relative_sub(m: GradedModule, incl: ModuleMap) -> bool:
    """Radical-compatibility of a submodule: mJ^k meets it in exactly LJ^k."""
    sub = incl.source
    p = m.p
    m_power = {d: full_subspace(m.dim(d), p) for d in m.degrees}
    l_power = {d: full_subspace(sub.dim(d), p) for d in sub.degrees}
    image_l = {d: subspace_from_rows(incl.block(d), m.dim(d), p) for d in m.degrees}
    loewy = (m.max_deg - m.min_deg + 2) if m.dims else 0
    for _ in range(loewy + 1):
        for d in m.degrees:
            lp = l_power.get(d)
            if lp is not None and lp.dim:
                pushed = subspace_from_rows(
                    matmul_mod(lp.basis, incl.block(d), p), m.dim(d), p
                )
            else:
                pushed = zero_subspace(m.dim(d), p)
            meet = subspace_intersection(m_power[d], image_l[d])
            if meet != pushed:
                return False
        m_power = gmod.radical_image(m, m_power)
        l_power = gmod.radical_image(sub, l_power)
    return True


def is_weakly_koszul(m: GradedModule, depth: int = DEFAULT_DEPTH) -> bool:
    """Iterated check: peel lowest-degree layers, each a shifted linear
    module sitting inside via a radical-compatible extension."""
    cur = m
    while not cur.is_zero():
        sub, incl, quot, _ = lowest_step(cur)
        if not is_shifted_linear(sub, depth):
            return False
        if not is_relative_sub(cur, incl):
            return False
        if sub.dims == cur.dims:
            return True
        cur = quot
    return True


def regular_element_test(m: GradedModule, form) -> bool:
    """Exactness of right multiplication by the form, degree by degree."""
    form = np.asarray(form, dtype=np.int64) % m.p
    if not form.any():
        raise ValueError("the zero form is never regular")
    if m.is_zero():
        return True
    img_rank = 0  # the image in the lowest degree
    for d in range(m.min_deg, m.max_deg + 1):
        cur = m.form_action(form, d)
        cur_rank = rref(cur, m.p)[0] if cur.size else 0
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
    depth_used: int
    regular_sequence: list[np.ndarray] = field(default_factory=list)
    betti_numbers: list[int] = field(default_factory=list)

    @property
    def agree(self) -> bool:
        return self.cx_betti is not None and self.cx_betti == self.cx_regseq

    def to_json_dict(self) -> dict:
        return {
            "cx_regseq": self.cx_regseq,
            "cx_betti": self.cx_betti if self.cx_betti is not None else "UNKNOWN",
            "depth_used": self.depth_used,
            "regular_sequence": [[int(x) for x in v] for v in self.regular_sequence],
            "betti": self.betti_numbers,
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


def regular_sequence(m: GradedModule, seed: int = 0) -> list[np.ndarray]:
    """A maximal regular sequence of linear forms, found greedily (seeded).

    At each step the search samples linear forms and keeps the first one
    acting exactly on the current quotient.  Over a large field a generic
    form is regular whenever any form is, so the greedy length is the
    maximal one with overwhelming probability; the complexity of m is
    n_plus_1 minus that length.
    """
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
    return seq


def complexity(m: GradedModule, depth: int = DEFAULT_DEPTH, seed: int = 0) -> ComplexityEstimate:
    """Complexity by both routes: regular_sequence and betti_complexity."""
    seq = regular_sequence(m, seed)
    table = minimal_resolution(m, depth)
    return ComplexityEstimate(
        cx_regseq=m.n_plus_1 - len(seq),
        cx_betti=betti_complexity(table, m.n_plus_1),
        depth_used=depth,
        regular_sequence=seq,
        betti_numbers=table.betti_numbers,
    )


def ar_translate(m: GradedModule) -> GradedModule:
    """Omega^2 of the module, shifted by the number of variables."""
    syz1, _, _, _ = syzygy_step(m)
    if syz1.is_zero():
        raise FreeModuleError("translate of a free module is undefined")
    syz2 = syzygy_step(syz1)[0]
    return gmod.shift(syz2, m.n_plus_1)


def lift_through_cover(f: ModuleMap, cover_degrees: list[int], epi: ModuleMap) -> ModuleMap:
    """Lift f through a surjection: f's free source maps into epi's source.

    f's source must be the free module on cover_degrees.  Each generator is
    sent to a solved preimage of its image, then extended freely, so the
    lift is a genuine module map with lift∘epi = f.
    """
    p = f.source.p
    gens = sorted(cover_degrees)
    images: list[np.ndarray] = []
    for k, g in enumerate(gens):
        # generator k is the row labelled (k, empty monomial) in degree g
        r = gmod.free_basis_labels(f.source.n_plus_1, gens, g).index((k, ()))
        pre = solve(epi.block(g).T, f.block(g)[r], p)
        if pre is None:
            raise ValueError("cannot lift through a non-surjective cover")
        images.append(pre)
    return free_map_from_generators(f.source, gens, epi.source, images)


def syzygy_of_ses(incl: ModuleMap, proj: ModuleMap):
    """Induced maps on syzygies of a short exact sequence A -> B -> C.

    Returns (incl_s, proj_s, exact) where exact reports whether the induced
    sequence of syzygies is again short exact degree-wise.
    """
    a, b, c = incl.source, incl.target, proj.target
    p = a.p
    gens_a, gens_b = gmod.top_generators(a), gmod.top_generators(b)
    _, incl_a, _, epi_a = syzygy_step(a, gens_a)
    _, incl_b, _, epi_b = syzygy_step(b, gens_b)
    _, incl_c, _, epi_c = syzygy_step(c)
    degrees_a = [d for d, _ in gens_a]
    degrees_b = [d for d, _ in gens_b]
    # lift cover_a -> B through epi_b, and cover_b -> C through epi_c
    lift_ab = lift_through_cover(gmod.map_compose(epi_a, incl), degrees_a, epi_b)
    lift_bc = lift_through_cover(gmod.map_compose(epi_b, proj), degrees_b, epi_c)

    # restrict to kernels, checking each block where it is built
    def restrict(big: ModuleMap, sub_incl: ModuleMap, tgt_incl: ModuleMap) -> ModuleMap:
        """big on sub_incl's source, as a map into tgt_incl's source."""
        blocks = {}
        for d in sub_incl.source.degrees:
            moved = matmul_mod(sub_incl.block(d), big.block(d), p)
            # the inclusion block is a kernel basis, already in RREF
            emb = tgt_incl.block(d)
            blocks[d] = moved[:, Subspace(big.target.dim(d), emb, p).pivots]
            if not np.array_equal(matmul_mod(blocks[d], emb, p), moved):
                raise ValueError("restriction does not land in the target kernel")
        return ModuleMap(sub_incl.source, tgt_incl.source, blocks)

    incl_s = restrict(lift_ab, incl_a, incl_b)
    proj_s = restrict(lift_bc, incl_b, incl_c)
    return incl_s, proj_s, gmod.is_short_exact(incl_s, proj_s)
