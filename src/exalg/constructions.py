"""
Named module constructions: point modules cut out by linear forms,
quotients by coordinate subspaces, tensor products with the graded sign
rule, extension realization (pushout along a cocycle), universal
extensions, the filtration projectives built two independent ways, the
almost-split middle term over a point module, the syzygy family of the
simple module over two variables, and the refinement of a complexity-one
module into point-module layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from . import exterior, gmod, homalg, homology
from .gmod import GradedModule, ModuleMap
from .linalg import (
    full_subspace,
    inv_mod,
    kernel_basis,
    left_kernel_basis,
    matmul_mod,
    rref,
    zeros,
)


class DependentForms(ValueError):
    pass


class NotComplexityOne(ValueError):
    pass


def _completion_to_basis(forms: np.ndarray, p: int) -> np.ndarray:
    """Extend independent rows to an invertible matrix, deterministically."""
    k, n1 = forms.shape
    rows = [f % p for f in forms]
    mat = np.array(rows, dtype=np.int64).reshape(k, n1)
    for e in range(n1):
        if len(rows) == n1:
            break
        cand = np.zeros(n1, dtype=np.int64)
        cand[e] = 1
        test = np.vstack([np.array(rows), cand.reshape(1, -1)])
        if rref(test, p)[0] == len(rows) + 1:
            rows.append(cand)
    return np.array(rows, dtype=np.int64)


def _coordinate_span_quotient(n_plus_1: int, p: int, k: int) -> GradedModule:
    """R modulo the ideal of the first k coordinate forms.

    This is the free rank-one module over the remaining letters, on which
    the first k variables act by zero.
    """
    if k == n_plus_1:
        return gmod.simple_module(n_plus_1, p)
    rest = gmod.free_module(n_plus_1 - k, p, [0])
    return GradedModule(n_plus_1, p, rest.dims, [{}] * k + rest.actions)


def span_quotient(n_plus_1: int, forms, p: int) -> GradedModule:
    """R modulo the two-sided ideal of a span of independent linear forms."""
    mat = np.asarray(forms, dtype=np.int64) % p
    if mat.size and (mat.ndim != 2 or mat.shape[1] != n_plus_1):
        raise ValueError(f"forms must be rows of {n_plus_1} coefficients, got shape {mat.shape}")
    mat = mat.reshape(-1, n_plus_1)
    k = mat.shape[0]
    if k == 0:
        return gmod.free_module(n_plus_1, p, [0])
    if rref(mat, p)[0] != k:
        raise DependentForms("the given linear forms are dependent")
    base = _coordinate_span_quotient(n_plus_1, p, k)
    completion = _completion_to_basis(mat, p)
    # with A = completion^{-1}, each given form composed with the
    # substitution becomes a coordinate form killed by the base module
    cinv = _invert(completion, p)
    return gmod.transport(base, cinv)


def _invert(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    aug = np.hstack([a % p, np.eye(n, dtype=np.int64)])
    rank, red, piv = rref(aug, p)
    if rank != n or piv != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:]


def point_module(n_plus_1: int, form, p: int) -> GradedModule:
    """The cyclic module annihilated by one nonzero linear form."""
    f = np.asarray(form, dtype=np.int64) % p
    if not f.any():
        raise ValueError("point modules need a nonzero form")
    return span_quotient(n_plus_1, f.reshape(1, -1), p)


def zero_action_forms(m: GradedModule) -> np.ndarray:
    """RREF basis of the linear forms acting by zero on the whole module."""
    p = m.p
    cols = []
    for i in range(m.n_plus_1):
        cols.append(np.concatenate([m.action(i, d).ravel() for d in m.degrees]) if m.dims else zeros(1, 0)[0])
    mat = np.stack(cols) if cols else zeros(0, 0)
    return kernel_basis(mat.T, p).basis if mat.size else kernel_basis(zeros(0, m.n_plus_1), p).basis


def tensor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Graded tensor product over the ground field.

    Degree-k part is the sum of m_i ⊗ n_{k-i}; a variable acts on a pure
    tensor by acting on the left factor with the sign (-1)^(degree of the
    right factor), plus acting on the right factor unsigned.
    """
    gmod._check_compatible(m, n)
    p = m.p
    if m.is_zero() or n.is_zero():
        return gmod.zero_module(m.n_plus_1, p)
    pairs: dict[int, list[tuple[int, int]]] = {}
    for k in range(m.min_deg + n.min_deg, m.max_deg + n.max_deg + 1):
        row = [(i, k - i) for i in m.degrees if n.dim(k - i)]
        if row:
            pairs[k] = row
    dims = {k: sum(m.dim(i) * n.dim(j) for i, j in row) for k, row in pairs.items()}
    offsets: dict[int, dict[tuple[int, int], int]] = {}
    for k, row in pairs.items():
        ofs = 0
        offsets[k] = {}
        for i, j in row:
            offsets[k][(i, j)] = ofs
            ofs += m.dim(i) * n.dim(j)
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(m.n_plus_1)]
    for t in range(m.n_plus_1):
        for k in pairs:
            if not dims.get(k) or not dims.get(k + 1):
                continue
            mat = zeros(dims[k], dims[k + 1])
            for i, j in pairs[k]:
                src = offsets[k][(i, j)]
                blk_rows = m.dim(i) * n.dim(j)
                # left-factor action, signed by the right factor's degree
                if m.dim(i + 1) and (i + 1, j) in offsets.get(k + 1, {}):
                    dst = offsets[k + 1][(i + 1, j)]
                    sign = -1 if j % 2 else 1
                    piece = (sign * np.kron(m.action(t, i), np.eye(n.dim(j), dtype=np.int64))) % p
                    mat[src : src + blk_rows, dst : dst + m.dim(i + 1) * n.dim(j)] = piece
                # right-factor action, unsigned
                if n.dim(j + 1) and (i, j + 1) in offsets.get(k + 1, {}):
                    dst = offsets[k + 1][(i, j + 1)]
                    piece = np.kron(np.eye(m.dim(i), dtype=np.int64), n.action(t, j)) % p
                    cur = mat[src : src + blk_rows, dst : dst + m.dim(i) * n.dim(j + 1)]
                    mat[src : src + blk_rows, dst : dst + m.dim(i) * n.dim(j + 1)] = (cur + piece) % p
            actions[t][k] = mat
    return GradedModule(m.n_plus_1, p, dims, actions)


@dataclass
class ExtClass:
    """A first-extension class presented as a cocycle out of the syzygy."""

    quotient: GradedModule  # X
    sub: GradedModule  # M
    syz: GradedModule  # ΩX
    syz_incl: ModuleMap  # ΩX -> P
    cover: GradedModule  # P
    epi: ModuleMap  # P -> X
    cocycle: ModuleMap  # ΩX -> M


@dataclass
class Extension:
    sub: GradedModule
    middle: GradedModule
    quot: GradedModule
    incl: ModuleMap
    proj: ModuleMap

    def degreewise_exact(self) -> bool:
        return gmod.is_short_exact(self.incl, self.proj)


def ext_class_basis(x: GradedModule, m: GradedModule) -> list[ExtClass]:
    """Canonical basis of first-extension classes of x by m."""
    syz, incl, cover, epi, reps = homalg.ext_cocycles(x, m)
    return [ExtClass(x, m, syz, incl, cover, epi, r) for r in reps]


def realize_ext(c: ExtClass) -> Extension:
    """Pushout of the cover sequence of X along the cocycle.

    The middle term is (M ⊕ P) modulo the antidiagonal copy of the syzygy;
    the sequence M -> E -> X it fits in is degree-wise exact and splits
    exactly when the class is stably trivial.
    """
    p = c.sub.p
    total, (inc_m, _), (_, pr_p) = gmod.direct_sum(c.sub, c.cover)
    seeds: dict[int, list[np.ndarray]] = {}
    for d in c.syz.degrees:
        rows = np.hstack([
            c.cocycle.block(d),
            (-c.syz_incl.block(d)) % p,
        ])
        seeds.setdefault(d, []).extend(rows)
    spans = gmod._closure_subspaces(total, seeds)
    for d, s in spans.items():
        if s.dim != c.syz.dim(d):
            raise ValueError("antidiagonal image is not degreewise embedded")
    middle, proj_to_mid = gmod.quotient_by_subspaces(total, spans)
    incl = gmod.map_compose(inc_m, proj_to_mid)
    # the map E -> X induced by (m, q) -> epi(q): well-defined as the
    # antidiagonal maps to epi(incl(z)) = 0
    proj = gmod.induced_on_quotient(middle, spans, gmod.map_compose(pr_p, c.epi))
    return Extension(c.sub, middle, c.quotient, incl, proj)


def universal_extension(x: GradedModule, m: GradedModule):
    """Middle term realizing a full basis of first extensions of x by m.

    Returns (Extension, classes); the submodule is one copy of m per basis
    class, and pushing the combined cocycle out along each coordinate
    projection recovers that class.
    """
    classes = ext_class_basis(x, m)
    a = len(classes)
    if a == 0:
        z = gmod.zero_module(x.n_plus_1, x.p)
        ext = Extension(z, x, x, gmod.zero_map(z, x), gmod.identity_map(x))
        return ext, classes
    power = gmod.direct_sum(*[m] * a)[0]
    base = classes[0]
    stacked_blocks = {}
    for d in base.syz.degrees:
        stacked_blocks[d] = np.hstack([c.cocycle.block(d) for c in classes]) if power.dim(d) else zeros(base.syz.dim(d), 0)
    cocycle = ModuleMap(base.syz, power, stacked_blocks)
    combined = ExtClass(x, power, base.syz, base.syz_incl, base.cover, base.epi, cocycle)
    return realize_ext(combined), classes


def filtration_projective(n: int, d: int, p: int) -> GradedModule:
    """The length-d filtration projective over the point module of x_0,
    built inductively by universal extensions."""
    if d < 1:
        raise ValueError("the filtration projective needs d >= 1")
    xi = np.zeros(n + 1, dtype=np.int64)
    xi[0] = 1
    m = point_module(n + 1, xi, p)
    cur = m
    for _ in range(d - 1):
        cur = universal_extension(cur, m)[0].middle
    return cur


def _multisets(n: int, size: int) -> list[tuple[int, ...]]:
    return list(combinations_with_replacement(range(1, n + 1), size))


def filtration_projective_explicit(n: int, d: int, p: int) -> GradedModule:
    """The same module from its closed-form presentation.

    Basis: e_w ⊗ a with w a multiset of at most d-1 letters from {1..n}
    and a an exterior monomial in x_1..x_n.  Letters act by signed wedge
    on a; x_0 sends e_w ⊗ a to (-1)^|a| Σ_r e_{w+r} ⊗ (x_r ∧ a) and kills
    the deepest layer |w| = d-1.
    """
    if d < 1:
        raise ValueError("the filtration projective needs d >= 1")
    n_plus_1 = n + 1
    words: list[tuple[int, ...]] = []
    for s in range(d):
        words.extend(_multisets(n, s))
    word_index = {w: k for k, w in enumerate(words)}
    mons = [exterior.basis_of_degree(n, j) for j in range(n + 1)]
    # relabel monomials into letters 1..n
    mons = [[tuple(t + 1 for t in mon) for mon in row] for row in mons]
    mon_index = [{mon: k for k, mon in enumerate(row)} for row in mons]
    dims = {j: len(words) * len(mons[j]) for j in range(n + 1) if mons[j]}
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(n_plus_1)]
    for j in range(n):
        rows, cols = dims.get(j, 0), dims.get(j + 1, 0)
        if not rows or not cols:
            continue
        width = len(mons[j])
        width1 = len(mons[j + 1])
        for r in range(1, n + 1):
            mat = actions[r].setdefault(j, zeros(rows, cols))
            for wk in range(len(words)):
                for a_idx, a in enumerate(mons[j]):
                    w = exterior.wedge(a, (r,))
                    if w is None:
                        continue
                    sign, prod = w
                    mat[wk * width + a_idx, wk * width1 + mon_index[j + 1][prod]] = sign % p
        # x_0: raise the word layer, acting on the monomial by left wedge
        mat0 = actions[0].setdefault(j, zeros(rows, cols))
        for wk, word in enumerate(words):
            if len(word) == d - 1:
                continue
            for a_idx, a in enumerate(mons[j]):
                sign_a = -1 if j % 2 else 1
                for r in range(1, n + 1):
                    w = exterior.wedge((r,), a)
                    if w is None:
                        continue
                    sign, prod = w
                    target_word = tuple(sorted(word + (r,)))
                    wk2 = word_index[target_word]
                    col = wk2 * width1 + mon_index[j + 1][prod]
                    mat0[wk * width + a_idx, col] = (mat0[wk * width + a_idx, col] + sign_a * sign) % p
    return GradedModule(n_plus_1, p, dims, actions)


def explicit_top_layer_quotient(n: int, d: int, p: int) -> GradedModule:
    """The explicit filtration projective modulo its deepest word layer."""
    if d < 2:
        raise ValueError("needs d >= 2")
    big = filtration_projective_explicit(n, d, p)
    words: list[tuple[int, ...]] = []
    for s in range(d):
        words.extend(_multisets(n, s))
    mons = [exterior.basis_of_degree(n, j) for j in range(n + 1)]
    seeds: dict[int, list[np.ndarray]] = {}
    for j in range(n + 1):
        width = len(mons[j])
        if not width or not big.dim(j):
            continue
        for wk, word in enumerate(words):
            if len(word) != d - 1:
                continue
            for a_idx in range(width):
                v = zeros(1, big.dim(j))[0]
                v[wk * width + a_idx] = 1
                seeds.setdefault(j, []).append(v)
    spans = gmod._closure_subspaces(big, seeds)
    quot, _ = gmod.quotient_by_subspaces(big, spans)
    return quot


def ar_sequence_middle(n: int, p: int, form=None) -> Extension:
    """The almost-split-style extension of the point module by its
    (n-1)-shift: the unique class up to scalar, realized."""
    if form is None:
        form = np.zeros(n + 1, dtype=np.int64)
        form[0] = 1
    m = point_module(n + 1, form, p)
    shifted = gmod.shift(m, n - 1)
    classes = ext_class_basis(m, shifted)
    if len(classes) != 1:
        raise ValueError(f"expected a one-dimensional extension space, got {len(classes)}")
    return realize_ext(classes[0])


def kronecker_family(i: int, j: int, p: int) -> GradedModule:
    """The syzygy family of the simple module over two variables:
    member i is the i-th (co)syzygy shifted back to its natural slot,
    then shifted by j."""
    s = gmod.simple_module(2, p, 0)
    if i == 0:
        base = s
    elif i > 0:
        base = gmod.shift(homology.syzygy(s, i), i)
    else:
        base = gmod.shift(homology.cosyzygy(s, -i), i)
    return gmod.shift(base, j)


POINT_CLASS_TRIALS = 64


def _find_point_class(layer: GradedModule, seed: int) -> np.ndarray | None:
    """A nonzero form candidate annihilating the bottom factor of a layer."""
    p = layer.p
    za = zero_action_forms(layer)
    if len(za) == 1:
        return za[0]
    if len(za) > 1:
        return None
    d0 = layer.min_deg
    t = layer.dim(d0)
    rng = np.random.default_rng(seed)
    candidates = [np.eye(t, dtype=np.int64)[k] for k in range(t)]
    for _ in range(POINT_CLASS_TRIALS):
        candidates.append(rng.integers(0, p, t, dtype=np.int64))
    stacked = [layer.action(i, d0) for i in range(layer.n_plus_1)]
    for w in candidates:
        if not w.any():
            continue
        mat = np.stack([matmul_mod(w.reshape(1, -1), a, p).ravel() for a in stacked])
        ker = kernel_basis(mat.T, p)
        if ker.dim == 1:
            return ker.basis[0]
    return None


def _normalize_form(v: np.ndarray, p: int) -> tuple[int, ...]:
    nz = np.nonzero(v)[0]
    scale = inv_mod(int(v[nz[0]]), p)
    return tuple(int(x * scale % p) for x in v)


def _peel_point_layers(layer: GradedModule, xi: np.ndarray, seed: int) -> int | None:
    """Count the point-module factors of a single-generation-degree layer.

    Every factor must be the point module of xi sitting in the layer's own
    generation degree; a cyclic submodule killed by xi with the full 2^n
    dimension profile is such a copy, and peeling it keeps the layer in
    the same class.
    """
    p = layer.p
    n = layer.n_plus_1 - 1
    g = layer.min_deg
    cur = layer
    count = 0
    rng = np.random.default_rng(seed + 1)
    while not cur.is_zero():
        d0 = cur.min_deg
        if d0 != g:
            return None
        amat = cur.form_action(xi, d0)
        if amat.shape[1] == 0:
            ker = full_subspace(cur.dim(d0), p)
        else:
            ker = left_kernel_basis(amat, p)
        candidates = list(ker.basis)
        for _ in range(16):
            if ker.dim:
                c = rng.integers(0, p, ker.dim, dtype=np.int64)
                candidates.append(matmul_mod(c.reshape(1, -1), ker.basis, p).ravel())
        found = False
        for w in candidates:
            if not w.any():
                continue
            sub, _, quot, _ = gmod.sub_quotient(cur, [(d0, w)])
            if sub.total_dim == 2 ** n and all(
                sub.dim(d0 + j) == comb(n, j) for j in range(n + 1)
            ):
                cur = quot
                count += 1
                found = True
                break
        if not found:
            return None
    return count


def cx1_filtration(m: GradedModule, seed: int = 0) -> list[tuple[tuple[int, ...], int]]:
    """Refine a complexity-one module into point-module factors.

    Returns a bottom-up list of (normalized annihilating form, shift);
    a factor (xi, j) is the point module of xi shifted by j.  Raises
    NotComplexityOne when the input is not complexity one or a layer
    cannot be decomposed into copies of a single point class.
    """
    cx = m.n_plus_1 - len(homology.regular_sequence(m, seed=seed))
    if cx != 1:
        raise NotComplexityOne(f"regular-sequence complexity is {cx}")
    out: list[tuple[tuple[int, ...], int]] = []
    cur = m
    while not cur.is_zero():
        layer, _, rest, _ = homology.lowest_step(cur)
        g = layer.min_deg
        xi = _find_point_class(layer, seed)
        count = _peel_point_layers(layer, xi, seed) if xi is not None else None
        if count is None:
            raise NotComplexityOne("a layer is not an iterated extension of one point class")
        out.extend([(_normalize_form(xi, m.p), -g)] * count)
        if rest.dims == cur.dims:
            raise NotComplexityOne("layer peeling made no progress")
        cur = rest
    return out
