"""
Named module constructions: point modules cut out by linear forms,
quotients by coordinate subspaces, tensor products with the graded sign
rule, extension realization (pushout along a cocycle), universal
extensions, the filtration projectives built two independent ways, the
almost-split middle term over a point module, the syzygy family of the
simple module over two variables, and the refinement of a complexity-one
module into point-module layers.

The closed-form filtration projective is a word-raising matrix tensored
with exterior.generator_matrices, E's one multiplication table; no sign
is worked out here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from . import exterior, gmod, homalg, homology
from .gmod import GradedModule, ModuleMap
from .linalg import identity, left_kernel_basis, matmul_mod, rref, solve, subspace_from_rows, zeros


class DependentForms(ValueError):
    pass


class NotComplexityOne(ValueError):
    pass


def _completion_to_basis(forms: np.ndarray, p: int) -> np.ndarray:
    """Extend independent rows to an invertible matrix, deterministically.

    The pivot columns of RREF([forms^T | I]) past the forms pick, in order,
    each unit vector outside the span of the forms and the units before it.
    """
    k, n1 = forms.shape
    eye = np.eye(n1, dtype=np.int64)
    pivots = rref(np.hstack([forms.T % p, eye]), p)[2]
    return np.vstack([forms % p, eye[[c - k for c in pivots[k:]]]])


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
    if rref(mat, p)[0] != k:
        raise DependentForms("the given linear forms are dependent")
    base = _coordinate_span_quotient(n_plus_1, p, k)
    completion = _completion_to_basis(mat, p)
    # with A = completion^{-1}, each given form composed with the
    # substitution becomes a coordinate form killed by the base module
    cinv = solve(completion, identity(n_plus_1), p)
    return gmod.transport(base, cinv)


def point_module(n_plus_1: int, form, p: int) -> GradedModule:
    """The cyclic module annihilated by one nonzero linear form."""
    f = np.asarray(form, dtype=np.int64) % p
    if not f.any():
        raise ValueError("point modules need a nonzero form")
    return span_quotient(n_plus_1, f.reshape(1, -1), p)


def tensor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Graded tensor product over the ground field.

    Degree-k part is the sum of m_i ⊗ n_{k-i}, i ascending; a variable acts
    on a pure tensor by acting on the left factor with the sign (-1)^(degree
    of the right factor), plus acting on the right factor unsigned.  From
    m_i ⊗ n_j the two pieces land in the blocks (i+1, j) and (i, j+1).
    """
    gmod._check_compatible(m, n)
    p = m.p
    dims: dict[int, int] = {}
    offsets: dict[tuple[int, int], int] = {}  # (i, j) -> where m_i ⊗ n_j starts in degree i + j
    for i in m.degrees:
        for j in n.degrees:
            offsets[(i, j)] = dims.get(i + j, 0)
            dims[i + j] = offsets[(i, j)] + m.dim(i) * n.dim(j)
    actions = [{k: zeros(dims[k], dims[k + 1]) for k in dims if k + 1 in dims} for _ in range(m.n_plus_1)]
    for (i, j), src in offsets.items():
        for t, act in enumerate(actions):
            left = (-1 if j % 2 else 1) * np.kron(m.action(t, i), np.eye(n.dim(j), dtype=np.int64))
            right = np.kron(np.eye(m.dim(i), dtype=np.int64), n.action(t, j))
            for key, piece in (((i + 1, j), left), ((i, j + 1), right)):
                if key in offsets:
                    dst = offsets[key]
                    act[i + j][src : src + piece.shape[0], dst : dst + piece.shape[1]] = piece % p
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
    syz, incl, cover, epi = homology.syzygy_step(x)
    reps = homalg.hom_basis(syz, m).stable_class_reps()
    return [ExtClass(x, m, syz, incl, cover, epi, r) for r in reps]


def realize_ext(c: ExtClass) -> Extension:
    """Pushout of the cover sequence of X along the cocycle.

    The middle term is (M ⊕ P) modulo the antidiagonal copy of the syzygy;
    the sequence M -> E -> X it fits in is degree-wise exact and splits
    exactly when the class is stably trivial.
    """
    p = c.sub.p
    total, (inc_m, _), (_, pr_p) = gmod.direct_sum(c.sub, c.cover)
    # the antidiagonal is the image of the module map (cocycle, -incl), so
    # its degreewise spans are already action-stable
    spans = {
        d: subspace_from_rows(np.hstack([c.cocycle.block(d), -c.syz_incl.block(d) % p]), total.dim(d), p)
        for d in c.syz.degrees
    }
    if any(s.dim != c.syz.dim(d) for d, s in spans.items()):
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
        stacked_blocks[d] = np.hstack([c.cocycle.block(d) for c in classes])
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


def _words(n: int, d: int) -> list[tuple[int, ...]]:
    """Multisets of at most d-1 letters from {1..n}, shortest first."""
    return [w for s in range(d) for w in combinations_with_replacement(range(1, n + 1), s)]


def filtration_projective_explicit(n: int, d: int, p: int) -> GradedModule:
    """The same module from its closed-form presentation.

    Basis: e_w ⊗ a, word-major, with w a multiset of at most d-1 letters
    from {1..n} and a an exterior monomial in x_1..x_n.  With G_r =
    exterior.generator_matrices(n, p)[r-1], right multiplication by x_r on
    those monomials (letters relabelled 1..n), x_r acts by I ⊗ G_r.
    x_0 sends e_w ⊗ a to (-1)^|a| Σ_r e_{w+r} ⊗ (x_r ∧ a) = Σ_r e_{w+r} ⊗
    (a ∧ x_r), so it acts by Σ_r L_r ⊗ G_r, where L_r raises e_w to e_{w+r}
    and kills the deepest layer |w| = d-1.
    """
    if d < 1:
        raise ValueError("the filtration projective needs d >= 1")
    words = _words(n, d)
    index = {w: k for k, w in enumerate(words)}
    raise_by = [zeros(len(words), len(words)) for _ in range(n)]
    for k, w in enumerate(words):
        if len(w) < d - 1:
            for r in range(1, n + 1):
                raise_by[r - 1][k, index[tuple(sorted(w + (r,)))]] = 1
    table = exterior.generator_matrices(n, p)
    eye = np.eye(len(words), dtype=np.int64)
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(n + 1)]
    for j in range(n):
        actions[0][j] = sum(np.kron(lr, g[j]) for lr, g in zip(raise_by, table))
        for r, g in enumerate(table, 1):
            actions[r][j] = np.kron(eye, g[j])
    return GradedModule(n + 1, p, {j: len(words) * comb(n, j) for j in range(n + 1)}, actions)


def explicit_top_layer_quotient(n: int, d: int, p: int) -> GradedModule:
    """The explicit filtration projective modulo its deepest word layer."""
    if d < 2:
        raise ValueError("needs d >= 2")
    big = filtration_projective_explicit(n, d, p)
    # the deepest words come last, after the len(_words(n, d - 1)) shorter ones;
    # x_0 kills them and x_r (r >= 1) keeps the word: their span is a submodule
    first = len(_words(n, d - 1))
    spans = {j: subspace_from_rows(identity(big.dim(j))[first * comb(n, j) :], big.dim(j), p) for j in big.degrees}
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


def _matrix_power(a: np.ndarray, e: int, p: int) -> np.ndarray:
    out = identity(a.shape[0])
    while e:
        if e & 1:
            out = matmul_mod(out, a, p)
        a, e = matmul_mod(a, a, p), e >> 1
    return out


def _find_point_class(layer: GradedModule) -> tuple[int, ...] | None:
    """The RREF-normalized form ξ for which a layer L, generated in its
    lowest degree g, is an iterated extension of copies of M_ξ(-g), or None.

    Let t = dim L_g.  The left kernel of the stacked x_0..x_n on L_g holds
    the relations Σ_j w_j x_j = 0 with w_j in F_p^t.  If it has t rows and
    block i of them is invertible, i the first such, then the rows of the
    x_j with j ≠ i on L_g are independent and x_i = Σ_j B_j x_j there, with
    B_j = -(block i)^(-1) (block j).  Given cx1_filtration's dimension count, L
    is then free over the exterior algebra on the x_j, j ≠ i, and the
    commuting B_j fix the rest of its structure.  A copy of M_ξ, ξ = x_i +
    Σ_j c_j x_j, is a common eigenvector with B_j = -c_j, so L is an
    iterated extension of such copies exactly when every B_j is -c_j I plus
    a nilpotent, that is, when B_j^q = -c_j I for the least q = p^k ≥ t,
    as (-c + N)^q = -c in characteristic p.  The relation ξ on the bottom
    copy makes each block before ξ's first nonzero coordinate singular, so
    ξ_i = 1 leads.  Nothing here depends on the basis of L.
    """
    p, n1, g = layer.p, layer.n_plus_1, layer.min_deg
    t = layer.dim(g)
    ker = left_kernel_basis(np.vstack([layer.action(j, g) for j in range(n1)]), p).basis
    if ker.shape[0] != t:
        return None
    for block in np.split(ker, n1, axis=1):
        inv = solve(block, identity(t), p)
        if inv is not None:
            break
    else:
        return None
    q = 1
    while q < t:
        q *= p
    xi = []
    for c in np.split(matmul_mod(inv, ker, p), n1, axis=1):
        power = _matrix_power(c, q, p)
        if not np.array_equal(power, power[0, 0] * identity(t)):
            return None
        xi.append(int(power[0, 0]))
    return tuple(xi)


def cx1_filtration(m: GradedModule, seed: int = 0) -> list[tuple[tuple[int, ...], int]]:
    """Refine a complexity-one module into point-module factors.

    Returns a bottom-up list of (normalized annihilating form, shift);
    a factor (xi, j) is the point module of xi shifted by j.  Raises
    NotComplexityOne when the input is not complexity one (by a regular
    sequence drawn from the seed) or a layer is not an iterated extension
    of copies of a single point class.

    Each layer L, the submodule generated by the lowest degree g of what
    is left, is t = dim L_g copies of M_ξ(-g), one after another, exactly
    when dim L_(g+k) = t·C(n, k) for k = 0..n, L is zero elsewhere, and
    _find_point_class finds ξ.  Both tests are exact and basis-free, so
    isomorphic inputs give the same factors.
    """
    cx = m.n_plus_1 - len(homology.regular_sequence(m, seed=seed))
    if cx != 1:
        raise NotComplexityOne(f"regular-sequence complexity is {cx}")
    n = m.n_plus_1 - 1
    out: list[tuple[tuple[int, ...], int]] = []
    cur = m
    while not cur.is_zero():
        layer, _, cur, _ = homology.lowest_step(cur)
        g = layer.min_deg
        t = layer.dim(g)
        profile = {g + k: t * comb(n, k) for k in range(n + 1)}
        if layer.dims != profile or (xi := _find_point_class(layer)) is None:
            raise NotComplexityOne("a layer is not an iterated extension of one point class")
        out.extend([(xi, -g)] * t)
    return out
