from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest

from exalg import constructions as cons
from exalg import exterior, gmod, homalg, homology, modfile
from exalg import linalg as la
from test_linalg import reduce_mod_subspace

P = la.DEFAULT_PRIME


def x0(n_plus_1):
    v = np.zeros(n_plus_1, dtype=np.int64)
    v[0] = 1
    return v


def coords_of(space, f):
    """Coordinates of a map in the RREF basis of a HomSpace."""
    return homalg._coords(space.space, [f])[0]


def is_trivial(c):
    """Whether an extension class's cocycle is stably trivial."""
    space = homalg.hom_basis(c.syz, c.sub)
    if not space.basis:
        return True
    coords = coords_of(space, c.cocycle)
    return not reduce_mod_subspace(coords, space.ptriv).any()


def connecting_recovers_basis(x, m):
    """The coordinate projections of the universal extension's cocycle hit
    the chosen extension basis one for one."""
    classes = cons.ext_class_basis(x, m)
    a = len(classes)
    if a == 0:
        return True
    power, _, projs = gmod.direct_sum(*[m] * a)
    space = homalg.hom_basis(classes[0].syz, m)
    reps = space.stable_class_reps()
    rep_coords = [reduce_mod_subspace(coords_of(space, r), space.ptriv) for r in reps]
    stacked = {d: np.hstack([c.cocycle.block(d) for c in classes]) for d in classes[0].syz.degrees}
    cocycle = gmod.ModuleMap(classes[0].syz, power, stacked)
    for k in range(a):
        pushed = gmod.map_compose(cocycle, projs[k])
        got = reduce_mod_subspace(coords_of(space, pushed), space.ptriv)
        if not np.array_equal(got, rep_coords[k]):
            return False
    return True


def test_point_module_dimension_profile():
    for n in (1, 2, 3):
        m = cons.point_module(n + 1, x0(n + 1), P)
        assert gmod.validate(m) == []
        assert m.dims == {j: comb(n, j) for j in range(n + 1) if comb(n, j)}
        assert m.total_dim == 2 ** n
        assert [d for d, _ in gmod.top_generators(m)] == [0]


def test_point_module_scaling_invariance():
    n = 2
    a = cons.point_module(n + 1, np.array([1, 2, 3]), P)
    b = cons.point_module(n + 1, (7 * np.array([1, 2, 3])) % P, P)
    assert gmod.iso_probable(a, b, seed=2).kind == "ISO"


def test_point_module_generic_form_matches_quotient_construction():
    n = 2
    form = np.array([3, 1, 4], dtype=np.int64)
    m = cons.point_module(n + 1, form, P)
    assert gmod.validate(m) == []
    r = gmod.free_module(n + 1, P, [0])
    _, _, quot, _ = gmod.sub_quotient(r, [(1, form)])
    assert gmod.iso_probable(m, quot, seed=3).kind == "ISO"
    # the form itself acts by zero
    assert not any(m.form_action(form, d).any() for d in m.degrees)


def test_span_quotient_dims_and_linearity():
    n = 2
    forms = np.array([[1, 0, 0], [0, 1, 0]])
    m = cons.span_quotient(n + 1, forms, P)
    assert m.total_dim == 2 ** (n + 1 - 2)
    assert homology.is_linear(m, 8)
    full = cons.span_quotient(n + 1, np.eye(n + 1, dtype=np.int64), P)
    assert full.dims == {0: 1}


def test_span_quotient_generic_forms_killed():
    forms = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    m = cons.span_quotient(3, forms, P)
    assert gmod.validate(m) == []
    for f in forms:
        assert not any(m.form_action(f, d).any() for d in m.degrees)


def test_forms_of_the_wrong_length_are_rejected():
    # six coefficients over three variables once read as two forms
    with pytest.raises(ValueError, match="3 coefficients"):
        cons.point_module(3, [1, 0, 0, 0, 1, 0], P)
    for forms in ([[1, 0, 0, 0]], [[1, 0]], [1, 0, 0], [[[1, 0, 0]]]):
        with pytest.raises(ValueError, match="3 coefficients"):
            cons.span_quotient(3, forms, P)
    m = gmod.free_module(3, P, [0])
    for form in ([1, 0], [1, 0, 0, 0], [[1, 0, 0]]):
        with pytest.raises(ValueError, match="3 coefficients"):
            m.form_action(form, 0)


def greedy_completion(forms, p):
    """Reference completion: try each unit vector in turn, one elimination
    each, and keep it when it raises the rank."""
    n1 = forms.shape[1]
    rows = [f % p for f in forms]
    for e in np.eye(n1, dtype=np.int64):
        if len(rows) == n1:
            break
        if la.rref(np.vstack([*rows, e]), p)[0] == len(rows) + 1:
            rows.append(e)
    return np.array(rows, dtype=np.int64)


def test_completion_to_basis_matches_greedy_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    for p in (5, 7, P):
        for n1 in range(1, 7):
            for trial in range(12):
                k = int(rng.integers(1, n1 + 1))
                forms = rng.integers(0, p, (k, n1), dtype=np.int64)
                if trial % 2:
                    # zero leading coordinates push the completion off e_0
                    forms[:, : int(rng.integers(1, n1 + 1))] = 0
                if la.rref(forms, p)[0] != k:
                    continue
                got = cons._completion_to_basis(forms, p)
                assert np.array_equal(got, greedy_completion(forms, p))
                assert la.rref(got, p)[0] == n1
                checked += 1
    assert checked >= 100


def test_span_quotient_rejects_dependent_forms():
    with pytest.raises(cons.DependentForms):
        cons.span_quotient(3, np.array([[1, 0, 0], [2, 0, 0]]), P)


def test_tensor_with_zero():
    m = cons.point_module(3, x0(3), P)
    z = gmod.zero_module(3, P)
    assert cons.tensor(m, z).is_zero()


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
def test_span_quotient_of_no_forms_and_tensor_with_zero(n1):
    free = gmod.free_module(n1, P, [0])
    for forms in ([], np.zeros((0, n1), dtype=np.int64)):
        assert modfile.serialize(cons.span_quotient(n1, forms, P)) == modfile.serialize(free)
    z = gmod.zero_module(n1, P)
    for m in (z, free, cons.point_module(n1, x0(n1), P)):
        assert cons.tensor(m, z) == z
        assert cons.tensor(z, m) == z


def test_tensor_dims_multiply():
    n = 2
    m = cons.point_module(n + 1, x0(n + 1), P)
    t = cons.tensor(m, m)
    assert t.total_dim == 16
    assert gmod.validate(t) == []


def test_tensor_with_shifted_simple_is_shift():
    n = 2
    m = cons.point_module(n + 1, x0(n + 1), P)
    for i in (-2, -1, 0, 1, 2):
        s = gmod.simple_module(n + 1, P, i)  # the simple concentrated in degree i
        t = cons.tensor(m, s)
        assert gmod.validate(t) == []
        verdict = gmod.iso_probable(t, gmod.shift(m, -i), seed=4)
        assert verdict.kind == "ISO"


def test_tensor_validates_on_random_pairs():
    rng = np.random.default_rng(8)
    r = gmod.free_module(2, P, [0])
    m = cons.point_module(2, x0(2), P)
    e = gmod.square_truncate(r)
    for a, b in [(r, m), (m, e), (e, e), (r, r)]:
        t = cons.tensor(a, b)
        assert gmod.validate(t) == []
        assert t.total_dim == a.total_dim * b.total_dim


def test_tensor_exactness_on_extension():
    n = 2
    ext = cons.ar_sequence_middle(n, P)
    m = cons.point_module(n + 1, np.array([1, 1, 1]), P)
    ta = cons.tensor(m, ext.sub)
    tb = cons.tensor(m, ext.middle)
    tc = cons.tensor(m, ext.quot)
    for d in set(ta.dims) | set(tb.dims) | set(tc.dims):
        assert ta.dim(d) + tc.dim(d) == tb.dim(d)


def test_realize_trivial_class_splits():
    n = 2
    m = cons.point_module(n + 1, x0(n + 1), P)
    syz, incl, cover, epi = homology.syzygy_step(m)
    zero_cocycle = gmod.zero_map(syz, m)
    ext = cons.realize_ext(cons.ExtClass(m, m, syz, incl, cover, epi, zero_cocycle))
    assert ext.degreewise_exact()
    split, _, _ = gmod.direct_sum(m, m)
    assert gmod.iso_probable(ext.middle, split, seed=5).kind == "ISO"


def test_realize_point_module_shift_class_gives_free_middle():
    n = 2
    m = cons.point_module(n + 1, x0(n + 1), P)
    shifted = gmod.shift(m, 1)
    classes = cons.ext_class_basis(shifted, m)
    assert len(classes) == 1
    ext = cons.realize_ext(classes[0])
    assert ext.degreewise_exact()
    r1 = gmod.shift(gmod.free_module(n + 1, P, [0]), 1)
    assert gmod.iso_probable(ext.middle, r1, seed=6).kind == "ISO"


def test_realized_basis_classes_are_nonsplit_with_simple_generator_image():
    n = 2
    m = cons.point_module(n + 1, x0(n + 1), P)
    classes = cons.ext_class_basis(m, m)
    assert len(classes) == n
    for c in classes:
        assert not is_trivial(c)
        ext = cons.realize_ext(c)
        assert ext.degreewise_exact()
        assert gmod.validate(ext.middle) == []
        assert ext.middle.total_dim == 2 ** (n + 1)
        # a nonsplit self-extension admits only a one-dimensional map space
        # down to the point module, against two for the split middle
        assert homalg.hom_dim(ext.middle, m) == 1


def test_universal_extension_of_point_module_is_filtration_projective():
    n = 2
    m = cons.point_module(n + 1, x0(n + 1), P)
    ext, classes = cons.universal_extension(m, m)
    assert len(classes) == n
    assert ext.degreewise_exact()
    assert ext.middle.total_dim == 12
    assert ext.sub.total_dim == n * 2 ** n
    assert connecting_recovers_basis(m, m)


def test_universal_extension_trivial_case():
    n = 2
    r = gmod.free_module(n + 1, P, [0])
    m = cons.point_module(n + 1, x0(n + 1), P)
    ext, classes = cons.universal_extension(r, m)
    assert classes == []
    assert ext.middle == r


def test_filtration_projective_dims():
    for n, dmax in ((2, 4), (3, 3)):
        m = cons.point_module(n + 1, x0(n + 1), P)
        for d in range(1, dmax + 1):
            pd = cons.filtration_projective(n, d, P)
            want = 2 ** n * sum(comb(n + s - 1, s) for s in range(d))
            assert pd.total_dim == want
            assert gmod.validate(pd) == []


def test_filtration_projective_explicit_matches_inductive():
    for n, dmax in ((1, 3), (2, 3)):
        for d in range(1, dmax + 1):
            exp = cons.filtration_projective_explicit(n, d, P)
            ind = cons.filtration_projective(n, d, P)
            assert gmod.validate(exp) == []
            assert exp.dims == ind.dims
            assert gmod.iso_probable(exp, ind, seed=7).kind == "ISO"


def wedge_presentation(n, d, p):
    """Reference closed form, one wedge per entry: x_r sends e_w ⊗ a to
    e_w ⊗ (a ∧ x_r), and x_0 sends it to (-1)^|a| Σ_r e_{w+r} ⊗ (x_r ∧ a)
    below the deepest layer."""
    words = [w for s in range(d) for w in combinations_with_replacement(range(1, n + 1), s)]
    mons = [[tuple(t + 1 for t in mon) for mon in exterior.basis_of_degree(n, j)] for j in range(n + 1)]
    col = [{mon: k for k, mon in enumerate(row)} for row in mons]
    actions = [{} for _ in range(n + 1)]
    for j in range(n):
        w0, w1 = len(mons[j]), len(mons[j + 1])
        for i in range(n + 1):
            actions[i][j] = np.zeros((len(words) * w0, len(words) * w1), dtype=np.int64)
        for wk, word in enumerate(words):
            for ak, a in enumerate(mons[j]):
                for r in range(1, n + 1):
                    right, left = exterior.wedge(a, (r,)), exterior.wedge((r,), a)
                    if right is not None:
                        actions[r][j][wk * w0 + ak, wk * w1 + col[j + 1][right[1]]] = right[0] % p
                    if left is not None and len(word) < d - 1:
                        target = words.index(tuple(sorted(word + (r,))))
                        actions[0][j][wk * w0 + ak, target * w1 + col[j + 1][left[1]]] = (-1) ** j * left[0] % p
    dims = {j: len(words) * len(mons[j]) for j in range(n + 1)}
    return gmod.GradedModule(n + 1, p, dims, actions)


def test_filtration_projective_explicit_matches_wedge_reference():
    for p in (5, 7, P):
        for n in range(5):
            for d in range(1, 5):
                assert cons.filtration_projective_explicit(n, d, p) == wedge_presentation(n, d, p)


def test_filtration_projective_explicit_presentation_relations():
    # order-2 case: e*x0 = sum_s e_s x_s and e_s*x0 = 0
    n = 2
    m = cons.filtration_projective_explicit(n, 2, P)
    # words: (), (1,), (2,); monomials at degree 0: [()], degree 1: [(1,), (2,)]
    x0_mat = m.action(0, 0)
    assert m.dim(0) == 3 and m.dim(1) == 6
    # row 0 = e*(): x0 sends it into word layers (1,) and (2,) diagonally
    assert list(x0_mat[0]) == [0, 0, 1, 0, 0, 1]
    assert not x0_mat[1].any() and not x0_mat[2].any()


def test_filtration_projective_is_free_over_remaining_letters():
    # forgetting x0, the explicit module is free: socle dimension equals
    # the number of word slots
    n, d = 2, 3
    m = cons.filtration_projective_explicit(n, d, P)
    words = 1 + sum(comb(n + s - 1, s) for s in range(1, d))
    stripped = gmod.GradedModule(
        n + 1,
        P,
        dict(m.dims),
        [{} if i == 0 else dict(m.actions[i]) for i in range(n + 1)],
    )
    socle = gmod.socle(stripped)
    top_degree = max(m.dims)
    assert socle[top_degree].dim == m.dim(top_degree)
    assert sum(s.dim for s in socle.values()) == words


def test_explicit_top_layer_quotient_is_previous_projective():
    for n, d in ((2, 2), (2, 3), (2, 4), (1, 3)):
        quot = cons.explicit_top_layer_quotient(n, d, P)
        prev = cons.filtration_projective(n, d - 1, P)
        assert quot.dims == prev.dims
        assert gmod.iso_probable(quot, prev, seed=8).kind == "ISO"


def test_end_algebra_of_filtration_projectives_fingerprint():
    n = 2
    for d in (1, 2, 3):
        pd = cons.filtration_projective(n, d, P)
        alg = homalg.end_algebra(pd)
        assert alg.dim == sum(comb(n + s - 1, s) for s in range(d))
        assert homalg.truncated_poly_fingerprint(alg, n, d)
        assert alg.is_local()


def test_ar_sequence_middle_properties():
    for n in (1, 2):
        ext = cons.ar_sequence_middle(n, P)
        assert ext.degreewise_exact()
        assert ext.middle.total_dim == 2 ** (n + 1)
        assert homalg.is_indecomposable(ext.middle)
        assert homology.is_relative_sub(ext.middle, ext.incl)


def test_kronecker_family_members():
    s = cons.kronecker_family(0, 0, P)
    assert s.dims == {0: 1}
    f1 = cons.kronecker_family(1, 0, P)
    assert [d for d, _ in gmod.top_generators(f1)] == [0, 0]
    assert f1.dims == {0: 2, 1: 1}
    fm1 = cons.kronecker_family(-1, 0, P)
    assert fm1.dims == {-1: 1, 0: 2}
    assert cons.kronecker_family(2, 1, P).dims == gmod.shift(cons.kronecker_family(2, 0, P), 1).dims


def test_kronecker_stable_hom_is_diagonal():
    members = {i: cons.kronecker_family(i, -i, P) for i in range(-2, 3)}
    for i, a in members.items():
        for j, b in members.items():
            want = 1 if i == j else 0
            assert homalg.stable_hom_dim(a, b) == want


def test_translate_of_simple_is_kronecker_member():
    s = gmod.simple_module(2, P, 0)
    tau = homology.ar_translate(s)
    f2 = cons.kronecker_family(2, 0, P)
    assert gmod.iso_probable(tau, f2, seed=10).kind == "ISO"


def test_universal_extension_of_projective_has_quadratic_many_copies():
    n = 2
    m = cons.point_module(n + 1, x0(n + 1), P)
    p2 = cons.filtration_projective(n, 2, P)
    ext, classes = cons.universal_extension(p2, m)
    assert len(classes) == comb(n + 1, 2)
    assert ext.sub.total_dim == comb(n + 1, 2) * 2 ** n
    assert ext.degreewise_exact()


def test_find_point_class_one_route():
    xi = np.array([3, 1, 4], dtype=np.int64)
    want = _normalize_form(xi, P)
    # a layer every vector of which ξ kills: P_ξ ⊕ P_ξ for a form with no
    # zero coordinate
    pt = cons.point_module(3, xi, P)
    got = cons._find_point_class(gmod.direct_sum(pt, pt)[0])
    assert tuple(int(v) for v in got) == want
    # every form kills the simple module, so no single class is found
    assert cons._find_point_class(gmod.simple_module(3, P)) is None
    # the non-split almost-split middle: no form kills all of it
    middle = cons.ar_sequence_middle(2, P, form=xi).middle
    got = cons._find_point_class(middle)
    assert tuple(int(v) for v in got) == want


def test_cx1_filtration_point_module():
    n = 2
    m = cons.point_module(n + 1, np.array([1, 2, 3]), P)
    layers = cons.cx1_filtration(m, seed=0)
    assert len(layers) == 1
    xi, shift_j = layers[0]
    assert shift_j == 0
    want = _normalize_form(np.array([1, 2, 3], dtype=np.int64), P)
    assert xi == want


def test_cx1_filtration_filtration_projective():
    n = 2
    pd = cons.filtration_projective(n, 2, P)
    layers = cons.cx1_filtration(pd, seed=0)
    assert len(layers) == n + 1
    assert all(j == 0 for _, j in layers)
    assert len({xi for xi, _ in layers}) == 1
    assert layers[0][0] == _normalize_form(x0(n + 1), P)


def test_cx1_filtration_of_almost_split_middle():
    n = 2
    ext = cons.ar_sequence_middle(n, P)
    layers = cons.cx1_filtration(ext.middle, seed=0)
    assert layers == [
        (_normalize_form(x0(n + 1), P), n - 1),
        (_normalize_form(x0(n + 1), P), 0),
    ]


def test_cx1_filtration_rejects_higher_complexity():
    s = gmod.simple_module(3, P, 0)
    with pytest.raises(cons.NotComplexityOne):
        cons.cx1_filtration(s, seed=0)


def test_cx1_filtration_generic_class_tower():
    # a universal-extension tower over a point module with no coordinate form
    xi = np.array([3, 1, 4], dtype=np.int64)
    m = cons.point_module(3, xi, P)
    tower = cons.universal_extension(m, m)[0].middle
    layers = cons.cx1_filtration(tower, seed=0)
    want = _normalize_form(xi, P)
    assert layers == [(want, 0)] * 3


# The seeded search that found each layer's point class before the closed
# form, kept as the oracle: bodies and trial counts unchanged.
POINT_CLASS_TRIALS = 64


def _find_point_class_by_search(layer: gmod.GradedModule, seed: int) -> np.ndarray | None:
    """A nonzero form candidate annihilating the bottom factor of a layer."""
    p = layer.p
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
        mat = np.stack([la.matmul_mod(w.reshape(1, -1), a, p).ravel() for a in stacked])
        ker = la.kernel_basis(mat.T, p)
        if ker.dim == 1:
            return ker.basis[0]
    return None


def _normalize_form(v: np.ndarray, p: int) -> tuple[int, ...]:
    nz = np.nonzero(v)[0]
    scale = la.inv_mod(int(v[nz[0]]), p)
    return tuple(int(x * scale % p) for x in v)


def _peel_point_layers(layer: gmod.GradedModule, xi: np.ndarray, seed: int) -> int | None:
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
        ker = la.left_kernel_basis(cur.form_action(xi, d0), p)
        candidates = list(ker.basis)
        for _ in range(16):
            if ker.dim:
                c = rng.integers(0, p, ker.dim, dtype=np.int64)
                candidates.append(la.matmul_mod(c.reshape(1, -1), ker.basis, p).ravel())
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


def cx1_filtration_by_search(m: gmod.GradedModule, seed: int = 0) -> list[tuple[tuple[int, ...], int]]:
    cx = m.n_plus_1 - len(homology.regular_sequence(m, seed=seed))
    if cx != 1:
        raise cons.NotComplexityOne(f"regular-sequence complexity is {cx}")
    out: list[tuple[tuple[int, ...], int]] = []
    cur = m
    while not cur.is_zero():
        layer, _, rest, _ = homology.lowest_step(cur)
        g = layer.min_deg
        xi = _find_point_class_by_search(layer, seed)
        count = _peel_point_layers(layer, xi, seed) if xi is not None else None
        if count is None:
            raise cons.NotComplexityOne("a layer is not an iterated extension of one point class")
        out.extend([(_normalize_form(xi, m.p), -g)] * count)
        if rest.dims == cur.dims:
            raise cons.NotComplexityOne("layer peeling made no progress")
        cur = rest
    return out


def outcome(filtration, m):
    """The factors, or the message of the NotComplexityOne raised."""
    try:
        return filtration(m)
    except cons.NotComplexityOne as bad:
        return str(bad)


def random_invertible(rng, k, p):
    """A random invertible k x k matrix over F_p and its inverse."""
    eye = np.eye(k, dtype=np.int64)
    while True:
        s = rng.integers(0, p, (k, k), dtype=np.int64)
        red = la.rref(np.hstack([s, eye]), p)[1]
        if np.array_equal(red[:, :k], eye):
            return s, red[:, k:]


def twist(m, seed):
    """m with its variables changed by a random invertible substitution."""
    return gmod.transport(m, random_invertible(np.random.default_rng(seed), m.n_plus_1, m.p)[0])


def change_basis(m, seed):
    """The same module in another basis: the rows of a random invertible S_d
    are the new basis of degree d, so x_i acts by S_d A S_(d+1)^(-1)."""
    rng = np.random.default_rng(seed)
    s = {d: random_invertible(rng, m.dim(d), m.p) for d in m.degrees}
    actions = [
        {d: la.matmul_mod(la.matmul_mod(s[d][0], a, m.p), s[d + 1][1], m.p) for d, a in acts.items()}
        for acts in m.actions
    ]
    return gmod.GradedModule(m.n_plus_1, m.p, m.dims, actions)


XI = np.array([3, 1, 4], dtype=np.int64)


@lru_cache(maxsize=None)
def filtration_battery(p):
    """Point modules, both P^(d) constructions up to n = 4 and P^(6) over
    two variables, almost-split middles, the universal tower and the
    realized self-extensions over XI, direct sums, and modules of
    complexity other than one."""
    mods = []
    for n1 in range(2, 6):
        eye = np.eye(n1, dtype=np.int64)
        for form in (eye[0], eye[-1], np.arange(1, n1 + 1), eye[1] + 2 * eye[-1]):
            mods.append(cons.point_module(n1, form, p))
    for n in range(1, 5):
        for d in range(1, 4):
            mods += [cons.filtration_projective(n, d, p), cons.filtration_projective_explicit(n, d, p)]
    # at p = 5, P^(2) over five variables has five generators, and P^(6)
    # over two has x_0 = B x_1 with B one nilpotent Jordan block of size 6,
    # which only the power q = 25 clears
    mods.append(cons.filtration_projective(1, 6, p))
    for n in range(1, 4):
        for form in (x0(n + 1), np.resize(XI, n + 1)):
            mods.append(cons.ar_sequence_middle(n, p, form).middle)
    m = cons.point_module(3, XI, p)
    mods.append(cons.universal_extension(m, m)[0].middle)
    mods += [cons.realize_ext(c).middle for c in cons.ext_class_basis(m, m)]
    pd2 = cons.filtration_projective(2, 2, p)
    e = gmod.free_module(3, p, [0])
    mods += [
        gmod.direct_sum(m, m)[0],
        gmod.direct_sum(m, gmod.shift(m, 2))[0],
        gmod.direct_sum(pd2, gmod.shift(pd2, -1))[0],
        gmod.simple_module(3, p),
        e,
        gmod.square_truncate(e),
    ]
    mods += [cons.kronecker_family(i, j, p) for i in range(-2, 3) for j in (0, 1)]
    return mods


@lru_cache(maxsize=None)
def negative_battery(p):
    """Distinct point classes side by side in one degree, and sub- and
    quotient modules cut out by random vectors."""
    rng = np.random.default_rng(p)
    eye = np.eye(3, dtype=np.int64)
    points = [cons.point_module(3, f, p) for f in (eye[0], eye[1], eye[0] + eye[1], XI)]
    mods = [gmod.direct_sum(a, b)[0] for a, b in combinations(points, 2)]
    mods.append(gmod.direct_sum(cons.filtration_projective(2, 2, p), points[3])[0])
    tower = cons.universal_extension(points[3], points[3])[0].middle
    for m in (cons.filtration_projective(2, 3, p), cons.ar_sequence_middle(2, p, XI).middle, tower):
        for d in (m.min_deg, m.min_deg + 1):
            sub, _, quot, _ = gmod.sub_quotient(m, [(d, rng.integers(0, p, m.dim(d), dtype=np.int64))])
            mods += [sub, quot]
    return mods


@pytest.mark.parametrize("p", [5, 7, P])
def test_cx1_filtration_matches_the_search_oracle(p):
    inputs = [v for k, m in enumerate(filtration_battery(p)) for v in (m, twist(m, k))]
    inputs += negative_battery(p)
    got = [outcome(cons.cx1_filtration, m) for m in inputs]
    assert got == [outcome(cx1_filtration_by_search, m) for m in inputs]
    accepted = [g for g in got if isinstance(g, list)]
    layer_rejections = got.count("a layer is not an iterated extension of one point class")
    assert len(accepted) > 50 and layer_rejections >= 6


@pytest.mark.parametrize("p", [5, 7, P])
def test_cx1_filtration_does_not_depend_on_the_basis(p):
    for k, m in enumerate(filtration_battery(p) + negative_battery(p)):
        assert outcome(cons.cx1_filtration, change_basis(m, k)) == outcome(cons.cx1_filtration, m)
