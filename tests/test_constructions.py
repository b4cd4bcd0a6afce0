from math import comb

import numpy as np
import pytest

from exalg import constructions as cons
from exalg import gmod, homalg, homology
from exalg import linalg as la

P = la.DEFAULT_PRIME


def x0(n_plus_1):
    v = np.zeros(n_plus_1, dtype=np.int64)
    v[0] = 1
    return v


def is_trivial(c):
    """Whether an extension class's cocycle is stably trivial."""
    space = homalg.hom_basis(c.syz, c.sub)
    if not space.basis:
        return True
    coords = space.coords_of(c.cocycle)
    return not la.reduce_mod_subspace(coords, space.ptriv).any()


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
    rep_coords = [la.reduce_mod_subspace(space.coords_of(r), space.ptriv) for r in reps]
    stacked = {d: np.hstack([c.cocycle.block(d) for c in classes]) for d in classes[0].syz.degrees}
    cocycle = gmod.ModuleMap(classes[0].syz, power, stacked)
    for k in range(a):
        pushed = gmod.map_compose(cocycle, projs[k])
        got = la.reduce_mod_subspace(space.coords_of(pushed), space.ptriv)
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


def test_span_quotient_rejects_dependent_forms():
    with pytest.raises(cons.DependentForms):
        cons.span_quotient(3, np.array([[1, 0, 0], [2, 0, 0]]), P)


def test_tensor_with_zero():
    m = cons.point_module(3, x0(3), P)
    z = gmod.zero_module(3, P)
    assert cons.tensor(m, z).is_zero()


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


def test_cx1_filtration_point_module():
    n = 2
    m = cons.point_module(n + 1, np.array([1, 2, 3]), P)
    layers = cons.cx1_filtration(m, seed=0)
    assert len(layers) == 1
    xi, shift_j = layers[0]
    assert shift_j == 0
    want = cons._normalize_form(np.array([1, 2, 3], dtype=np.int64), P)
    assert xi == want


def test_cx1_filtration_filtration_projective():
    n = 2
    pd = cons.filtration_projective(n, 2, P)
    layers = cons.cx1_filtration(pd, seed=0)
    assert len(layers) == n + 1
    assert all(j == 0 for _, j in layers)
    assert len({xi for xi, _ in layers}) == 1
    assert layers[0][0] == cons._normalize_form(x0(n + 1), P)


def test_cx1_filtration_of_almost_split_middle():
    n = 2
    ext = cons.ar_sequence_middle(n, P)
    layers = cons.cx1_filtration(ext.middle, seed=0)
    assert layers == [
        (cons._normalize_form(x0(n + 1), P), n - 1),
        (cons._normalize_form(x0(n + 1), P), 0),
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
    want = cons._normalize_form(xi, P)
    assert layers == [(want, 0)] * 3
