from math import comb

import numpy as np
import pytest

from exalg import gmod, homalg, homology
from exalg import linalg as la

P = la.DEFAULT_PRIME


def point_module(n_plus_1, form=None):
    r = gmod.free_module(n_plus_1, P, [0])
    if form is None:
        form = np.zeros(n_plus_1, dtype=np.int64)
        form[0] = 1
    return gmod.sub_quotient(r, [(1, np.asarray(form, dtype=np.int64))])[2]


def test_end_of_point_module_is_scalar():
    m = point_module(3)
    hs = homalg.hom_basis(m, m)
    assert hs.dim == 1
    assert hs.ptriv.dim == 0
    assert hs.stable_dim == 1


def test_hom_between_different_points_vanishes():
    a = point_module(3, [1, 0, 0])
    b = point_module(3, [0, 1, 0])
    assert homalg.hom_dim(a, b) == 0
    c = point_module(3, [1, 2, 5])
    assert homalg.hom_dim(a, c) == 0


def test_stable_hom_table_binomials():
    n = 2
    m = point_module(n + 1)
    for i in range(-2, n + 3):
        want = comb(n, i) if 0 <= i <= n else 0
        assert homalg.stable_hom_dim(m, gmod.shift(m, i)) == want


def test_stable_hom_between_distinct_points_vanishes():
    n = 2
    a = point_module(n + 1, [1, 0, 0])
    b = point_module(n + 1, [0, 0, 1])
    for i in range(-(n + 1), n + 2):
        assert homalg.stable_hom_dim(a, gmod.shift(b, i)) == 0


def test_hom_shifted_point_module_vanishing_ranges():
    n = 2
    m = point_module(n + 1)
    for j in (1, 2, -(n + 1), -(n + 2)):
        assert homalg.hom_dim(gmod.shift(m, j), m) == 0


def test_ptriv_nontrivial_between_distinct_points():
    # maps exist between different points in middle shifts, but all factor
    a = point_module(3, [1, 0, 0])
    b = point_module(3, [0, 1, 0])
    hs = homalg.hom_basis(a, gmod.shift(b, 1))
    assert hs.dim > 0
    assert hs.stable_dim == 0


def test_stable_hom_of_free_source_vanishes():
    r = gmod.free_module(2, P, [0])
    m = point_module(2)
    hs = homalg.hom_basis(r, m)
    assert hs.dim > 0
    assert hs.stable_dim == 0


def test_two_ptriv_routes_agree():
    fixtures = [
        (point_module(3), point_module(3)),
        (gmod.free_module(3, P, [0]), point_module(3)),
        (point_module(3), gmod.shift(point_module(3), 1)),
        (point_module(3, [1, 1, 0]), gmod.shift(point_module(3, [1, 1, 0]), 2)),
    ]
    for a, b in fixtures:
        space = gmod.hom_space(a, b)
        s1 = homalg.factor_through_projectives(a, b, space)
        s2 = homalg.factor_through_projectives_via_cover(a, b, space)
        assert s1 == s2


def test_hom_counts_build_no_maps(monkeypatch):
    # Hom(P(3), point shifted by 1) has dim 9 and a 5-dimensional ptriv
    from exalg import constructions as cons

    m = cons.filtration_projective(2, 3, P)
    n = gmod.shift(point_module(3), 1)
    built = []
    real = gmod.map_from_flat

    def counting(a, b, vec):
        built.append((a, b))
        return real(a, b, vec)

    monkeypatch.setattr(gmod, "map_from_flat", counting)
    assert homalg.hom_dim(m, n) == 9
    assert homalg.stable_hom_dim(m, n) == 4
    assert not [ab for ab in built if ab[0] is m and ab[1] is n]


def test_end_algebra_runs_the_hom_sweep_once(monkeypatch):
    from exalg import constructions as cons

    m = cons.filtration_projective(2, 3, P)
    calls = []
    real = gmod.hom_space

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(gmod, "hom_space", counting)
    assert homalg.end_algebra(m).dim == 6
    assert len(calls) == 1


def test_ext_dims_of_point_module():
    n = 2
    m = point_module(n + 1)
    assert homalg.ext_dim(m, m, 1) == n
    assert homalg.ext_dim(m, gmod.shift(m, n - 1), 1) == 1


def test_ext_vanishing_pattern():
    n = 2
    m = point_module(n + 1)
    for i in range(-3, n + 2):
        e1 = homalg.ext_dim(m, gmod.shift(m, i), 1)
        assert (e1 != 0) == (0 <= i + 1 <= n)
    for i in range(-3, n + 2):
        e2 = homalg.ext_dim(m, gmod.shift(m, i), 2)
        assert (e2 != 0) == (0 <= i + 2 <= n)
    locus = [
        i
        for i in range(-3, n + 2)
        if homalg.ext_dim(m, gmod.shift(m, i), 1) and not homalg.ext_dim(m, gmod.shift(m, i), 2)
    ]
    assert locus == [n - 1]


def test_ext_simple_kronecker_vanishes():
    s = gmod.simple_module(2, P, 0)
    assert homalg.ext_dim(s, s, 1) == 0


def test_ext_shift_compatibility():
    m = point_module(3)
    s = gmod.simple_module(3, P, 0)
    for tgt in (m, s):
        for k in (1, 2, 3):
            lhs = homalg.ext_dim(m, tgt, k + 1)
            rhs = homalg.ext_dim(homology.syzygy(m, 1), tgt, k)
            assert lhs == rhs


def test_end_algebra_of_point_module():
    alg = homalg.end_algebra(point_module(3))
    assert alg.dim == 1
    assert alg.radical.dim == 0
    assert alg.is_local()


def test_end_algebra_of_free_rank_one():
    alg = homalg.end_algebra(gmod.free_module(2, P, [0]))
    assert alg.dim == 1
    assert alg.is_local()


def test_end_algebra_of_square_is_matrix_algebra():
    m = point_module(3)
    total, _, _ = gmod.direct_sum(m, m)
    alg = homalg.end_algebra(total)
    assert alg.dim == 4
    assert alg.radical.dim == 0  # 2x2 matrices are semisimple
    assert not alg.is_local()


def test_algebra_radical_of_dual_numbers():
    # k[t]/t^2 by hand: basis (1, t)
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    rad = homalg.algebra_radical_subspace(2, P, mult)
    assert rad.dim == 1
    assert rad.contains(np.array([0, 1]))


def test_algebra_radical_dimension_guard():
    mult = np.zeros((7, 7, 7), dtype=np.int64)
    with pytest.raises(homalg.DimTooLarge):
        homalg.algebra_radical_subspace(7, 5, mult)


def test_radical_has_no_idempotents():
    m = point_module(3)
    e_s = homalg.end_algebra(gmod.square_truncate(gmod.free_module(3, P, [0])))
    rng = np.random.default_rng(3)
    for alg in (homalg.end_algebra(m), e_s):
        vecs = list(alg.radical.basis)
        for _ in range(8):
            if alg.radical.dim:
                c = rng.integers(0, P, alg.radical.dim, dtype=np.int64)
                vecs.append(la.matmul_mod(c.reshape(1, -1), alg.radical.basis, P).ravel())
        for v in vecs:
            sq = homalg.algebra_product(alg.mult, v, v, P)
            if v.any():
                assert not np.array_equal(sq, v)


def test_is_indecomposable():
    m = point_module(3)
    assert homalg.is_indecomposable(m)
    total, _, _ = gmod.direct_sum(m, m)
    assert not homalg.is_indecomposable(total)
    assert not homalg.is_indecomposable(gmod.zero_module(3, P))


def test_truncated_poly_fingerprint_scalar_case():
    alg = homalg.end_algebra(point_module(3))
    assert homalg.truncated_poly_fingerprint(alg, 2, 1)
    assert not homalg.truncated_poly_fingerprint(alg, 2, 2)


def test_ext1_square_zero_simple_pair():
    s0 = gmod.simple_module(2, P, 0)
    s1 = gmod.simple_module(2, P, 1)
    assert homalg.ext1_square_zero(s0, s1) == 2
    assert homalg.ext1_square_zero(s0, s0) == 0


def test_ext1_square_zero_projective_source():
    free_sz = gmod.square_truncate(gmod.free_module(2, P, [0]))
    s1 = gmod.simple_module(2, P, 1)
    assert homalg.ext1_square_zero(free_sz, s1) == 0


def test_square_zero_truncation_preserves_first_ext_of_point_module():
    n = 2
    m = point_module(n + 1)
    mbar = gmod.square_truncate(m)
    assert homalg.ext1_square_zero(mbar, mbar) == homalg.ext_dim(m, m, 1)


def yoneda_ext1_square_zero(vbar, ebar):
    """Independent oracle: glued-module cocycles modulo splitting changes.

    An extension module is Ebar ⊕ Vbar with action [[E_i, 0], [C_i, V_i]];
    validity over the square-zero algebra demands C_i E_j + V_i C_j = 0 for
    every ordered pair, and conjugating by [[1, 0], [h, 1]] sweeps out the
    split classes.
    """
    p = vbar.p
    n1 = vbar.n_plus_1
    degs = sorted(set(vbar.dims) | set(ebar.dims))
    slots = []
    for i in range(n1):
        for d in degs:
            r, c = vbar.dim(d), ebar.dim(d + 1)
            if r and c:
                slots.append((i, d, r, c))
    total = sum(r * c for _, _, r, c in slots)
    if total == 0:
        return 0
    ofs = {}
    o = 0
    for i, d, r, c in slots:
        ofs[(i, d)] = o
        o += r * c
    eqs = []
    for i in range(n1):
        for j in range(n1):
            for d in degs:
                rows, out = vbar.dim(d), ebar.dim(d + 2)
                if not rows or not out:
                    continue
                eq = np.zeros((rows * out, total), dtype=np.int64)
                if (i, d) in ofs:
                    block = np.kron(np.eye(rows, dtype=np.int64), ebar.action(j, d + 1).T)
                    eq[:, ofs[(i, d)] : ofs[(i, d)] + rows * ebar.dim(d + 1)] += block
                if (j, d + 1) in ofs:
                    block = np.kron(vbar.action(i, d), np.eye(out, dtype=np.int64))
                    eq[:, ofs[(j, d + 1)] : ofs[(j, d + 1)] + vbar.dim(d + 1) * out] += block
                if eq.any():
                    eqs.append(eq % vbar.p)
    system = np.vstack(eqs) if eqs else np.zeros((0, total), dtype=np.int64)
    cocycles = la.kernel_basis(system, p)
    hslots = [(d, vbar.dim(d), ebar.dim(d)) for d in degs if vbar.dim(d) and ebar.dim(d)]
    htotal = sum(r * c for _, r, c in hslots)
    hof = {}
    o = 0
    for d, r, c in hslots:
        hof[d] = o
        o += r * c
    rows = []
    for k in range(htotal):
        hvec = np.zeros(htotal, dtype=np.int64)
        hvec[k] = 1
        cvec = np.zeros(total, dtype=np.int64)
        for i, d, r, c in slots:
            acc = np.zeros((r, c), dtype=np.int64)
            if d in hof:
                hd = hvec[hof[d] : hof[d] + vbar.dim(d) * ebar.dim(d)].reshape(
                    vbar.dim(d), ebar.dim(d)
                )
                acc = (acc + hd @ ebar.action(i, d)) % p
            if (d + 1) in hof:
                hd1 = hvec[hof[d + 1] : hof[d + 1] + vbar.dim(d + 1) * ebar.dim(d + 1)].reshape(
                    vbar.dim(d + 1), ebar.dim(d + 1)
                )
                acc = (acc - vbar.action(i, d) @ hd1) % p
            cvec[ofs[(i, d)] : ofs[(i, d)] + r * c] = acc.ravel()
        rows.append(cvec)
    cob = la.subspace_from_rows(np.array(rows).reshape(htotal, total), total, p)
    for v in cob.basis:
        assert not la.matmul_mod(system, v.reshape(-1, 1), p).any()
    return cocycles.dim - cob.dim


def test_ext1_square_zero_matches_yoneda_oracle():
    m = point_module(3)
    from exalg import constructions as cons

    p2 = cons.filtration_projective(2, 2, P)
    fixtures = [m, p2, gmod.shift(m, 1)]
    for v in fixtures:
        for e in fixtures:
            vbar, ebar = gmod.square_truncate(v), gmod.square_truncate(e)
            assert homalg.ext1_square_zero(vbar, ebar) == yoneda_ext1_square_zero(vbar, ebar)


def test_square_zero_cover_is_surjective_and_minimal():
    m = gmod.square_truncate(point_module(3))
    cover, epi = homalg._square_zero_cover(m)
    assert gmod.is_square_zero(cover)
    assert epi.commutes()
    for d in m.degrees:
        assert la.rref(epi.block(d), P)[0] == m.dim(d)
    syz, incl = homology.kernel_submodule(epi)
    radical = gmod.radical_subspaces(cover)
    for d in syz.degrees:
        for row in incl.block(d):
            assert radical[d].contains(row)
