from math import comb

import numpy as np
import pytest

from exalg import constructions as cons
from exalg import gmod, homalg, homology, modfile, verify
from exalg import linalg as la
from exalg.gmod import GradedModule
from exalg.linalg import Subspace, coords_in_rref_basis, subspace_from_rows, zero_subspace
from test_gmod import hom_maps, hom_oracle_pairs, random_structured_module
from test_linalg import full_subspace

P = la.DEFAULT_PRIME


def flat_coords(space: Subspace, maps: list[gmod.ModuleMap]) -> np.ndarray:
    """Coordinates of maps in the RREF basis of their flattened Hom space."""
    flats = np.array([gmod.flatten_map(f) for f in maps], dtype=np.int64)
    coords = coords_in_rref_basis(flats.reshape(len(maps), space.ambient), space)
    if coords is None:
        raise ValueError("map is not in the Hom space")
    return coords


def point_module(n_plus_1, form=None):
    r = gmod.free_module(n_plus_1, P, [0])
    if form is None:
        form = np.zeros(n_plus_1, dtype=np.int64)
        form[0] = 1
    return gmod.sub_quotient(r, {1: np.asarray(form, dtype=np.int64)[None]})[2]


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


def factor_through_projectives_via_cover(
    m: GradedModule, n: GradedModule, space: Subspace | None = None
) -> Subspace:
    """Same subspace computed through the projective cover of the target."""
    if space is None:
        space = gmod.hom_space(m, n)
    if not space.dim:
        return zero_subspace(0, m.p)
    cover, epi = homology.projective_cover(n)
    composites = [gmod.map_compose(h, epi) for h in hom_maps(m, cover)]
    return subspace_from_rows(flat_coords(space, composites), space.dim, m.p)


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
        s2 = factor_through_projectives_via_cover(a, b, space)
        assert s1 == s2


def test_hom_counts_build_no_maps(monkeypatch):
    # Hom(P(3), point shifted by 1) has dim 9 and a 5-dimensional ptriv
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


def test_ext_counts_build_no_maps(monkeypatch):
    # Ext between P(3) and the point module, also over E/J^2, without
    # a ptriv subspace, an envelope or any map read off a Hom space
    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return fail

    m = cons.filtration_projective(2, 3, P)
    n = point_module(3)
    mbar, nbar = gmod.square_truncate(m), gmod.square_truncate(n)
    want = [homalg.ext_dim(m, n, k) for k in (1, 2)], homalg.ext1_square_zero(mbar, nbar)
    assert want == ([4, 3], 7)
    monkeypatch.setattr(homalg, "factor_through_projectives", forbidden("ptriv"))
    monkeypatch.setattr(homology, "injective_envelope", forbidden("envelope"))
    monkeypatch.setattr(gmod, "map_from_flat", forbidden("map_from_flat"))
    assert ([homalg.ext_dim(m, n, k) for k in (1, 2)], homalg.ext1_square_zero(mbar, nbar)) == want
    # over E/J^2 not even the cover is built
    monkeypatch.setattr(gmod.ModuleMap, "__post_init__", forbidden("ModuleMap"))
    assert homalg.ext1_square_zero(mbar, nbar) == want[1]


def ext_route_fixtures():
    """Same-n groups of modules on which ext_dim must match stable Hom."""
    groups = {n1: [] for n1 in (2, 3, 4)}
    for n1 in (3, 4):
        groups[n1] += [point_module(n1), point_module(n1, np.arange(1, n1 + 1))]
    groups[3] += [
        cons.ar_sequence_middle(2, P).middle,
        cons.filtration_projective(2, 2, P),
        cons.filtration_projective(2, 3, P),
        gmod.free_module(3, P, [0, 1]),
        gmod.zero_module(3, P),
    ]
    groups[2] += [cons.kronecker_family(i, 1, P) for i in (-2, 1, 2)]
    for seed in (3001, 3003, 3009):
        m = random_structured_module(seed)
        groups[m.n_plus_1].append(m)
    return groups


def test_ext_matches_stable_hom_out_of_the_syzygy():
    # two routes: the cover's exact sequence, and Hom(Omega^k m, n) modulo ptriv;
    # each module is paired with itself and the first two of its group
    cases = nonzero = 0
    for group in ext_route_fixtures().values():
        for m in group:
            syz = [homology.syzygy(m, k) for k in (1, 2, 3)]
            for n in {id(n): n for n in [m, *group[:2]]}.values():
                for i in range(-2, 3):
                    tgt = gmod.shift(n, i)
                    for k in (1, 2, 3):
                        want = homalg.stable_hom_dim(syz[k - 1], tgt)
                        assert homalg.ext_dim(m, tgt, k) == want, (m, n, i, k)
                        cases += 1
                        nonzero += want > 0
    assert cases > 500 and nonzero > 100, (cases, nonzero)


def test_end_algebra_solves_hom_once(monkeypatch):
    m = cons.filtration_projective(2, 3, P)
    calls = []
    real = gmod.hom_space

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(gmod, "hom_space", counting)
    assert homalg.end_algebra(m).dim == 6
    assert len(calls) == 1


def test_end_that_is_a_larger_field_is_not_local():
    # x_0 = I and x_1 with x_1^2 = 3, a non-square mod 7: End is F_49, so
    # the module is indecomposable, yet End/rad is not F_p and is_local is
    # False
    x1 = [[0, 1], [3, 0]]
    m = GradedModule(2, 7, {0: 2, 1: 2}, [{0: la.identity(2)}, {0: x1}])
    assert gmod.validate(m) == []
    end = homalg.end_algebra(m)
    assert end.to_json_dict() == {
        "dim": 2,
        "p": 7,
        "one": [1, 0],
        "mult": [[[1, 0], [0, 1]], [[0, 1], [3, 0]]],
        "radical_dims": [2, 0],
    }
    assert end.is_commutative() and end.radical.dim == 0
    assert not end.is_local()


def factor_through_projectives_by_flat_composites(
    m: GradedModule, n: GradedModule, space: Subspace
) -> Subspace:
    """The ptriv subspace as homalg built it from whole composite maps:
    each g∘ι composed, flattened and read in the flattened RREF basis."""
    if not space.dim:
        return zero_subspace(0, m.p)
    env, mono = homology.injective_envelope(m)
    composites = [
        gmod.map_compose(mono, gmod.map_from_flat(env, n, v)) for v in gmod.hom_space(env, n).basis
    ]
    return subspace_from_rows(flat_coords(space, composites), space.dim, m.p)


def end_algebra_by_flat_composites(m: GradedModule) -> homalg.FiniteAlgebra:
    """End(m) as homalg built it: every product of basis maps composed and
    read in the flattened RREF basis."""
    space = gmod.hom_space(m, m)
    dim, p = space.dim, m.p
    if dim == 0:
        mult = np.zeros((0, 0, 0), dtype=np.int64)
        return homalg.FiniteAlgebra(0, p, mult, la.zeros(1, 0)[0], [zero_subspace(0, p)])
    basis = [gmod.map_from_flat(m, m, v) for v in space.basis]
    mult = np.stack([flat_coords(space, [gmod.map_compose(f, g) for g in basis]) for f in basis])
    one = flat_coords(space, [gmod.identity_map(m)])[0]
    rad = homalg.algebra_radical_subspace(dim, p, mult)
    return homalg.FiniteAlgebra(dim, p, mult, one, homalg._radical_filtration(dim, p, mult, rad))


def generator_image_fixture_pairs():
    """The Hom oracle's pairs, and P(d), point, almost-split and Kronecker
    modules against each other and their shifts."""
    pairs = hom_oracle_pairs()
    groups = [
        [
            cons.filtration_projective(2, 2, P),
            cons.filtration_projective(2, 3, P),
            point_module(3),
            point_module(3, [1, 2, 5]),
            cons.ar_sequence_middle(2, P).middle,
        ],
        [cons.kronecker_family(i, 1, P) for i in (-2, 1, 2)] + [point_module(2)],
    ]
    for group in groups:
        pairs += [(a, gmod.shift(b, i)) for a in group for b in group for i in (-1, 0, 1)]
    return pairs


def test_ptriv_and_end_match_the_flat_composite_oracles():
    pairs = generator_image_fixture_pairs()
    ptriv = ends = 0
    for a, b in pairs:
        space = gmod.hom_space(a, b)
        got = homalg.factor_through_projectives(a, b, space)
        assert got == factor_through_projectives_by_flat_composites(a, b, space)
        ptriv += got.dim > 0
    for m in {id(m): m for pair in pairs for m in pair}.values():
        got = homalg.end_algebra(m)
        assert got.to_json_dict() == end_algebra_by_flat_composites(m).to_json_dict()
        ends += got.dim > 1
    assert ptriv > 30 and ends > 10, (ptriv, ends)


def test_end_and_hom_basis_compose_no_maps(monkeypatch):
    def forbidden(f, g):
        raise AssertionError("map_compose called")

    m = cons.filtration_projective(2, 3, P)
    n = gmod.shift(point_module(3), 1)
    want = homalg.end_algebra(m).to_json_dict(), homalg.stable_hom_dim(m, n)
    monkeypatch.setattr(gmod, "map_compose", forbidden)
    assert (homalg.end_algebra(m).to_json_dict(), homalg.hom_basis(m, n).stable_dim) == want
    assert want[1] == 4 and len(want[0]["one"]) == 6


def test_generator_coordinates_check_membership():
    # slot rows off the span of the basis maps' slot rows are no map of the space
    m = cons.filtration_projective(2, 3, P)
    space = gmod.hom_space(m, m)
    blocks = gmod.split_flat(m, m, space.basis)
    w = np.hstack([blocks[e][:, s].reshape(space.dim, -1) for e, s in space.slots.items()])
    rng = np.random.default_rng(5)
    x = rng.integers(0, P, (4, space.dim), dtype=np.int64)
    rows = la.matmul_mod(x, w, P)

    def coords(rows):
        # the rows as first maps' slot rows, then the identity at each slot degree
        cuts = np.cumsum([s.size * m.dim(e) for e, s in space.slots.items()])[:-1]
        firsts = {
            e: part.reshape(len(rows), s.size, m.dim(e))
            for (e, s), part in zip(space.slots.items(), np.split(rows, cuts, axis=1))
        }
        ids = {e: la.identity(m.dim(e))[None] for e in space.slots}
        return homalg._composite_coords(m, m, space, firsts, ids)

    assert np.array_equal(coords(rows), x)
    # a unit vector off RREF(w)'s pivot columns is no combination of w's rows
    free = np.delete(np.arange(w.shape[1]), la.rref(w, P)[2])
    assert free.size
    bad = rows.copy()
    bad[2, free[0]] = (bad[2, free[0]] + 1) % P
    with pytest.raises(ValueError, match="not in the Hom space"):
        coords(bad)


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
    assert la.coords_in_rref_basis([[0, 1]], rad) is not None


def test_algebra_radical_rejects_bad_structure_constants():
    # left multiplication by b_0 has trace form 1, by b_1 is zero: the radical
    # is span(b_1), but b_0 * b_1 = b_0 leaves it
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 0] = 1
    with pytest.raises(ValueError, match="not an ideal"):
        homalg.algebra_radical_subspace(2, P, mult)
    # trace(L_0^2) = 1 + 2 * (P - 1) / 2 = 0 with L_0 invertible: the trace
    # form vanishes, so the radical is everything, and it squares onto itself
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0] = [[1, 1], [(P - 1) // 2, 0]]
    rad = homalg.algebra_radical_subspace(2, P, mult)
    assert rad.dim == 2
    with pytest.raises(ValueError, match="not nilpotent"):
        homalg._radical_filtration(2, P, mult, rad)


def algebra_product(mult, u, v, p):
    """Coordinates of u * v in an algebra with structure constants mult."""
    acc = np.zeros(mult.shape[0], dtype=np.int64)
    for i in np.nonzero(u)[0]:
        acc = (acc + int(u[i]) * la.matmul_mod(v.reshape(1, -1), mult[i], p).ravel()) % p
    return acc


def elementwise_radical_filtration(dim, p, mult):
    """Reference: the trace form one entry at a time, rad * rad^k one
    product at a time."""
    gram = np.array(
        [[int(np.trace(la.matmul_mod(mult[i], mult[j], p))) % p for j in range(dim)] for i in range(dim)],
        dtype=np.int64,
    ).reshape(dim, dim)
    rad = la.kernel_basis(gram, p)
    out = [full_subspace(dim, p), rad]
    while out[-1].dim and len(out) <= dim + 1:
        rows = [algebra_product(mult, u, v, p) for u in rad.basis for v in out[-1].basis]
        out.append(la.subspace_from_rows(np.array(rows).reshape(len(rows), dim), dim, p))
    return out


def test_radical_filtration_matches_elementwise_products():
    fixtures = [point_module(3), gmod.square_truncate(gmod.free_module(3, P, [0]))]
    fixtures += [cons.filtration_projective(n, d, P) for n, d in ((1, 3), (2, 2), (2, 3))]
    for m in fixtures:
        alg = homalg.end_algebra(m)
        want = elementwise_radical_filtration(alg.dim, P, alg.mult)
        assert [s.basis.tolist() for s in alg.rad_filtration] == [s.basis.tolist() for s in want]


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
            sq = algebra_product(alg.mult, v, v, P)
            if v.any():
                assert not np.array_equal(sq, v)


def test_is_indecomposable():
    m = point_module(3)
    assert homalg.end_algebra(m).is_local()
    total, _, _ = gmod.direct_sum(m, m)
    assert not homalg.end_algebra(total).is_local()
    # End(0) has dimension 0, so it is not local either
    assert not homalg.end_algebra(gmod.zero_module(3, P)).is_local()


def test_truncated_poly_fingerprint_scalar_case():
    alg = homalg.end_algebra(point_module(3))
    assert homalg.truncated_poly_fingerprint(alg, 2, 1)
    assert not homalg.truncated_poly_fingerprint(alg, 2, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_truncated_poly_fingerprint_edge_algebras(n):
    k = gmod.simple_module(n + 1, P)
    matrices = homalg.end_algebra(gmod.direct_sum(k, k)[0])  # M_2(k)
    assert not matrices.is_commutative()
    nothing = homalg.end_algebra(gmod.zero_module(n + 1, P))
    for order in (1, 2, 3, 4):
        assert not homalg.truncated_poly_fingerprint(matrices, n, order)
        assert not homalg.truncated_poly_fingerprint(nothing, n, order)
    # End(P^(d)) is the truncated polynomial algebra of order d, whose radical
    # filtration is shorter than order + 1 terms for every larger order
    for d in (1, 2, 3, 4):
        alg = homalg.end_algebra(cons.filtration_projective_explicit(n, d, P))
        assert [homalg.truncated_poly_fingerprint(alg, n, order) for order in (1, 2, 3, 4)] == [
            order == d for order in (1, 2, 3, 4)
        ]


def test_truncated_poly_fingerprint_on_no_letters():
    # End(k) over one variable is k, the truncated polynomial algebra on zero
    # letters at every order
    alg = homalg.end_algebra(gmod.simple_module(1, P))
    assert all(homalg.truncated_poly_fingerprint(alg, 0, order) for order in (1, 2, 3, 4))


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
    p2 = cons.filtration_projective(2, 2, P)
    p3 = cons.filtration_projective(2, 3, P)
    middle = cons.ar_sequence_middle(2, P).middle
    fixtures = [m, p2, gmod.shift(m, 1), middle, p3]
    for v in fixtures:
        for e in fixtures:
            vbar, ebar = gmod.square_truncate(v), gmod.square_truncate(e)
            assert homalg.ext1_square_zero(vbar, ebar) == yoneda_ext1_square_zero(vbar, ebar)


def test_cor22_computes_each_ext_dimension_once(monkeypatch):
    # eight shifts, k = 1 and 2: the locus reads the checks' own values
    asked = []
    real = homalg.ext_dim
    monkeypatch.setattr(
        homalg, "ext_dim", lambda m, n, k=1: asked.append((modfile.serialize(n), k)) or real(m, n, k)
    )
    checks = verify.run_suite("cor2.2", n=3)
    assert all(c.verdict == "PASS" for c in checks)
    assert len(asked) == 16
    assert len(set(asked)) == len(asked)
