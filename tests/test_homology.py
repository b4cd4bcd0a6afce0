from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from exalg import constructions as cons
from exalg import exterior as ext
from exalg import gmod, homology, modfile, verify
from exalg import linalg as la
from exalg.gmod import GradedModule, ModuleMap
from exalg.linalg import matmul_mod, subspace_from_rows, zero_subspace
from test_gmod import radical_image, random_structured_module, top_degrees
from test_linalg import full_subspace, subspace_intersection

P = la.DEFAULT_PRIME


def test_syzygy_of_ses_checks_the_projection_restriction(monkeypatch):
    a = point_module(3)
    b = example_module_two_layer()
    _, (ia, _), (_, pb) = gmod.direct_sum(a, b)
    real = homology.lift_through_cover
    calls = []

    def skewed(free, images, epi):
        calls.append(images)
        if len(calls) == 2:
            # send every generator of cover_b to the first unit vector of C,
            # a free map that does not vanish on the syzygy
            images = {g: np.eye(1, epi.target.dim(g), dtype=np.int64).repeat(len(rows), axis=0)
                      for g, rows in images.items()}
        return real(free, images, epi)

    monkeypatch.setattr(homology, "lift_through_cover", skewed)
    with pytest.raises(ValueError, match="does not land"):
        homology.syzygy_of_ses(ia, pb)
    assert len(calls) == 2


def point_module(n_plus_1, index=0):
    """R modulo the ideal of one coordinate form, built as a raw quotient."""
    r = gmod.free_module(n_plus_1, P, [0])
    gen = np.zeros(n_plus_1, dtype=np.int64)
    gen[index] = 1
    _, _, quot, _ = gmod.sub_quotient(r, {1: gen[None]})
    return quot


def example_module_two_layer():
    x0 = np.array([[0, 0], [1, 0]])
    x1 = np.array([[0, 1], [0, 0]])
    x2 = np.array([[1, 0], [0, 1]])
    return gmod.GradedModule(3, P, {0: 2, 1: 2}, [{0: x0}, {0: x1}, {0: x2}])


def loewy_two_free_quotient(n_plus_1):
    return gmod.square_truncate(gmod.free_module(n_plus_1, P, [0]))


def test_point_module_dims():
    m = point_module(3)
    assert m.dims == {j: comb(2, j) for j in range(3)}
    assert gmod.validate(m) == []


def test_projective_cover_of_free_is_iso():
    r = gmod.free_module(2, P, [0])
    cover, epi = homology.projective_cover(r)
    assert cover.dims == r.dims
    assert epi.commutes()
    assert epi.degreewise_bijective()


def test_projective_cover_of_point_module():
    m = point_module(3)
    cover, epi = homology.projective_cover(m)
    assert cover.dims == gmod.free_module(3, P, [0]).dims
    assert epi.commutes()
    for d in m.degrees:
        assert la.rref(epi.block(d), P)[0] == m.dim(d)


def test_projective_cover_of_example_module_two_generators():
    m = example_module_two_layer()
    cover, epi = homology.projective_cover(m)
    assert top_degrees(cover) == [0, 0]
    assert epi.commutes()


def test_lift_through_cover_keeps_each_generator_on_its_own_row():
    # two generators in degree 0, an epi whose degree-0 block is not
    # symmetric and images that are not: a lift that transposed the
    # per-degree solve, its system or its result would move a generator's
    # image onto the other generator
    m = example_module_two_layer()
    free = gmod.free_module(3, P, [0, 0])
    assert {d: sl.tolist() for d, sl in gmod.top_generators(free).items()} == {0: [0, 1]}
    epi = gmod.ModuleMap(free, m, gmod.generator_words(m, {0: np.array([[1, 2], [0, 1]])}))
    images = {0: np.array([[3, 5], [7, 2]])}
    lift = homology.lift_through_cover(free, images, epi)
    assert lift.commutes()
    assert np.array_equal(gmod.map_compose(lift, epi).block(0), images[0])
    with pytest.raises(ValueError, match="non-surjective"):
        homology.lift_through_cover(free, images, gmod.ModuleMap(free, m, {}))


def test_generator_order_does_not_change_the_map_or_the_lift():
    # generators in degrees 0 and 1 of one free module, with their images
    # listed high degree first: the words still stack in the free basis's
    # order, so the map is a module map and equals the ascending listing's
    m = example_module_two_layer()
    free = gmod.free_module(3, P, [0, 1])
    up = {0: np.array([[1, 0]]), 1: np.array([[0, 1]])}
    down = dict(reversed(up.items()))
    assert list(down) == [1, 0]
    want = gmod.ModuleMap(free, m, gmod.generator_words(m, up))
    got = gmod.ModuleMap(free, m, gmod.generator_words(m, down))
    assert want.commutes() and got.commutes()
    assert np.array_equal(gmod.flatten_map(got), gmod.flatten_map(want))
    _, epi = homology.projective_cover(m)
    lift_up = homology.lift_through_cover(free, up, epi)
    lift_down = homology.lift_through_cover(free, down, epi)
    assert lift_up.commutes() and lift_down.commutes()
    assert np.array_equal(gmod.flatten_map(lift_down), gmod.flatten_map(lift_up))
    assert np.array_equal(gmod.flatten_map(gmod.map_compose(lift_down, epi)), gmod.flatten_map(want))


def test_kernel_of_cover_sits_in_radical():
    m = example_module_two_layer()
    cover, epi = homology.projective_cover(m)
    syz, incl = homology.kernel_submodule(epi)
    radical = next(gmod.radical_powers(cover))
    for d in syz.degrees:
        for row in incl.block(d):
            assert la.coords_in_rref_basis([row], radical[d]) is not None


def test_syzygy_of_free_is_zero():
    assert homology.syzygy(gmod.free_module(2, P, [0, 1])).is_zero()


def test_syzygy_of_simple_kronecker():
    s = gmod.simple_module(2, P, 0)
    omega = homology.syzygy(s)
    assert omega.dims == {1: 2, 2: 1}


def test_syzygy_of_point_module_is_its_shift():
    m = point_module(3)
    omega = homology.syzygy(m)
    verdict = gmod.iso_probable(omega, gmod.shift(m, -1), seed=3)
    assert verdict.kind == "ISO"


def test_minimal_resolution_of_free():
    table = homology.minimal_resolution(gmod.free_module(2, P, [0]), 4)
    assert table.betti_numbers == [1, 0, 0, 0, 0]


def test_minimal_resolution_of_point_module():
    table = homology.minimal_resolution(point_module(3), 5)
    assert table.betti_numbers == [1] * 6
    for i, row in enumerate(table.rows):
        assert row == [i]


def test_minimal_resolution_of_simple_matches_symmetric_powers():
    # independent oracle: the Koszul-dual count of degree-i monomials
    for s, depth in [(gmod.simple_module(3, P, 0), 6), (twisted(gmod.simple_module(4, P), 0), 8)]:
        table = homology.minimal_resolution(s, depth)
        n1 = s.n_plus_1
        assert table.betti_numbers == [comb(i + n1 - 1, n1 - 1) for i in range(depth + 1)]


def syzygy_rows(m, depth):
    """Rows 0..depth off the tops of Omega^0 .. Omega^depth: the oracle that
    cross-checks the Cartan rows."""
    gens = gmod.top_generators(m)
    rows = [[d for d, sl in gens.items() for _ in sl]]
    for _ in range(depth):
        m = homology.syzygy_step(m, gens)[0]
        gens = gmod.top_generators(m)
        rows.append([d for d, sl in gens.items() for _ in sl])
    return rows


def twisted(m, seed):
    """m under a random invertible linear substitution of the variables."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.integers(0, m.p, (m.n_plus_1, m.n_plus_1), dtype=np.int64)
        if la.rref(a, m.p)[0] == m.n_plus_1:
            return gmod.transport(m, a)


def route_fixtures():
    """(name, module, depth) pairs on which the two Betti routes must agree."""
    out = [(f"simple n1={n1}", gmod.simple_module(n1, P), 5) for n1 in (2, 3, 4)]
    out.append(("loewy two n1=3", loewy_two_free_quotient(3), 6))
    out += [
        (f"span quotient n1=4 k={k}", cons.span_quotient(4, np.eye(4, dtype=np.int64)[:k], P), 4)
        for k in range(1, 5)
    ]
    out += [(f"point n1={n1}", point_module(n1), 5) for n1 in (2, 3)]
    out += [(f"pd n=2 d={d}", cons.filtration_projective(2, d, P), 4) for d in (1, 2, 3)]
    out += [(f"pd n=3 d={d}", cons.filtration_projective(3, d, P), 3) for d in (1, 2, 3)]
    out += [(f"ar middle n={n}", cons.ar_sequence_middle(n, P).middle, 4) for n in (1, 2)]
    out += [(f"kronecker i={i}", cons.kronecker_family(i, 1, P), 5) for i in (-2, -1, 1, 2)]
    out.append(("free on degrees 0 and 1", gmod.free_module(3, P, [0, 1]), 3))
    out.append(("zero", gmod.zero_module(3, P), 3))
    out.append(("two layers at depth 0", example_module_two_layer(), 0))
    out.append(("loewy two n1=3 at depth 0", loewy_two_free_quotient(3), 0))
    # depth 7 > p = 5: exponents reach p, where divided and symmetric powers differ
    out.append(("loewy two p=5", gmod.square_truncate(gmod.free_module(3, 5, [0])), 7))
    out.append(("point p=5", cons.point_module(3, [1, 0, 0], 5), 7))
    out.append(("span quotient p=5", cons.span_quotient(3, np.eye(3, dtype=np.int64)[:2], 5), 7))
    return out


@pytest.mark.parametrize("twist", [False, True], ids=["plain", "twisted"])
def test_syzygy_and_cartan_routes_agree(twist):
    for k, (name, m, depth) in enumerate(route_fixtures()):
        if twist:
            m = twisted(m, k)
        want = syzygy_rows(m, depth)
        assert homology._cartan_rows(m, depth) == want, name
        assert homology.minimal_resolution(m, depth).rows == want, name


def cx_one_fixtures():
    """(name, module, depth): complexity-one modules, which drop to one variable."""
    out = [(f"point n1={n1}", point_module(n1), 8) for n1 in (2, 3, 4)]
    out += [(f"pd n={n} d={d}", cons.filtration_projective(n, d, P), 6) for n in (2, 3) for d in (1, 2, 3)]
    out += [(f"ar middle n={n}", cons.ar_sequence_middle(n, P).middle, 6) for n in (1, 2, 3)]
    out += [(f"kronecker i={i}", cons.kronecker_family(i, 1, P), 6) for i in (-2, -1, 1, 2)]
    out += [(f"point n1={n1} p=5", cons.point_module(n1, [1] + [0] * (n1 - 1), 5), 7) for n1 in (2, 3, 4)]
    out += [(f"pd n={n} d=2 p=5", cons.filtration_projective(n, 2, 5), 7) for n in (2, 3)]
    out.append(("ar middle n=2 p=5", cons.ar_sequence_middle(2, 5).middle, 7))
    out.append(("kronecker i=2 p=5", cons.kronecker_family(2, 1, 5), 7))
    return out


def divided_powers(n_plus_1, i):
    """Exponent vectors a with |a| = i: the basis y^(a) of Gamma_i."""
    monomials = combinations_with_replacement(range(n_plus_1), i)
    return [tuple(mon.count(x) for x in range(n_plus_1)) for mon in monomials]


def cartan_differential_by_exponents(m, s, gamma, lower):
    """d on M_s ⊗ Gamma_i -> M_{s+1} ⊗ Gamma_{i-1}, variable by variable over
    the exponent vectors gamma of Gamma_i; lower maps those of Gamma_{i-1} to
    their positions.  The oracle for homology._cartan_differential."""
    r, c = m.dim(s), m.dim(s + 1)
    out = la.zeros(len(gamma) * r, len(lower) * c)
    blocks = out.reshape(len(gamma), r, len(lower), c)
    for x in range(m.n_plus_1):
        src = [k for k, a in enumerate(gamma) if a[x]]
        dst = [lower[a[:x] + (a[x] - 1,) + a[x + 1 :]] for a in gamma if a[x]]
        blocks[src, :, dst, :] = m.action(x, s)
    return out


def cartan_by_exponents(m, depth):
    """({(j, s): d_j on M_s ⊗ Gamma_j}, rows 0..depth) with every Gamma_j
    built from exponent vectors."""
    gammas = [divided_powers(m.n_plus_1, j) for j in range(depth + 2)]
    diffs = {}
    for j in range(1, depth + 2):
        lower = {a: k for k, a in enumerate(gammas[j - 1])}
        for s in m.degrees:
            if m.dim(s + 1):
                diffs[j, s] = cartan_differential_by_exponents(m, s, gammas[j], lower)
    rank = {key: la.rref(d, m.p)[0] for key, d in diffs.items()}
    rows = []
    for i in range(depth + 1):
        row = []
        for s in m.degrees:
            row += [s + i] * (m.dim(s) * len(gammas[i]) - rank.get((i, s), 0) - rank.get((i + 1, s - 1), 0))
        rows.append(row)
    return diffs, rows


def gamma_pairs_by_search(n_plus_1, j):
    """Per letter l, the (Gamma_j, Gamma_{j-1}) position pairs (a, a - e_l),
    found by searching each multiset a for l and dropping one.  The oracle
    for homology._gamma_pattern."""
    lower = {a: k for k, a in enumerate(combinations_with_replacement(range(n_plus_1), j - 1))}
    pairs = [set() for _ in range(n_plus_1)]
    for k, a in enumerate(combinations_with_replacement(range(n_plus_1), j)):
        for l in set(a):
            pairs[l].add((k, lower[a[: a.index(l)] + a[a.index(l) + 1 :]]))
    return pairs


def test_gamma_pattern_inserts_each_letter():
    for r in range(1, 6):
        for j in range(1, 11):
            up = homology._gamma_pattern(r, j)
            assert up.shape == (r, ext.multiset_count(r, j - 1)), (r, j)
            assert [set(zip(row.tolist(), range(up.shape[1]))) for row in up] == gamma_pairs_by_search(r, j)


def test_module_in_one_degree_builds_no_cartan_differential(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a Cartan differential")

    monkeypatch.setattr(homology, "_cartan_differential", refuse)
    monkeypatch.setattr(homology, "_gamma_pattern", refuse)
    k = twisted(gmod.simple_module(4, P), 0)
    assert homology.minimal_resolution(k, 8).rows == [[i] * comb(i + 3, 3) for i in range(9)]
    assert homology._cartan_rows(k, 8) == [[i] * comb(i + 3, 3) for i in range(9)]
    two = gmod.direct_sum(k, k)[0]
    assert homology._cartan_rows(two, 3) == [[i] * (2 * comb(i + 3, 3)) for i in range(4)]
    assert homology._cartan_rows(gmod.zero_module(4, P), 3) == [[], [], [], []]


@pytest.mark.parametrize("twist", [False, True], ids=["plain", "twisted"])
def test_reduced_resolution_matches_the_unreduced_routes(twist, monkeypatch):
    # change of rings: dropping a certified regular sequence keeps every row;
    # unreduced, the multiset Cartan complex builds the exponent-vector
    # oracle's differentials entry for entry, so their ranks agree too
    built = {}
    real = homology._cartan_differential

    def recording(m, s, j, pattern):
        built[j, s] = real(m, s, j, pattern)
        return built[j, s]

    monkeypatch.setattr(homology, "_cartan_differential", recording)
    fixtures = route_fixtures() + cx_one_fixtures()
    for k, (name, m, depth) in enumerate(fixtures):
        if twist:
            m = twisted(m, k)
        want = syzygy_rows(m, depth)
        built.clear()
        assert homology._cartan_rows(m, depth) == want, name
        diffs, rows = cartan_by_exponents(m, depth)
        assert rows == want and built.keys() == diffs.keys(), name
        for key, d in diffs.items():
            assert np.array_equal(built[key], d), (name, key)
        assert homology.minimal_resolution(m, depth).rows == want, name


def test_reduced_resolution_of_free_and_cx_one_modules(monkeypatch):
    calls = []
    real = homology._cartan_rows
    monkeypatch.setattr(homology, "_cartan_rows", lambda m, d: calls.append(m.n_plus_1) or real(m, d))
    free = twisted(gmod.free_module(3, P, [0, 1, 1]), 0)
    assert homology.minimal_resolution(free, 3).rows == [[0, 1, 1], [], [], []]
    assert calls == []
    # a complexity-one module resolves over one variable
    table = homology.minimal_resolution(twisted(cons.filtration_projective(3, 3, P), 1), 4)
    assert calls == [1]
    assert table.betti_numbers == [10] * 5


def test_minimal_resolution_builds_no_syzygy(monkeypatch):
    # E/J^2 over three variables at depth 12 has maximal complexity, so no
    # form drops and the syzygies grow with the Betti numbers
    loewy = ("loewy two n1=3 at depth 12", loewy_two_free_quotient(3), 12)
    cases = []
    for k, (name, m, depth) in enumerate(route_fixtures() + cx_one_fixtures() + [loewy]):
        for mod in (m, twisted(m, k)):
            cases.append((name, mod, depth, syzygy_rows(mod, depth)))

    def refuse(*args):
        raise AssertionError("minimal_resolution built a syzygy")

    monkeypatch.setattr(homology, "syzygy_step", refuse)
    monkeypatch.setattr(gmod, "top_generators", refuse)
    for name, m, depth, want in cases:
        assert homology.minimal_resolution(m, depth).rows == want, name


def resolution_differentials(m, depth):
    """The chain maps F^{i+1} -> F^i of the minimal resolution."""
    out = []
    syz, incl, _, _ = homology.syzygy_step(m)
    for _ in range(depth):
        syz2, incl2, _, epi2 = homology.syzygy_step(syz)
        out.append(gmod.map_compose(epi2, incl))
        incl = incl2
        syz = syz2
    return out


def free_basis_labels(n_plus_1, generator_degrees, degree):
    """(generator index, monomial) labels matching free_module's basis order."""
    gens = sorted(int(g) for g in generator_degrees)
    out = []
    for k, g in enumerate(gens):
        for mon in ext.basis_of_degree(n_plus_1, degree - g):
            out.append((k, mon))
    return out


def test_resolution_differentials_are_minimal():
    m = example_module_two_layer()
    diffs = resolution_differentials(m, 3)
    free_rows = homology.minimal_resolution(m, 4).rows
    for i, dmap in enumerate(diffs):
        # columns hitting the target's generator slots must vanish
        # (all entries of a minimal differential lie in the radical)
        tgt_degrees = free_rows[i]
        for e in sorted(dmap.source.dims):
            tgt_labels = free_basis_labels(dmap.target.n_plus_1, tgt_degrees, e)
            gen_cols = [c for c, (k, mon) in enumerate(tgt_labels) if not mon]
            if gen_cols and dmap.source.dim(e):
                assert not dmap.block(e)[:, gen_cols].any()


def test_betti_table_text_render():
    table = homology.minimal_resolution(point_module(2), 3)
    text = table.to_text()
    assert "total:" in text
    assert text.count("\n") >= 2


def is_shifted_linear(m: GradedModule, depth: int = homology.DEFAULT_DEPTH) -> bool:
    """Linearity after shifting the lowest generators to degree zero."""
    if m.is_zero():
        return True
    return homology.minimal_resolution(gmod.shift(m, m.min_deg), depth).is_linear()


def is_weakly_koszul(m: GradedModule, depth: int = homology.DEFAULT_DEPTH) -> bool:
    """Iterated check: peel lowest-degree layers, each a shifted linear
    module sitting inside via a radical-compatible extension."""
    cur = m
    while not cur.is_zero():
        sub, incl, quot, _ = homology.lowest_step(cur)
        if not is_shifted_linear(sub, depth):
            return False
        if not homology.is_relative_sub(cur, incl):
            return False
        cur = quot
    return True


def test_is_linear_point_and_shifted_simple():
    assert homology.minimal_resolution(point_module(3), 6).is_linear()
    s_shift = gmod.simple_module(2, P, 1)  # generated in degree 1
    assert not homology.minimal_resolution(s_shift, 4).is_linear()
    assert is_shifted_linear(s_shift, 4)


def test_is_linear_example_module():
    assert homology.minimal_resolution(example_module_two_layer(), 8).is_linear()


def test_cosyzygy_of_free_is_zero():
    assert homology.cosyzygy(gmod.free_module(2, P, [0])).is_zero()


def test_cosyzygy_inverts_syzygy_on_point_module():
    m = point_module(3)
    up = homology.cosyzygy(m, 1)
    assert gmod.iso_probable(up, gmod.shift(m, 1), seed=9).kind == "ISO"
    back = homology.syzygy(up, 1)
    assert gmod.iso_probable(back, m, seed=9).kind == "ISO"


def test_cosyzygy_of_shifted_simple_kronecker():
    # the first cosyzygy of the degree-1 simple is the dual of a two-generator
    # module: one generator in degree -1, a two-dimensional socle in degree 0
    s = gmod.simple_module(2, P, 1)
    up = homology.cosyzygy(s, 1)
    assert up.dims == {-1: 1, 0: 2}
    assert top_degrees(up) == [-1]
    socle = gmod.socle(up)
    assert socle[0].dim == 2
    back = homology.syzygy(up, 1)
    assert back.dims == s.dims


def test_lowest_step_whole_module_when_single_degree():
    m = point_module(3)
    sub, incl, quot, _ = homology.lowest_step(m)
    assert sub.dims == m.dims
    assert quot.is_zero()


def test_lowest_step_splits_mixed_sum():
    m = point_module(3)
    single, _, _ = gmod.direct_sum(m)
    assert single.dims == m.dims
    low = gmod.shift(m, 1)  # generated in degree -1
    total, _, _ = gmod.direct_sum(low, m)
    sub, incl, quot, _ = homology.lowest_step(total)
    assert sub.dims == low.dims
    assert quot.dims == m.dims


def test_relative_sub_trivial_cases():
    m = example_module_two_layer()
    sub, incl, quot, proj = gmod.sub_quotient(m, {0: np.array([[1, 0], [0, 1]])})
    assert sub.dims == m.dims
    assert homology.is_relative_sub(m, incl)


def test_relative_sub_rejects_socle_line():
    r = gmod.free_module(2, P, [0])
    sub, incl, quot, proj = gmod.sub_quotient(r, {2: np.array([[1]])})
    assert sub.dims == {2: 1}
    assert not homology.is_relative_sub(r, incl)


def test_relative_sub_checks_radical_powers_beyond_the_first():
    # m and mJ meet L in L and LJ, but mJ^2 meets L in a line of degree 4
    # while LJ^2 = 0
    m = random_structured_module(7180)
    assert (m.n_plus_1, m.dims) == (2, {2: 1, 3: 3, 4: 2})
    sub, incl, _, _ = gmod.sub_quotient(m, {3: np.array([[1, 2, 1]])})
    assert sub.dims == {3: 1, 4: 2}
    assert not homology.is_relative_sub(m, incl)


def is_relative_sub_by_intersection(m: GradedModule, incl: ModuleMap) -> bool:
    """Oracle for is_relative_sub: builds mJ^k and LJ^k as subspaces and
    compares mJ^k ∩ L with LJ^k outright, k = 0 included."""
    sub = incl.source
    p = m.p
    m_power = {d: full_subspace(m.dim(d), p) for d in m.degrees}
    l_power = {d: full_subspace(sub.dim(d), p) for d in sub.degrees}
    image_l = {d: subspace_from_rows(incl.block(d), m.dim(d), p) for d in m.degrees}
    # J^(n+2) = 0, so past n + 2 steps both powers are zero
    loewy = min(m.max_deg - m.min_deg + 2, m.n_plus_1 + 1) if m.dims else 0
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
        m_power = radical_image(m, m_power)
        l_power = radical_image(sub, l_power)
    return True


def is_relative_sub_by_rank_count(m: GradedModule, incl: ModuleMap) -> bool:
    """Second oracle for is_relative_sub: LJ^k always lies in mJ^k ∩ L, so
    the two are equal exactly when dim mJ^k + dim L - rank[mJ^k; L] =
    dim LJ^k in every degree.  This holds at k = 0, and at every k once
    mJ^k = 0."""
    p = m.p
    image = {d: subspace_from_rows(incl.block(d), m.dim(d), p) for d in m.degrees}
    m_power = radical_image(m, {d: full_subspace(m.dim(d), p) for d in m.degrees})
    l_power = radical_image(m, image)
    while any(s.dim for s in m_power.values()):
        for d, s in m_power.items():
            both = la.rref(np.vstack([s.basis, image[d].basis]), p)[0]
            if s.dim + image[d].dim - both != l_power[d].dim:
                return False
        m_power, l_power = radical_image(m, m_power), radical_image(m, l_power)
    return True


def relative_battery():
    """(module, inclusion) pairs for n <= 3 and p in {5, P}: every submodule
    generated by one unit vector and every lowest_step layer of five modules,
    then three extensions and their syzygy_of_ses images."""
    cases = []
    for p in (5, P):
        for n in (1, 2, 3):
            point = cons.point_module(n + 1, np.eye(1, n + 1, dtype=np.int64)[0], p)
            free = gmod.free_module(n + 1, p, [0])
            p2 = cons.filtration_projective(n, 2, p)
            almost_split = cons.ar_sequence_middle(n, p)
            for m in (point, p2, free, gmod.square_truncate(free), almost_split.middle):
                for d in m.degrees:
                    for v in la.identity(m.dim(d)):
                        cases.append((m, gmod.sub_quotient(m, {d: v[None]})[1]))
                cur = m
                while not cur.is_zero():
                    _, incl, cur, _ = homology.lowest_step(cur)
                    cases.append((incl.target, incl))
            for ext in (
                almost_split,
                cons.universal_extension(point, point)[0],
                cons.universal_extension(p2, point)[0],
            ):
                incl_s = homology.syzygy_of_ses(ext.incl, ext.proj)[0]
                cases += [(ext.middle, ext.incl), (incl_s.target, incl_s)]
    return cases


def test_relative_sub_dimension_additivity_matches_both_oracles():
    verdicts = []
    for m, incl in relative_battery():
        got = homology.is_relative_sub(m, incl)
        assert got == is_relative_sub_by_intersection(m, incl)
        assert got == is_relative_sub_by_rank_count(m, incl)
        verdicts.append(got)
    assert len(verdicts) >= 300
    assert set(verdicts) == {True, False}


def test_weakly_koszul_linear_modules():
    assert is_weakly_koszul(point_module(3), 6)
    assert is_weakly_koszul(example_module_two_layer(), 6)


def test_weakly_koszul_socle_quotient_fails():
    # R modulo its socle has a non-linear second step over two variables
    r = gmod.free_module(2, P, [0])
    _, _, quot, _ = gmod.sub_quotient(r, {2: np.array([[1]])})
    assert not is_weakly_koszul(quot, 6)


def test_weakly_koszul_semisimple_mixed_degrees():
    s0 = gmod.simple_module(2, P, 0)
    s1 = gmod.simple_module(2, P, 2)
    total, _, _ = gmod.direct_sum(s0, s1)
    assert is_weakly_koszul(total, 6)


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
def test_zero_module_cover_and_regular_forms(n1):
    z = gmod.zero_module(n1, P)
    cover, epi = homology.projective_cover(z)
    assert cover == z
    assert (epi.source, epi.target, epi.blocks) == (cover, z, {})
    for form in np.eye(n1, dtype=np.int64):
        assert homology.regular_element_test(z, form)


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
def test_weakly_koszul_free_and_point_modules(n1):
    # each is generated in one degree, so one layer is the whole module
    assert is_weakly_koszul(gmod.free_module(n1, P, [0]))
    assert is_weakly_koszul(point_module(n1))


def test_syzygy_generation_degrees_shift_by_one():
    m = point_module(3)
    total, _, _ = gmod.direct_sum(m, gmod.shift(m, -1))
    assert top_degrees(total) == [0, 1]
    omega = homology.syzygy(total)
    assert top_degrees(omega) == [1, 2]


def test_regular_element_on_free_module():
    r = gmod.free_module(3, P, [0])
    assert homology.regular_element_test(r, np.array([1, 0, 0]))
    assert homology.regular_element_test(r, np.array([4, 1, 5]))


def test_regular_element_example_module():
    m = example_module_two_layer()
    assert homology.regular_element_test(m, np.array([0, 0, 1]))  # the z direction
    assert not homology.regular_element_test(m, np.array([1, 0, 0]))


def test_no_regular_elements_on_loewy_two_quotient():
    m = loewy_two_free_quotient(3)
    rng = np.random.default_rng(2)
    for _ in range(12):
        v = rng.integers(0, P, 3, dtype=np.int64)
        if not v.any():
            continue
        assert not homology.regular_element_test(m, v)


@pytest.fixture
def regular_tests(monkeypatch):
    """The module of every regular_element_test call."""
    seen = []
    real = homology.regular_element_test
    monkeypatch.setattr(homology, "regular_element_test", lambda m, v: seen.append(m) or real(m, v))
    return seen


def test_regular_search_skips_modules_of_nonzero_euler_characteristic(regular_tests):
    # sum_d (-1)^d dim M_d = 0 whenever a form acts exactly, so these
    # modules are not sampled at all
    for m in (gmod.simple_module(3, P), loewy_two_free_quotient(3), loewy_two_free_quotient(4)):
        assert homology.regular_sequence(m) == []
    assert regular_tests == []
    # the point module still yields n forms; its last quotient is k
    seq = homology.regular_sequence(point_module(4))
    assert len(seq) == 3
    assert {m.total_dim for m in regular_tests} == {8, 4, 2}


def test_complexity_searches_once(regular_tests, monkeypatch):
    m = twisted(cons.filtration_projective(2, 3, P), 2)
    seq = homology.regular_sequence(m, seed=4)
    one_search = len(regular_tests)
    assert one_search and len(seq) == 2
    steps = []
    real = homology._regular_steps
    monkeypatch.setattr(homology, "_regular_steps", lambda m, seed=0: steps.append(seed) or real(m, seed))
    regular_tests.clear()
    est = homology.complexity(m, depth=6, seed=4)
    assert steps == [4]
    assert len(regular_tests) == one_search
    assert (est.cx_regseq, est.cx_betti) == (1, 1)
    assert [v.tolist() for v in est.regular_sequence] == [v.tolist() for v in seq]


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        homology.regular_element_test(point_module(2), np.zeros(2, dtype=np.int64))


def test_complexity_point_module():
    est = homology.complexity(point_module(3), depth=8, seed=1)
    assert est.cx_regseq == 1
    assert est.cx_betti == 1
    assert est.cx_betti == est.cx_regseq


def test_complexity_example_module_is_two():
    est = homology.complexity(example_module_two_layer(), depth=10, seed=1)
    assert est.cx_regseq == 2
    assert est.cx_betti == 2


def test_complexity_loewy_two_quotient_and_its_form_quotient():
    m = loewy_two_free_quotient(3)
    est = homology.complexity(m, depth=10, seed=1)
    assert est.cx_regseq == 3
    assert est.cx_betti == 3
    mp = homology.quotient_by_form_image(m, np.array([1, 0, 0]))
    assert mp.total_dim == 3
    est2 = homology.complexity(mp, depth=10, seed=1)
    assert est2.cx_regseq == 3
    assert est2.cx_betti == 3


def test_complexity_of_free_and_simple():
    est = homology.complexity(gmod.free_module(2, P, [0]), depth=6, seed=0)
    assert est.cx_regseq == 0
    assert est.cx_betti == 0
    est = homology.complexity(gmod.simple_module(2, P, 0), depth=8, seed=0)
    assert est.cx_regseq == 2
    assert est.cx_betti == 2


def test_complexity_combines_the_two_routes():
    for m, depth in ((point_module(3), 8), (example_module_two_layer(), 10)):
        est = homology.complexity(m, depth=depth, seed=2)
        seq = homology.regular_sequence(m, seed=2)
        table = homology.minimal_resolution(m, depth)
        assert est.cx_regseq == m.n_plus_1 - len(seq)
        assert [v.tolist() for v in est.regular_sequence] == [v.tolist() for v in seq]
        assert est.cx_betti == homology.betti_complexity(table, m.n_plus_1)
        assert est.table.betti_numbers == table.betti_numbers


def test_betti_complexity_window():
    table = homology.BettiTable(6, [[0], [1] * 2, [2] * 3, [3] * 4, [4] * 5, [5] * 6, [6] * 7])
    assert homology.betti_complexity(table, 3) == 2
    assert homology.betti_complexity(homology.BettiTable(0, [[0]]), 3) is None
    zero_tail = homology.BettiTable(4, [[0], [], [], [], []])
    assert homology.betti_complexity(zero_tail, 2) == 0


def test_regular_element_test_eliminates_once_per_degree(monkeypatch):
    calls = []
    real = homology.rref
    monkeypatch.setattr(homology, "rref", lambda a, p: calls.append(a.shape) or real(a, p))
    m = point_module(3)
    assert homology.regular_element_test(m, np.array([0, 1, 0]))
    assert len(calls) <= len(m.degrees)


def test_relative_sub_and_regular_forms_skip_empty_degrees(monkeypatch):
    # point modules in degrees 0 and 10^9: the checks agree with the pieces
    # and never visit the empty degrees between them
    a = point_module(3)
    far = gmod.shift(point_module(3, 1), -(10**9))
    m, (ia, _), _ = gmod.direct_sum(a, far)
    calls = []

    def limited(real):
        def wrapped(*args):
            calls.append(real)
            assert len(calls) <= 100, "loop over empty degrees"
            return real(*args)

        return wrapped

    monkeypatch.setattr(gmod, "radical_powers", limited(gmod.radical_powers))
    monkeypatch.setattr(gmod.GradedModule, "form_action", limited(gmod.GradedModule.form_action))
    assert homology.is_relative_sub(m, ia)
    for form in ([1, 0, 0], [0, 1, 0], [1, 2, 3]):
        form = np.array(form)
        want = homology.regular_element_test(a, form) and homology.regular_element_test(far, form)
        assert homology.regular_element_test(m, form) == want
    assert calls


@pytest.fixture
def resolutions(monkeypatch):
    """Every (module, depth) pair homology.minimal_resolution is asked for."""
    seen = []
    real = homology.minimal_resolution

    def counting(m, depth=homology.DEFAULT_DEPTH):
        seen.append((modfile.serialize(m), depth))
        return real(m, depth)

    monkeypatch.setattr(homology, "minimal_resolution", counting)
    return seen


def test_regular_sequence_callers_build_no_resolution(resolutions):
    ext = cons.ar_sequence_middle(2, P)
    assert len(cons.cx1_filtration(ext.middle, seed=0)) == 2
    checks = verify.run_suite("relative", n=2)
    assert all(c.verdict == "PASS" for c in checks)
    assert resolutions == []


def test_examples_suite_searches_each_module_once(monkeypatch):
    # one complexity call per module: its resolution drops the forms its
    # own search found, so nothing searches a module a second time
    searched = []
    real = homology._regular_steps
    monkeypatch.setattr(
        homology, "_regular_steps", lambda m, seed=0: searched.append(modfile.serialize(m)) or real(m, seed)
    )
    checks = verify.run_suite("examples", n=3)
    assert all(c.verdict == "PASS" for c in checks)
    assert len(searched) == 7
    assert len(set(searched)) == len(searched)


def test_ar_translate_point_module():
    for n_plus_1 in (2, 3):
        m = point_module(n_plus_1)
        tau = homology.ar_translate(m)
        want = gmod.shift(m, n_plus_1 - 2)  # translate shifts by one less than n+1-1
        assert gmod.iso_probable(tau, want, seed=4).kind == "ISO"


def test_ar_translate_of_free_raises():
    with pytest.raises(homology.FreeModuleError):
        homology.ar_translate(gmod.free_module(2, P, [0]))


def test_ar_translate_of_simple_kronecker():
    s = gmod.simple_module(2, P, 0)
    tau = homology.ar_translate(s)
    omega2 = homology.syzygy(s, 2)
    assert tau.dims == gmod.shift(omega2, 2).dims
    assert tau.dims == {0: 3, 1: 2}


def test_syzygy_of_split_ses_is_exact():
    a = point_module(3)
    b = example_module_two_layer()
    total, (ia, _), (_, pb) = gmod.direct_sum(a, b)
    incl_s, proj_s, exact = homology.syzygy_of_ses(ia, pb)
    assert exact
    assert incl_s.commutes() and proj_s.commutes()
    assert homology.is_relative_sub(incl_s.target, incl_s)
