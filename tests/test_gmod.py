import numpy as np
import pytest

from exalg import constructions as cons
from exalg import gmod, homalg, verify
from exalg import linalg as la

P = la.DEFAULT_PRIME


def example_module_two_layer():
    """Four-dimensional module over three variables, Loewy length two.

    Basis e1, e2 in degree 0 and f1, f2 in degree 1, with
    e_i*x2 = f_i, e1*x0 = e2*x1 = 0, e1*x1 = f2, e2*x0 = f1.
    """
    x0 = np.array([[0, 0], [1, 0]])
    x1 = np.array([[0, 1], [0, 0]])
    x2 = np.array([[1, 0], [0, 1]])
    return gmod.GradedModule(3, P, {0: 2, 1: 2}, [{0: x0}, {0: x1}, {0: x2}])


def dual_map(f: gmod.ModuleMap) -> gmod.ModuleMap:
    """Contravariant dual of a map: dual(target) -> dual(source)."""
    blocks = {-d: mat.T for d, mat in f.blocks.items()}
    return gmod.ModuleMap(gmod.dual(f.target), gmod.dual(f.source), blocks)


def radical_square_quotient(n_plus_1):
    return gmod.square_truncate(gmod.free_module(n_plus_1, P, [0]))


def test_validate_free_module():
    assert gmod.validate(gmod.free_module(2, P, [0])) == []


def test_validate_reports_anticommutation():
    eye = np.eye(1, dtype=np.int64)
    bad = gmod.GradedModule(2, P, {0: 1, 1: 1, 2: 1}, [{0: eye, 1: eye}, {0: eye, 1: eye}])
    problems = gmod.validate(bad)
    assert any("anticommutation" in s for s in problems)
    assert any("square-zero" in s for s in problems)


def test_validate_example_module():
    assert gmod.validate(example_module_two_layer()) == []


def test_shift_zero_is_identity():
    m = example_module_two_layer()
    assert gmod.shift(m, 0) == m


def test_shift_roundtrip_exact():
    m = gmod.free_module(2, P, [0, 1])
    assert gmod.shift(gmod.shift(m, 3), -3) == m


def test_shift_of_free_module_socle():
    n_plus_1 = 3
    r1 = gmod.shift(gmod.free_module(n_plus_1, P, [0]), 1)
    socle = gmod.socle(r1)
    top_degree = max(d for d, s in socle.items() if s.dim)
    assert top_degree == n_plus_1 - 1
    assert socle[top_degree].dim == 1


def test_dual_of_simple_is_simple():
    s = gmod.simple_module(2, P, 0)
    assert gmod.dual(s) == s


def test_dual_of_free_reverses_binomials():
    n_plus_1 = 3
    r = gmod.free_module(n_plus_1, P, [0])
    d = gmod.dual(r)
    assert gmod.validate(d) == []
    for j in range(n_plus_1 + 1):
        assert d.dim(-j) == r.dim(j)


def test_dual_is_involutive():
    m = example_module_two_layer()
    assert gmod.dual(gmod.dual(m)) == m


def test_dual_of_example_module_dims():
    d = gmod.dual(example_module_two_layer())
    assert d.dims == {-1: 2, 0: 2}


def test_dual_map_is_contravariant():
    m = example_module_two_layer()
    f = gmod.free_module(3, P, [0])
    total, (ia, _), (pa, _) = gmod.direct_sum(m, f)
    for g in (ia, pa):
        dg = dual_map(g)
        assert dg.source.dims == gmod.dual(g.target).dims
        assert dg.target.dims == gmod.dual(g.source).dims
        assert dg.commutes()
    # contravariance: dual of a composite is the reversed composite
    comp = gmod.map_compose(ia, pa)
    lhs = dual_map(comp)
    rhs = gmod.map_compose(dual_map(pa), dual_map(ia))
    for d in set(lhs.blocks) | set(rhs.blocks):
        assert np.array_equal(lhs.block(d), rhs.block(d))


def test_free_module_dimension_tables():
    assert gmod.free_module(2, P, [0]).dims == {0: 1, 1: 2, 2: 1}
    assert gmod.free_module(3, P, [0]).dims == {0: 1, 1: 3, 2: 3, 3: 1}
    assert gmod.free_module(2, P, [0, 1]).dims == {0: 1, 1: 3, 2: 3, 3: 1}


def test_direct_sum_with_zero():
    m = example_module_two_layer()
    z = gmod.zero_module(3, P)
    total, (ia, ib), (pa, pb) = gmod.direct_sum(m, z)
    assert total == m
    assert ia.commutes() and pa.commutes()


def test_direct_sum_dims_add_and_maps_commute():
    m = example_module_two_layer()
    f = gmod.free_module(3, P, [0])
    total, (ia, ib), (pa, pb) = gmod.direct_sum(m, f)
    assert gmod.validate(total) == []
    for d in set(m.dims) | set(f.dims):
        assert total.dim(d) == m.dim(d) + f.dim(d)
    for g in (ia, ib, pa, pb):
        assert g.commutes()
    roundtrip = gmod.map_compose(ia, pa)
    ident = gmod.identity_map(m)
    for d in m.dims:
        assert np.array_equal(roundtrip.block(d), ident.block(d))


def test_is_short_exact_verdicts():
    m = example_module_two_layer()
    z = gmod.zero_module(3, P)
    total, (ia, ib), (pa, pb) = gmod.direct_sum(m, m)
    assert gmod.is_short_exact(ia, pb)
    # dimensions add up and the composite vanishes, but incl is not injective
    assert not gmod.is_short_exact(gmod.zero_map(m, total), pb)
    # incl injective, proj surjective, dimensions add up, composite nonzero
    assert not gmod.is_short_exact(ia, pa)
    # incl injective, proj onto zero, composite zero, dimensions short by m
    assert not gmod.is_short_exact(ia, gmod.zero_map(total, z))


def test_sub_quotient_full_generators_of_cyclic():
    r = gmod.free_module(2, P, [0])
    gen = np.array([1])
    sub, incl, quot, proj = gmod.sub_quotient(r, [(0, gen)])
    assert sub.dims == r.dims
    assert quot.is_zero()
    assert incl.commutes()


def test_sub_quotient_principal_ideal_in_kronecker_algebra():
    # inside the free algebra on x0, x1 the span of x0 is {1: 1, 2: 1}
    r = gmod.free_module(2, P, [0])
    gen = np.array([1, 0])  # x0 in the degree-1 monomial basis [x0, x1]
    sub, incl, quot, proj = gmod.sub_quotient(r, [(1, gen)])
    assert sub.dims == {1: 1, 2: 1}
    assert gmod.validate(sub) == []
    assert incl.commutes() and proj.commutes()
    for d in r.dims:
        assert sub.dim(d) + quot.dim(d) == r.dim(d)
    composed = gmod.map_compose(incl, proj)
    assert composed.is_zero()


def test_sub_quotient_by_socle_line_of_two_layer_algebra():
    m = radical_square_quotient(3)  # dims {0:1, 1:3}
    assert m.dims == {0: 1, 1: 3}
    z_image = np.array([0, 0, 1])
    sub, incl, quot, proj = gmod.sub_quotient(m, [(1, z_image)])
    assert sub.dims == {1: 1}
    assert quot.total_dim == 3
    assert quot.dims == {0: 1, 1: 2}


def test_socle_radical_of_free():
    r = gmod.free_module(3, P, [0])
    socle, radical = gmod.socle(r), next(gmod.radical_powers(r))
    assert [d for d, _ in gmod.top_generators(r)] == [0]
    assert socle[3].dim == 1
    assert all(socle[d].dim == 0 for d in (0, 1, 2))
    assert radical[0].dim == 0 and radical[1].dim == 3


def test_socle_radical_semisimple():
    m = gmod.GradedModule(2, P, {0: 2, 1: 1}, [{}, {}])
    socle, radical = gmod.socle(m), next(gmod.radical_powers(m))
    assert [d for d, _ in gmod.top_generators(m)] == [0, 0, 1]
    assert socle[0].dim == 2 and socle[1].dim == 1
    assert radical[0].dim == 0 and radical[1].dim == 0


def test_square_truncate_of_free():
    t = radical_square_quotient(3)
    assert t.dims == {0: 1, 1: 3}
    assert gmod.is_square_zero(t)


def test_square_truncate_idempotent_on_square_zero():
    m = example_module_two_layer()
    assert gmod.is_square_zero(m)
    assert gmod.square_truncate(m).dims == m.dims


def test_free_module_is_not_square_zero():
    # x0 x1 is a nonzero length-two product in E on three variables
    r = gmod.free_module(3, P, [0])
    assert not gmod.is_square_zero(r)
    t = radical_square_quotient(3)
    for mbar, nbar in ((r, t), (t, r)):
        with pytest.raises(ValueError, match="radical-square-zero"):
            homalg.ext1_square_zero(mbar, nbar)


def test_transport_of_free_is_isomorphic():
    r = gmod.free_module(2, P, [0])
    a = np.array([[1, 1], [0, 1]])
    t = gmod.transport(r, a)
    assert gmod.validate(t) == []
    verdict = gmod.iso_probable(r, t, seed=5)
    assert verdict.kind == "ISO"
    assert verdict.certificate.commutes()


def test_transport_rejects_singular_matrix():
    r = gmod.free_module(2, P, [0])
    with pytest.raises(ValueError):
        gmod.transport(r, np.array([[1, 1], [1, 1]]))


def test_iso_probable_identity_case():
    m = example_module_two_layer()
    verdict = gmod.iso_probable(m, m, seed=1)
    assert verdict.kind == "ISO"
    assert verdict.certificate.degreewise_bijective()


def test_iso_probable_detects_dimension_mismatch():
    m = example_module_two_layer()
    verdict = gmod.iso_probable(m, gmod.shift(m, 1), seed=1)
    assert verdict.kind == "NOT_ISO"
    assert "dimension" in verdict.witness


def test_iso_probable_zero_hom_witness():
    # a uniserial module vs the semisimple one in matching degrees: every map
    # kills degree 1, so Hom is nonzero and no map is invertible
    b = gmod.GradedModule(2, P, {0: 1, 1: 1}, [{0: np.array([[1]])}, {}])
    c = gmod.GradedModule(2, P, {0: 1, 1: 1}, [{}, {}])
    verdict = gmod.iso_probable(b, c, seed=1)
    assert verdict.kind == "UNDECIDED"


def test_iso_probable_zero_hom_space_is_not_iso():
    # point modules of distinct forms: equal dimensions and, by lemma 2.1,
    # no nonzero map between them
    a = cons.point_module(3, np.array([1, 0, 0]), P)
    b = cons.point_module(3, np.array([0, 1, 0]), P)
    assert a.dims == b.dims
    verdict = gmod.iso_probable(a, b)
    assert (verdict.kind, verdict.witness) == ("NOT_ISO", "Hom space is zero")
    assert verify._iso_kind(a, b, 0) == ("NOT_ISO", {"witness": "Hom space is zero"})


def hom_space_dense(a, b):
    """Reference Hom solver: one kernel computation on the full system."""
    p = a.p
    offset = {}
    total = 0
    for d in sorted(a.dims):
        if b.dim(d):
            offset[d] = total
            total += a.dim(d) * b.dim(d)
    if total == 0:
        return []
    rows = []
    for i in range(a.n_plus_1):
        for d in set(a.dims):
            md, md1 = a.dim(d), a.dim(d + 1)
            nd, nd1 = b.dim(d), b.dim(d + 1)
            if md == 0 or nd1 == 0:
                continue
            eq = la.zeros(md * nd1, total)
            if md1 and (d + 1) in offset:
                o = offset[d + 1]
                eq[:, o : o + md1 * nd1] = np.kron(a.action(i, d), la.identity(nd1))
            if nd and d in offset:
                o = offset[d]
                eq[:, o : o + md * nd] = (
                    eq[:, o : o + md * nd] - np.kron(la.identity(md), b.action(i, d).T)
                ) % p
            if eq.any():
                rows.append(eq)
    system = np.vstack(rows) if rows else la.zeros(0, total)
    ker = la.kernel_basis(system, p)
    return [gmod.map_from_flat(a, b, v) for v in ker.basis]


def hom_maps(a, b):
    """gmod.hom_space(a, b)'s basis as maps."""
    return [gmod.map_from_flat(a, b, v) for v in gmod.hom_space(a, b).basis]


def change_basis(m, d, g):
    """m with its degree-d basis moved by the invertible matrix g: an
    isomorphic module whose radical need not be a coordinate subspace."""
    k = m.dim(d)
    ginv = la.rref(np.hstack([g, la.identity(k)]), P)[1][:, k:]
    actions = [dict(acts) for acts in m.actions]
    for i, acts in enumerate(actions):
        acts[d - 1] = la.matmul_mod(m.action(i, d - 1), g, P)
        acts[d] = la.matmul_mod(ginv, m.action(i, d), P)
    return gmod.GradedModule(m.n_plus_1, P, m.dims, actions)


def hom_fixture_pairs():
    m = example_module_two_layer()
    r3 = gmod.free_module(3, P, [0])
    r2 = gmod.free_module(2, P, [0])
    t3 = radical_square_quotient(3)
    pairs = [
        (m, m),
        (m, r3),
        (r3, m),
        (r3, r3),
        (t3, m),
        (m, t3),
        (r2, gmod.shift(r2, 1)),
        (gmod.dual(m), m),
        (gmod.direct_sum(m, m)[0], m),
    ]
    sub, _, quot, _ = gmod.sub_quotient(r2, [(1, np.array([1, 0]))])
    pairs.append((sub, quot))
    pairs.append((quot, sub))
    # relations that land where the source is zero: k·x_i = 0 must force
    # the image of k into the socle of the target
    k = gmod.simple_module(3, P, 0)
    point = cons.point_module(3, [1, 0, 0], P)
    pairs += [(k, point), (k, r3), (point, gmod.shift(point, 1))]
    # a generator in degree 2 of the source, where the target is zero
    free02 = gmod.free_module(3, P, [0, 2])
    pairs += [(free02, t3), (free02, gmod.direct_sum(t3, gmod.shift(t3, -3))[0])]
    # a generator in degree 1 beside a radical off the coordinate axes
    free01 = gmod.free_module(2, P, [0, 1])
    moved = change_basis(free01, 1, np.array([[1, 2, 3], [0, 1, 4], [5, 0, 1]]))
    pairs += [(moved, free01), (free01, moved), (moved, moved)]
    return pairs


def test_hom_space_matches_dense_reference():
    for a, b in hom_fixture_pairs():
        fast = hom_maps(a, b)
        slow = hom_space_dense(a, b)
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            assert f.blocks.keys() == s.blocks.keys()
            for d in f.blocks:
                assert np.array_equal(f.block(d), s.block(d))
        for f in fast:
            assert f.commutes()


def test_hom_space_finds_the_generators_in_its_own_eliminations(monkeypatch):
    pairs = hom_fixture_pairs()

    def forbidden(m):
        raise AssertionError("hom_space asked top_generators")

    monkeypatch.setattr(gmod, "top_generators", forbidden)
    for a, b in pairs:
        got = gmod.hom_space(a, b)
        want = [gmod.flatten_map(f) for f in hom_space_dense(a, b)]
        assert np.array_equal(got.basis, np.array(want, dtype=np.int64).reshape(len(want), got.ambient))


def test_hom_dim_counts_the_candidates_without_flattening(monkeypatch):
    pairs = hom_fixture_pairs()
    for t in range(40):
        a, b = random_structured_module(1000 + t), random_structured_module(2000 + t)
        if a.n_plus_1 == b.n_plus_1:
            pairs.append((a, b))
    dims = [gmod.hom_space(a, b).dim for a, b in pairs]
    real = gmod._hom_solve

    def unflattened(a, b):
        u, _ = real(a, b)

        def flatten():
            raise AssertionError("the maps were flattened")

        return u, flatten

    monkeypatch.setattr(gmod, "_hom_solve", unflattened)
    assert [homalg.hom_dim(a, b) for a, b in pairs] == dims
    assert max(dims) > 1
    with pytest.raises(AssertionError, match="flattened"):
        gmod.hom_space(*pairs[dims.index(max(dims))])


def test_hom_of_free_rank_one_is_scalar():
    r = gmod.free_module(2, P, [0])
    assert homalg.hom_dim(r, r) == 1


def test_hom_with_zero_module():
    m = example_module_two_layer()
    z = gmod.zero_module(3, P)
    assert hom_maps(m, z) == []
    assert hom_maps(z, m) == []


def random_structured_module(seed):
    r = np.random.default_rng(seed)
    n1 = int(r.integers(2, 4))
    gens = sorted(int(r.integers(-3, 3)) for _ in range(int(r.integers(1, 4))))
    free = gmod.free_module(n1, P, gens)
    picks = []
    for _ in range(int(r.integers(1, 4))):
        degs = free.degrees
        d = int(degs[int(r.integers(0, len(degs)))])
        picks.append((d, r.integers(0, P, free.dim(d), dtype=np.int64)))
    sub, _, quot, _ = gmod.sub_quotient(free, picks)
    m = [sub, quot, free][int(r.integers(0, 3))]
    if int(r.integers(0, 2)):
        m = gmod.dual(m)
    if int(r.integers(0, 2)):
        m = gmod.shift(m, int(r.integers(-2, 3)))
    return m


def test_hom_space_matches_dense_on_random_structured_modules():
    done = 0
    for t in range(40):
        a = random_structured_module(1000 + t)
        b = random_structured_module(2000 + t)
        if a.n_plus_1 != b.n_plus_1:
            continue
        fast = hom_maps(a, b)
        slow = hom_space_dense(a, b)
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            for d in set(f.blocks) | set(s.blocks):
                assert np.array_equal(f.block(d), s.block(d))
        done += 1
    assert done > 10


def test_iso_probable_symmetric_verdicts():
    m = example_module_two_layer()
    r = gmod.free_module(3, P, [0])
    pairs = [(m, m), (r, gmod.transport(r, np.array([[1, 2, 0], [0, 1, 0], [3, 0, 1]]))),
             (m, gmod.shift(m, 1))]
    for a, b in pairs:
        fwd = gmod.iso_probable(a, b, seed=11)
        bwd = gmod.iso_probable(b, a, seed=11)
        assert fwd.kind == bwd.kind


def test_modulus_mismatch_raises():
    a = gmod.free_module(2, P, [0])
    b = gmod.free_module(2, 101, [0])
    with pytest.raises(gmod.ModulusMismatch):
        gmod.hom_space(a, b)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError, match="prime"):
        gmod.free_module(2, 32001, [0])
    with pytest.raises(ValueError, match="prime"):
        gmod.simple_module(2, 3, 0)
    with pytest.raises(ValueError, match="prime"):
        gmod.simple_module(2, 94906297, 0)  # the first prime above MAX_PRIME
    assert gmod.free_module(2, 94906249, [0]).p == 94906249  # the largest accepted


def test_negative_dimension_rejected():
    with pytest.raises(ValueError, match="negative dimension"):
        gmod.GradedModule(2, P, {0: 1, 1: -2}, [{}, {}])


def test_variable_count_must_be_positive():
    for n_plus_1 in (0, -1):
        with pytest.raises(ValueError, match="n_plus_1 must be positive"):
            gmod.GradedModule(n_plus_1, P, {}, [])
    assert gmod.zero_module(1, P).is_zero()


def test_validate_multiplies_only_stored_blocks(monkeypatch):
    # absent action blocks are zero; validate must not build them densely
    calls = []
    real = gmod.matmul_mod
    monkeypatch.setattr(gmod, "matmul_mod", lambda a, b, p: calls.append(1) or real(a, b, p))
    m = gmod.GradedModule(3, P, {0: 64, 1: 64, 2: 64}, [{}, {}, {}])
    assert gmod.validate(m) == []
    assert calls == []


def radical_image(m: gmod.GradedModule, spans: dict[int, la.Subspace]) -> dict[int, la.Subspace]:
    """Oracle for radical_powers: spans·J, one application of the radical to
    a graded subspace family of m."""
    p = m.p
    out: dict[int, la.Subspace] = {}
    for d in m.degrees:
        prev = spans.get(d - 1, la.zero_subspace(m.dim(d - 1), p)).basis
        rows = np.vstack([la.matmul_mod(prev, m.action(i, d - 1), p) for i in range(m.n_plus_1)])
        out[d] = la.subspace_from_rows(rows, m.dim(d), p)
    return out


def iterated_radical_powers(m: gmod.GradedModule) -> list[dict[int, la.Subspace]]:
    """mJ, mJ², ... by the oracle, up to and including the first zero power."""
    powers = [radical_image(m, {d: la.Subspace(k, la.identity(k), m.p) for d, k in m.dims.items()})]
    while any(s.dim for s in powers[-1].values()):
        powers.append(radical_image(m, powers[-1]))
    return powers


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
def test_free_module_radical_layers(n1):
    assert gmod.free_module(n1, P, []) == gmod.zero_module(n1, P)
    f = gmod.free_module(n1, P, [0, 0, 2])
    gens = {0: 2, 2: 1}
    rad = next(gmod.radical_powers(f))
    assert sorted(rad) == f.degrees
    for d, s in rad.items():
        assert (s.ambient, s.dim) == (f.dim(d), f.dim(d) - gens.get(d, 0))
    # m·J is J applied to the whole of m
    assert rad == iterated_radical_powers(f)[0]


def radical_power_fixtures(p):
    """(name, module) pairs: free, square-truncated, twisted, zero, and a
    sum whose pieces sit 10^9 degrees apart."""
    free = gmod.free_module(3, p, [0, 1])
    twist = np.array([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    gapped, _, _ = gmod.direct_sum(free, gmod.shift(gmod.free_module(3, p, [0]), -(10**9)))
    return [
        ("free", free),
        ("square truncation", gmod.square_truncate(free)),
        ("transport", gmod.transport(gmod.free_module(3, p, [0]), twist)),
        ("zero", gmod.zero_module(3, p)),
        ("degree gap", gapped),
    ]


@pytest.mark.parametrize("p", [5, P])
def test_radical_powers_match_the_iterated_oracle(p):
    for name, m in radical_power_fixtures(p):
        got = list(gmod.radical_powers(m))
        assert got == iterated_radical_powers(m), name
        assert not any(s.dim for s in got[-1].values()), name
        assert all(any(s.dim for s in power.values()) for power in got[:-1]), name
    assert list(gmod.radical_powers(gmod.zero_module(3, p))) == [{}]


@pytest.mark.parametrize("p", [5, P])
def test_top_generators_builds_only_the_first_radical_power(monkeypatch, p):
    # the first power needs no product; a second one would multiply
    def forbidden(*args):
        raise AssertionError("top_generators built a radical power past mJ")

    monkeypatch.setattr(gmod, "matmul_mod", forbidden)
    f = gmod.free_module(3, p, [0, 1])
    assert [d for d, _ in gmod.top_generators(f)] == [0, 1]
