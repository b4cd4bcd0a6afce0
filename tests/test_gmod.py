import tracemalloc
from bisect import bisect_left
from math import comb

import numpy as np
import pytest

from exalg import constructions as cons
from exalg import exterior, gmod, homalg, modfile, verify
from exalg import linalg as la
from exalg.linalg import Subspace, matmul_mod, subspace_from_rows

P = la.DEFAULT_PRIME


def top_degrees(m):
    """The degree of each top generator, one entry per generator."""
    return [d for d, sl in gmod.top_generators(m).items() for _ in sl]


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
    sub, incl, quot, proj = gmod.sub_quotient(r, {0: gen[None]})
    assert sub.dims == r.dims
    assert quot.is_zero()
    assert incl.commutes()


def test_sub_quotient_principal_ideal_in_kronecker_algebra():
    # inside the free algebra on x0, x1 the span of x0 is {1: 1, 2: 1}
    r = gmod.free_module(2, P, [0])
    gen = np.array([1, 0])  # x0 in the degree-1 monomial basis [x0, x1]
    sub, incl, quot, proj = gmod.sub_quotient(r, {1: gen[None]})
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
    sub, incl, quot, proj = gmod.sub_quotient(m, {1: z_image[None]})
    assert sub.dims == {1: 1}
    assert quot.total_dim == 3
    assert quot.dims == {0: 1, 1: 2}


def closure_subspaces(m: gmod.GradedModule, seeds: dict[int, list[np.ndarray]]) -> dict[int, Subspace]:
    """Smallest action-stable graded subspace containing the seed vectors."""
    p = m.p
    rows: dict[int, list[np.ndarray]] = {d: [np.asarray(v) % p for v in vs] for d, vs in seeds.items()}
    if not rows:
        return {}
    lo = min(rows)
    spans: dict[int, Subspace] = {}
    for d in [e for e in m.degrees if e >= lo]:
        here = rows.get(d, [])
        mat = np.array(here, dtype=np.int64).reshape(len(here), m.dim(d))
        spans[d] = subspace_from_rows(mat, m.dim(d), p)
        if spans[d].dim and m.dim(d + 1):
            nxt = rows.setdefault(d + 1, [])
            for i in range(m.n_plus_1):
                img = matmul_mod(spans[d].basis, m.action(i, d), p)
                nxt.extend(img)
    return {d: s for d, s in spans.items() if s.dim}


def sub_quotient_battery(p):
    """Seeded generator sets, {degree: rows}, in one to three degrees of
    six modules, with empty and all-zero batches and each module's top
    degree, whose successor is zero; the sum of a free module and a simple
    module in degree 5 has a gap above degree 2 as well."""
    rng = np.random.default_rng(p)
    mods = [
        gmod.free_module(3, p, [0, 1]),
        gmod.square_truncate(gmod.free_module(3, p, [0])),
        cons.point_module(3, [1, 2, 0], p),
        cons.filtration_projective(2, 2, p),
        cons.ar_sequence_middle(2, p).middle,
        gmod.direct_sum(gmod.free_module(2, p, [0]), gmod.simple_module(2, p, 5))[0],
    ]
    for m in mods:
        top = m.max_deg
        yield m, {top: rng.integers(0, p, (1, m.dim(top)), dtype=np.int64)}
        yield m, {m.min_deg: la.zeros(0, m.dim(m.min_deg))}
        yield m, {m.min_deg: la.zeros(2, m.dim(m.min_deg)), top: la.zeros(0, m.dim(top))}
        for _ in range(12):
            degs = rng.choice(m.degrees, size=min(len(m.degrees), int(rng.integers(1, 4))), replace=False)
            gens = {}
            for d in degs:
                rows = rng.integers(0, p, (int(rng.integers(0, 4)), m.dim(d)), dtype=np.int64)
                gens[int(d)] = rows * int(rng.integers(0, 4) > 0)
            yield m, gens


@pytest.mark.parametrize("p", [5, 7, P])
def test_sub_quotient_matches_the_closure_oracle(p):
    cases = 0
    for m, gens in sub_quotient_battery(p):
        spans = closure_subspaces(m, {d: list(rows) for d, rows in gens.items()})
        sub, incl, quot, proj = gmod.sub_quotient(m, gens)
        want_sub, want_incl = gmod.submodule_from_subspaces(m, spans)
        want_quot, want_proj = gmod.quotient_by_subspaces(m, spans)
        assert sub == want_sub and quot == want_quot, (m, gens)
        assert np.array_equal(gmod.flatten_map(incl), gmod.flatten_map(want_incl))
        assert np.array_equal(gmod.flatten_map(proj), gmod.flatten_map(want_proj))
        cases += 1
    assert cases == 6 * 15


def test_sub_quotient_rejects_a_batch_that_is_not_a_matrix_of_vectors():
    m = example_module_two_layer()
    with pytest.raises(ValueError, match="degree 0"):
        gmod.sub_quotient(m, {0: np.array([1, 0])})
    with pytest.raises(ValueError, match="degree 1"):
        gmod.sub_quotient(m, {1: np.array([[1, 0, 0]])})
    # an empty batch of the right width is a generator set
    assert gmod.sub_quotient(m, {1: la.zeros(0, 2)})[0].is_zero()


def test_graded_module_rejects_more_action_lists_than_variables():
    x = {0: [[1]]}
    with pytest.raises(ValueError, match="3 action lists for 2 variables"):
        gmod.GradedModule(2, P, {0: 1, 1: 1}, [{}, {}, x])
    # a shorter list still means zero actions for the variables it leaves out
    short = gmod.GradedModule(2, P, {0: 1, 1: 1}, [x])
    assert short == gmod.GradedModule(2, P, {0: 1, 1: 1}, [x, {}])
    assert not short.action(1, 0).any()


def test_socle_radical_of_free():
    r = gmod.free_module(3, P, [0])
    socle, radical = gmod.socle(r), next(gmod.radical_powers(r))
    assert top_degrees(r) == [0]
    assert socle[3].dim == 1
    assert all(socle[d].dim == 0 for d in (0, 1, 2))
    assert radical[0].dim == 0 and radical[1].dim == 3


def test_socle_radical_semisimple():
    m = gmod.GradedModule(2, P, {0: 2, 1: 1}, [{}, {}])
    socle, radical = gmod.socle(m), next(gmod.radical_powers(m))
    assert top_degrees(m) == [0, 0, 1]
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


def test_iso_probable_of_zero_modules():
    verdict = gmod.iso_probable(gmod.zero_module(3, P), gmod.zero_module(3, P))
    assert verdict and verdict.kind == "ISO" and verdict.certificate.blocks == {}


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
    sub, _, quot, _ = gmod.sub_quotient(r2, {1: np.array([[1, 0]])})
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


def test_split_flat_inverts_flatten_map_on_a_batch():
    skipped = 0
    for a, b in hom_fixture_pairs():
        basis = gmod.hom_space(a, b).basis
        blocks = gmod.split_flat(a, b, basis)
        assert list(blocks) == sorted(d for d in a.dims if b.dim(d))
        skipped += any(d + 1 not in blocks for d in list(blocks)[:-1])
        for d, blk in blocks.items():
            assert blk.shape == (len(basis), a.dim(d), b.dim(d))
            assert not blk.size or np.shares_memory(blk, basis)
        for i, v in enumerate(basis):
            f = gmod.ModuleMap(a, b, {d: blk[i] for d, blk in blocks.items()})
            assert np.array_equal(gmod.flatten_map(f), v)
            one = gmod.split_flat(a, b, v)
            assert all(np.array_equal(one[d], blk[i]) for d, blk in blocks.items())
    # a layout with a gap: a degree where the source lives and the target is zero
    assert skipped


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
    picks: dict[int, list[np.ndarray]] = {}
    for _ in range(int(r.integers(1, 4))):
        degs = free.degrees
        d = int(degs[int(r.integers(0, len(degs)))])
        picks.setdefault(d, []).append(r.integers(0, P, free.dim(d), dtype=np.int64))
    sub, _, quot, _ = gmod.sub_quotient(free, {d: np.array(vs) for d, vs in picks.items()})
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


def hom_solve_full_rref(a: gmod.GradedModule, b: gmod.GradedModule):
    """The Hom solver as it was before each degree's elimination stopped at
    A's columns: full RREF [R | T] of [A | I], relations in RREF with a 1 at
    their own word, and each block read through the r words off those.
    Returns (u, flatten) like gmod._hom_solve's (u, maps) without the slots."""
    gmod._check_compatible(a, b)
    p, n1 = a.p, a.n_plus_1
    if not gmod.hom_space_dim_layout(a, b):
        return la.zeros(0, 0), lambda: la.zeros(0, 0)
    words: dict[int, list[np.ndarray]] = {}  # generator degree -> monomial_rows of its generators
    units: dict[int, list[np.ndarray]] = {}  # the same for b's basis where b is nonzero
    # the candidates: one vector of b_(deg g) per generator g found so far, degrees ascending
    u = la.zeros(0, 0)
    reads = []  # (e, word positions, the matrix taking their images to the block)

    def images(e: int) -> np.ndarray:
        # (candidates, words, b_e): each candidate's images of the words in degree e
        parts, ofs = [np.zeros((len(u), 0, b.dim(e)), dtype=np.int64)], 0
        for d, w in words.items():
            g, bd = len(w[0]), b.dim(d)
            if 0 <= e - d <= n1:
                count = g * comb(n1, e - d)
                if bd:
                    ud = u[:, ofs : ofs + g * bd].reshape(-1, bd)
                    img = la.matmul_mod(ud, units[d][e - d].reshape(bd, -1), p)
                else:
                    img = la.zeros(len(u) * count, b.dim(e))
                parts.append(img.reshape(len(u), count, b.dim(e)))
            ofs += g * bd
        return np.concatenate(parts, axis=1)

    def along_words(mat: np.ndarray, imgs: np.ndarray) -> np.ndarray:
        # mat (r, words) applied along the word axis: (candidates, r, b_e)
        t, w, c = imgs.shape
        out = la.matmul_mod(mat, imgs.transpose(1, 0, 2).reshape(w, t * c), p)
        return out.reshape(len(mat), t, c).transpose(1, 0, 2)

    for e in sorted(d for d in set(a.dims) | set(b.dims) if d <= b.max_deg):
        ae, be = a.dim(e), b.dim(e)
        if ae:
            low = [w[e - d] for d, w in words.items() if e - d <= n1]
            nw = sum(len(x) for x in low)
            amat = np.vstack(low) if low else la.zeros(0, ae)
            _, red, piv = la.rref(np.hstack([amat, la.identity(nw)]), p)
            r = bisect_left(piv, ae)  # rows r.. have zero A part
            gens = np.delete(np.arange(ae), piv[:r])
            own = [c - ae for c in piv[r:]]  # each relation's own word
            rest = np.delete(np.arange(nw), own)
            if gens.size:
                words[e] = gmod.monomial_rows(a, e, la.identity(ae)[gens])
        if not be:
            continue
        if ae:
            if gens.size:
                units[e] = gmod.monomial_rows(b, e, la.identity(be))
                k = gens.size * be
                u = np.block([[u, la.zeros(len(u), k)], [la.zeros(k, u.shape[1]), la.identity(k)]])
            expr = la.zeros(ae, ae)
            expr[piv[:r], :r] = red[:r, ae + rest]
            expr[piv[:r], r:] = -red[:r, gens] % p
            expr[gens, r + np.arange(gens.size)] = 1
            reads.append((e, np.concatenate([rest, nw + np.arange(gens.size)]), expr))
            if not own:
                continue  # no relation lands in e
            imgs = images(e)
            constraints = (imgs[:, own] + along_words(red[r:, ae + rest], imgs[:, rest])) % p
        else:
            constraints = images(e)  # every word is a relation where a_e = 0
        if constraints.any():
            u = la.matmul_mod(gmod.left_kernel_basis(constraints.reshape(len(u), -1), p).basis, u, p)

    def flatten() -> np.ndarray:
        flat = [along_words(expr, images(e)[:, cols]).reshape(len(u), -1) for e, cols, expr in reads]
        return np.hstack(flat)

    return u, flatten


def hom_space_full_rref(a, b):
    u, flatten = hom_solve_full_rref(a, b)
    ambient = gmod.hom_space_dim_layout(a, b)
    if not len(u):
        return la.zero_subspace(ambient, a.p)
    return la.subspace_from_rows(flatten(), ambient, a.p)


def generator_above_target_pair():
    """A source with a generator in degree 2, above the target's top degree
    1, and a nonzero Hom space."""
    m = example_module_two_layer()
    return gmod.direct_sum(m, gmod.shift(m, -2))[0], m


def hom_oracle_pairs():
    # point modules and P(2): relations that land where the target has
    # socle, so each one cuts the candidates on its own
    points = [cons.point_module(3, np.array(f), P) for f in ([1, 0, 0], [0, 1, 0], [1, 2, 5])]
    pd2 = cons.filtration_projective(2, 2, P)
    pairs = hom_fixture_pairs() + [generator_above_target_pair(), (pd2, pd2), (pd2, points[0])]
    pairs += [(a, b) for a in points for b in points]
    for t in range(40):
        a, b = random_structured_module(1000 + t), random_structured_module(2000 + t)
        if a.n_plus_1 == b.n_plus_1:
            pairs.append((a, b))
    return pairs


def test_hom_solve_matches_the_full_rref_presentation():
    # the relations found at A's columns span the same left kernel, so u,
    # every dimension and every flattened map are the oracle's
    pairs = hom_oracle_pairs()
    assert len(pairs) > 30
    nonzero = 0
    for a, b in pairs:
        u, _ = hom_solve_full_rref(a, b)
        assert np.array_equal(gmod._hom_solve(a, b)[0], u)
        assert gmod.hom_dim(a, b) == len(u)
        got, want = gmod.hom_space(a, b), hom_space_full_rref(a, b)
        assert got == want and got.basis.dtype == want.basis.dtype
        nonzero += got.dim > 0
    assert nonzero >= 15


def test_hom_space_slots_are_the_top_generators_below_the_target_top():
    for a, b in hom_oracle_pairs():
        space = gmod.hom_space(a, b)
        if not space.dim:
            continue
        want = {d: s.tolist() for d, s in gmod.top_generators(a).items() if d <= b.max_deg and b.dim(d)}
        assert {d: s.tolist() for d, s in space.slots.items()} == want
    a, b = generator_above_target_pair()
    space = gmod.hom_space(a, b)
    assert space.dim and 2 in gmod.top_generators(a) and b.max_deg == 1
    assert list(space.slots) == [0]


def hom_solve_image_first(a: gmod.GradedModule, b: gmod.GradedModule):
    """The Hom solver as it was before the constraints came in slices: in
    each degree it builds every candidate's image of every word, one
    (candidates, words, b_e) array, and applies the relations to it.
    Returns (u, maps) like gmod._hom_solve's."""
    gmod._check_compatible(a, b)
    p, n1 = a.p, a.n_plus_1
    if not gmod.hom_space_dim_layout(a, b):
        return la.zeros(0, 0), lambda: (la.zeros(0, 0), {})
    words: dict[int, list[np.ndarray]] = {}  # generator degree -> monomial_rows of its generators
    units: dict[int, list[np.ndarray]] = {}  # the same for b's basis where b is nonzero
    # the candidates: one vector of b_(deg g) per generator g found so far, degrees ascending
    u = la.zeros(0, 0)
    reads = []  # (e, the matrix taking the images of e's words and generators to the block)
    slots: dict[int, np.ndarray] = {}

    def images(e: int) -> np.ndarray:
        # (candidates, words, b_e): each candidate's images of the words in degree e
        parts, ofs = [np.zeros((len(u), 0, b.dim(e)), dtype=np.int64)], 0
        for d, w in words.items():
            g, bd = len(w[0]), b.dim(d)
            if 0 <= e - d <= n1:
                count = g * comb(n1, e - d)
                if bd:
                    ud = u[:, ofs : ofs + g * bd].reshape(-1, bd)
                    img = la.matmul_mod(ud, units[d][e - d].reshape(bd, -1), p)
                else:
                    img = la.zeros(len(u) * count, b.dim(e))
                parts.append(img.reshape(len(u), count, b.dim(e)))
            ofs += g * bd
        return np.concatenate(parts, axis=1)

    def along_words(mat: np.ndarray, imgs: np.ndarray) -> np.ndarray:
        # mat (r, words) applied along the word axis: (candidates, r, b_e)
        t, w, c = imgs.shape
        out = la.matmul_mod(mat, imgs.transpose(1, 0, 2).reshape(w, t * c), p)
        return out.reshape(len(mat), t, c).transpose(1, 0, 2)

    for e in sorted(d for d in set(a.dims) | set(b.dims) if d <= b.max_deg):
        ae, be = a.dim(e), b.dim(e)
        if ae:
            low = [w[e - d] for d, w in words.items() if e - d <= n1]
            nw = sum(len(x) for x in low)
            amat = np.vstack(low) if low else la.zeros(0, ae)
            r, red, piv = la._rref_small(np.hstack([amat, la.identity(nw)]), p, ae)
            gens = np.delete(np.arange(ae), piv)
            if gens.size:
                words[e] = gmod.monomial_rows(a, e, la.identity(ae)[gens])
        if not be:
            continue
        if ae:
            if gens.size:
                slots[e] = gens
                units[e] = gmod.monomial_rows(b, e, la.identity(be))
                k = gens.size * be
                u = np.block([[u, la.zeros(len(u), k)], [la.zeros(k, u.shape[1]), la.identity(k)]])
            expr = la.zeros(ae, nw + gens.size)
            expr[piv, :nw] = red[:r, ae:]
            expr[piv, nw:] = -red[:r, gens] % p
            expr[gens, nw + np.arange(gens.size)] = 1
            reads.append((e, expr))
            if r == nw:
                continue  # no relation lands in e
            cons_ = along_words(red[r:, ae:], images(e)[:, :nw])
        else:
            cons_ = images(e)  # every word is a relation where a_e = 0
        if cons_.any():
            u = la.matmul_mod(la.left_kernel_basis(cons_.reshape(len(u), -1), p).basis, u, p)

    def maps() -> tuple[np.ndarray, dict[int, np.ndarray]]:
        flat = [along_words(expr, images(e)).reshape(len(u), -1) for e, expr in reads]
        return np.hstack(flat), slots

    return u, maps


def hom_space_image_first(a, b):
    u, maps = hom_solve_image_first(a, b)
    ambient = gmod.hom_space_dim_layout(a, b)
    if not len(u):
        return len(u), gmod.HomSubspace(ambient, la.zeros(0, ambient), a.p)
    flat, slots = maps()
    return len(u), gmod.HomSubspace(ambient, la.subspace_from_rows(flat, ambient, a.p).basis, a.p, slots)


def test_sliced_hom_solve_matches_the_image_first_oracle(monkeypatch):
    # one column of b_e per slice at bound 1, a few at 40: the kernel of
    # [C_1 | C_2] is the kernel of C_1 followed by that of C_2 on the
    # survivors, so the dimension, the RREF basis and the slots are the
    # oracle's whatever the slices; hom_oracle_pairs holds hom_fixture_pairs
    # and the random structured modules, and on P^(3) each slice cuts again
    pd3 = gmod.transport(cons.filtration_projective(2, 3, P), np.array([[1, 2, 3], [0, 1, 4], [5, 0, 1]]))
    pairs = hom_oracle_pairs() + [(pd3, pd3), (cons.filtration_projective(2, 2, P), pd3)]
    want = [hom_space_image_first(a, b) for a, b in pairs]
    assert sum(dim > 0 for dim, _ in want) >= 15
    kernels = []
    real = gmod.left_kernel_basis
    monkeypatch.setattr(gmod, "left_kernel_basis", lambda mat, p: kernels.append(1) or real(mat, p))
    cuts = []
    for bound in (gmod.SLICE_ENTRIES, 40, 1):
        monkeypatch.setattr(gmod, "SLICE_ENTRIES", bound)
        kernels.clear()
        for (a, b), (dim, space) in zip(pairs, want):
            assert gmod.hom_dim(a, b) == dim
            got = gmod.hom_space(a, b)
            assert got == space and got.basis.dtype == space.basis.dtype
            assert {d: s.tolist() for d, s in got.slots.items()} == {d: s.tolist() for d, s in space.slots.items()}
        cuts.append(len(kernels))
    # a smaller bound cuts the candidates in more slices
    assert cuts[0] < cuts[1] <= cuts[2]


def test_hom_space_of_p3_stays_small_in_memory():
    # P^(3) at n = 3: the relations meet the unit words before any
    # candidate does, so no (candidates, words, b_e) image array is built
    m = cons.filtration_projective(3, 3, P)
    gmod.hom_space(m, m)
    tracemalloc.start()
    try:
        space = gmod.hom_space(m, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dim == 10
    assert peak < 2_000_000


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


def is_square_zero_by_products(m: gmod.GradedModule) -> bool:
    """Oracle for is_square_zero: every length-two product of action
    matrices, (n+1)² per degree."""
    for d in m.degrees:
        for i in range(m.n_plus_1):
            for j in range(m.n_plus_1):
                if np.any(gmod._product(m, i, j, d)):
                    return False
    return True


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


def algebra_dim(n_plus_1: int, degree: int) -> int:
    return comb(n_plus_1, degree) if 0 <= degree <= n_plus_1 else 0


def free_module_by_running_offsets(n_plus_1: int, p: int, generator_degrees) -> gmod.GradedModule:
    """Oracle for free_module: each degree's blocks placed by running row and
    column counters over every generator."""
    gens = sorted(int(g) for g in generator_degrees)
    gen_mats = exterior.generator_matrices(n_plus_1, p)
    dims: dict[int, int] = {}
    for g in gens:
        for j in range(n_plus_1 + 1):
            dims[g + j] = dims.get(g + j, 0) + comb(n_plus_1, j)
    actions: list[dict[int, np.ndarray]] = [{} for _ in range(n_plus_1)]
    for i in range(n_plus_1):
        for d in sorted(dims):
            mat = la.zeros(dims[d], dims.get(d + 1, 0))
            r0 = 0
            c0 = 0
            for g in gens:
                br = algebra_dim(n_plus_1, d - g)
                bc = algebra_dim(n_plus_1, d + 1 - g)
                if br and bc:
                    mat[r0 : r0 + br, c0 : c0 + bc] = gen_mats[i][d - g]
                r0 += br
                c0 += bc
            actions[i][d] = mat
    return gmod.GradedModule(n_plus_1, p, dims, actions)


@pytest.mark.parametrize("p", [5, P])
def test_free_module_matches_the_running_offset_oracle(p):
    # empty, repeated, negative and widely spread generator degrees
    for gens in ([], [0], [0, 0], [-3], [2, -1, 2], [0, 1, 5], [-2, -2, -1]):
        for n1 in range(1, 6):
            got = modfile.serialize(gmod.free_module(n1, p, gens))
            assert got == modfile.serialize(free_module_by_running_offsets(n1, p, gens)), (gens, n1)


def radical_power_fixtures(p):
    """(name, module) pairs: free, square-truncated, twisted, zero, and a
    sum whose pieces sit 10^9 degrees apart."""
    free = gmod.free_module(3, p, [0, 1])
    twist = np.array([[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    gapped, _, _ = gmod.direct_sum(free, gmod.shift(gmod.free_module(3, p, [0]), -(10**9)))
    point = cons.point_module(3, [1, 0, 0], p)
    proj2, proj3 = cons.filtration_projective_explicit(2, 2, p), cons.filtration_projective_explicit(1, 3, p)
    return [
        ("free", free),
        ("square truncation", gmod.square_truncate(free)),
        ("transport", gmod.transport(gmod.free_module(3, p, [0]), twist)),
        ("zero", gmod.zero_module(3, p)),
        ("degree gap", gapped),
        ("zero, one variable", gmod.zero_module(1, p)),
        ("simple", gmod.simple_module(3, p)),
        ("simple in degree -2", gmod.simple_module(2, p, -2)),
        ("semisimple", gmod.GradedModule(2, p, {0: 2, 1: 1}, [{}, {}])),
        ("free, one variable", gmod.free_module(1, p, [0, 3])),
        ("free, two variables", gmod.free_module(2, p, [-1])),
        ("square truncation, four variables", gmod.square_truncate(gmod.free_module(4, p, [0, 0, 2]))),
        ("P(2) over two letters", proj2),
        ("square truncation of P(2)", gmod.square_truncate(proj2)),
        ("P(3) over one letter", proj3),
        ("square truncation of P(3)", gmod.square_truncate(proj3)),
        ("point module", point),
        ("dual point module", gmod.dual(point)),
        ("point ⊗ square truncation", cons.tensor(point, gmod.square_truncate(free))),
        ("square truncation ⊗ square truncation", cons.tensor(*[gmod.square_truncate(free)] * 2)),
    ]


@pytest.mark.parametrize("p", [5, P])
def test_radical_powers_match_the_iterated_oracle(p):
    verdicts = []
    for name, m in radical_power_fixtures(p):
        got = list(gmod.radical_powers(m))
        assert got == iterated_radical_powers(m), name
        assert not any(s.dim for s in got[-1].values()), name
        assert all(any(s.dim for s in power.values()) for power in got[:-1]), name
        verdicts.append(gmod.is_square_zero(m))
        assert verdicts[-1] == is_square_zero_by_products(m), name
    assert list(gmod.radical_powers(gmod.zero_module(3, p))) == [{}]
    assert len(verdicts) >= 20 and set(verdicts) == {True, False}


@pytest.mark.parametrize("p", [5, P])
def test_top_generators_builds_only_the_first_radical_power(monkeypatch, p):
    # the first power needs no product; a second one would multiply
    def forbidden(*args):
        raise AssertionError("top_generators built a radical power past mJ")

    monkeypatch.setattr(gmod, "matmul_mod", forbidden)
    f = gmod.free_module(3, p, [0, 1])
    assert top_degrees(f) == [0, 1]
