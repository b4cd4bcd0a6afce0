"""
Acceptance gate: every numbered criterion at desk scale (n <= 3, d <= 4,
resolution depth <= 12, p = 32003), all equalities exact.  One printed
pass/fail line per criterion.
"""

import hashlib

import numpy as np
import pytest

from exalg import constructions as cons
from exalg import gmod, homology, modfile, verify
from exalg import linalg as la
from exalg.cli import cli_main
from test_linalg import random_matrix, subspace_intersection, subspace_sum

P = la.DEFAULT_PRIME

# sha256 of the canonical JSON verify report of each (suite, n) at seed 0:
# any change to the bytes a suite reports fails its criterion.
REPORT_SHA256 = {
    ("eisenbud", 2): "b078c282c706e3747dadb51672560c44b742a52de971ce73afdb3556ab89c54a",
    ("eisenbud", 3): "8ecf0acce33d393978974371e89b1febaee33a6940cab4b63c1921946b262851",
    ("lemma2.1", 2): "7df2c5d47fd753c90b2fe8e5a651f1a90cf16270b99854651949fa68e8c0fe9b",
    ("lemma2.1", 3): "9593ca3e207222b0ac981bdce6098362e9e92cb38cba30ce710340885c851be7",
    ("cor2.2", 2): "4a9c04d3b8630e8d68765a5265df6a70fdf1e37ed5a73bb05124d71a14a08622",
    ("cor2.2", 3): "60a0a4a4405c69bd85d0b15a40432bae057a982402ea80f6d282423dfe15bee5",
    ("examples", 2): "e29b6f39178541f7b88dcefada1bc260917ba159106efe2f04003dc7840eff61",
    ("examples", 3): "0a3adad2233fab99d1087eadfc3aca01f59e212d0e049f655b678f0786a055c3",
    ("pd", 2): "6b03255822f45fdb63148e3576122abe9028e176a7c6cf38cf6b39e7718a6278",
    ("pd", 3): "cc61a8eb8ac6d7a27194630f46502bd1307d4e221a7e621b527017185e018296",
    ("lemma2.7", 2): "6e3948f6b305adef9f375c245756e0be6e6dc63b3c1c60e5b8d5c5977300e4e2",
    ("lemma2.7", 3): "b336afeb6607e899fb5bc87884d0172806245475d37fac3d80e5fad655e41459",
    ("kronecker", 1): "955394f1c5ae7b1fb6ab586231697404e1855d034a94f36e94e69d95d83f11a9",
    ("tensor", 2): "d0f87b558814b1bdea24799be8446ecdfc8f2a908f7ddca740b19ac289da47c2",
    ("tensor", 3): "fdc3711d3990f03546bc5aaac8ad48fc30edfb6d04660a83b51aa02b009d17b0",
    ("relative", 2): "104bc03969a90aa22aad1f86d6ce905ce674ec4a11a829bda02a668f1e21c3e8",
    ("relative", 3): "f9ee39dbe61f0b5d1b650900689fb3a66b43a602eef33abdef771ff9ed524d4c",
    ("selfext", 2): "fab460aacc8357850ff8ce44d5ef66976376dadcd8e9d43be437569735dc2435",
    ("selfext", 3): "280509d388a99defb685b7ba037068a6f1cefa1e8a19891f92d139c008817570",
    ("phi", 2): "e1379f2dc4653278904c2045ee4af28e1158f93ac0cc6de47b46adae196662e1",
    # n=4, recorded with the degree-sweep Hom solver that gmod.hom_space
    # replaced; kronecker and phi run at a fixed n
    ("eisenbud", 4): "f75e3d2b16c82cc8ac0cf2b14bf6adcf50c297f2994973989507688f6b369729",
    ("examples", 4): "3c227ffc221e064b44917d15f379a7b05e663df447a936713046e8d1f7c0dece",
    ("lemma2.1", 4): "93dcac5fd8eaae1e5a5ea1f30ee26696a1907cd5b614cb9a87bf04cfc503663f",
    ("cor2.2", 4): "ac8624b2a59201845ea0821233129f704cf8b6e322def4d0a8e06839720f7466",
    ("pd", 4): "652066338612b8f520972b9a0bb6ac5460324ba5af819a32fe6b59a98a8773a5",
    ("lemma2.7", 4): "ea45fc8fb220c6a9c3f23a09eb610c43f67cda60bfb655dc1946c6162e370cfc",
    ("tensor", 4): "9e277add0628885d42d7f8063032f3b61510e1e8fe5da847f2787da0721095b9",
    ("relative", 4): "4ed53ab268a5c662cf0a4aa9573443180dcad39739e62875075ab9d48ecb8b65",
    ("selfext", 4): "35e3c5d2553f33f76a4405ad1c6ed64d66d758b4cddc37bc32a59977ffd778fc",
    # n=5, recorded once the resolution dropped regular sequences; every
    # check's expected value is the suite's closed form
    ("examples", 5): "8cc66435251392e5cbcfce0d45c49621c42e97a653a1712007b882eba937c00c",
    # recorded before the closed-form filtration projective was read off
    # E's multiplication table; both checks PASS
    ("lemma2.7", 5): "536cc3157bc91ddbf618cc4efc24d82215bace9a3dcdb5b5e68eb2d957bf0a18",
    # n=6, recorded before the resolution read every table off the Cartan
    # complex; every check PASSes
    ("examples", 6): "d4f2de54d582f290535f568604d9772b225f857ada6f117452c7f028bbbbc0b6",
    ("cor2.2", 6): "b9c3a718af1cb3c8e9d580747c78cb754281c0f4d0e0842a129b93f461b7c1ae",
    # n=7 and 8, recorded while every Gamma_j was built from exponent
    # vectors; every check PASSes
    ("examples", 7): "af2e600d184b250654e248de13348cc096fde9759a38444cc30b40fffb05b083",
    ("examples", 8): "6873574fa8ddab614874b8e012154861fa44be77df62dfd38c8fb3893e93604b",
    # recorded while is_relative_sub counted ranks of stacked radical
    # powers; every check PASSes
    ("relative", 5): "279441789978e14584c0a41644d3f0fd8952e9cf2323ed52384d1410d26a9a3f",
    # recorded while homalg read generator coordinates through an inverse on
    # RREF(W)'s pivots and walked the flattened Hom layout itself; every
    # check PASSes
    ("eisenbud", 5): "e7e9add73e05a2ff731c32476f17441847b79f131df0a1681a9e38b9c9b06fd5",
    ("lemma2.1", 5): "1c4ff9ae939daabac0a06c4ae06e9d88cffecb6f465964ccc976599958783053",
    ("cor2.2", 5): "f589491d58f1f422f3e001c199f6a6e3817e40f6544d8293851cf132ac8d83bf",
}


def _suites_pass(*runs, seed=0):
    failures = []
    total = 0
    for name, n in runs:
        checks = verify.run_suite(name, n=n, seed=seed)
        report = modfile.canonical_json(verify.report_dict(name, checks, n, seed, P))
        digest = hashlib.sha256(report.encode()).hexdigest()
        assert digest == REPORT_SHA256[(name, n)], f"verify report bytes changed: {name} n={n}"
        total += len(checks)
        failures.extend(c for c in checks if c.verdict != "PASS")
    return total, failures


def _report(capsys, num, name, total, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {status} ({total} checks)")
    for c in failures[:10]:
        print(f"    {c.verdict} {c.check_id} expected={c.expected!r} actual={c.actual!r}")
    assert not failures, f"acceptance criterion {num} failed ({len(failures)} of {total} checks)"


def test_criterion_01_syzygy_periodicity(capsys):
    total, bad = _suites_pass(("eisenbud", 2), ("eisenbud", 3))
    _report(capsys, 1, "syzygy periodicity of complexity-one fixtures", total, bad)


def test_criterion_02_stable_hom_table(capsys):
    total, bad = _suites_pass(("lemma2.1", 2), ("lemma2.1", 3))
    _report(capsys, 2, "stable hom dimensions between point-module shifts", total, bad)


def test_criterion_03_ext_vanishing_windows(capsys):
    total, bad = _suites_pass(("cor2.2", 2), ("cor2.2", 3))
    _report(capsys, 3, "first/second extension vanishing windows", total, bad)


def test_criterion_04_worked_fixtures(capsys):
    total, bad = _suites_pass(("examples", 2), ("examples", 3))
    _report(capsys, 4, "two-layer fixture, length-two quotient, span quotients", total, bad)


def test_criterion_05_filtration_projective_program(capsys):
    total, bad = _suites_pass(("pd", 2), ("pd", 3), ("lemma2.7", 2), ("lemma2.7", 3))
    _report(capsys, 5, "filtration projectives: dims, hom ladder, endomorphisms", total, bad)


def test_criterion_06_two_variable_case(capsys):
    total, bad = _suites_pass(("kronecker", 1))
    _report(capsys, 6, "two-variable family: diagonal stable homs, translate, uniserial", total, bad)


def test_criterion_07_tensor_laws(capsys):
    total, bad = _suites_pass(("tensor", 2), ("tensor", 3))
    _report(capsys, 7, "tensor shifts, exactness, sign laws", total, bad)


def test_criterion_08_relative_extension_laws(capsys):
    total, bad = _suites_pass(("relative", 2), ("relative", 3))
    _report(capsys, 8, "radical-compatible extensions and syzygy stability", total, bad)


def test_criterion_09_self_extensions(capsys):
    total, bad = _suites_pass(("selfext", 2), ("selfext", 3))
    _report(capsys, 9, "self-extensions of complexity-one fixtures", total, bad)


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the truncation map on first extensions is "
    "injective but not surjective once a module has nonzero structure forms; "
    "two independent computations of the square-zero side agree against the "
    "full-algebra side (see the decisions ledger for the dimension table and "
    "the lifting obstruction)",
)
def test_criterion_10_square_zero_truncation_iso(capsys):
    total, bad = _suites_pass(("phi", 2))
    _report(capsys, 10, "first extensions match over the square-zero truncation", total, bad)


def test_criterion_11_infrastructure(capsys, monkeypatch):
    failures = []
    # ModuleFile round-trips, bit-exact
    fixtures = [
        cons.point_module(3, np.array([1, 2, 3]), P),
        cons.filtration_projective(2, 3, P),
        gmod.free_module(3, P, [0, 2]),
        gmod.zero_module(2, P),
    ]
    for m in fixtures:
        text = modfile.serialize(m)
        if modfile.parse(text) != m or modfile.serialize(modfile.parse(text)) != text:
            failures.append("round-trip")
    # canonical verify output is byte-identical across runs
    argv = ["verify", "--suite", "all", "--n", "2", "--seed", "0", "--json"]
    cli_main(argv)
    out1 = capsys.readouterr().out
    cli_main(argv)
    out2 = capsys.readouterr().out
    if out1 != out2 or not out1:
        failures.append("verify-all-json-not-deterministic")
    # exact linear algebra property battery: 1000 seeded instances each
    rng = np.random.default_rng(123)
    for _ in range(1000):
        rows = int(rng.integers(0, 7))
        cols = int(rng.integers(0, 7))
        a = random_matrix(rng, rows, cols, P)
        rank = la.rref(a, P)[0]
        if rank != la.rref(a.T, P)[0]:
            failures.append("rank-transpose")
            break
        if la.kernel_basis(a, P).dim + rank != cols:
            failures.append("rank-nullity")
            break
    for _ in range(1000):
        amb = int(rng.integers(1, 6))
        u = la.subspace_from_rows(random_matrix(rng, int(rng.integers(0, 4)), amb, P), amb, P)
        w = la.subspace_from_rows(random_matrix(rng, int(rng.integers(0, 4)), amb, P), amb, P)
        s, i = subspace_sum(u, w), subspace_intersection(u, w)
        if s.dim + i.dim != u.dim + w.dim:
            failures.append("modular-law")
            break
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE 11 infrastructure (round-trip, determinism, linalg battery): {status}")
    assert not failures, failures


@pytest.mark.parametrize("name", [name for name, n in REPORT_SHA256 if n == 4])
def test_verify_report_pinned_at_n4(name):
    total, bad = _suites_pass((name, 4))
    assert total and not bad, [c.check_id for c in bad]


def test_examples_suite_at_n5():
    # depth 12; R modulo all six coordinate forms is k, of complexity six
    total, bad = _suites_pass(("examples", 5))
    assert total and not bad, [c.check_id for c in bad]


def test_lemma27_suite_at_n5():
    # the closed-form P^(d) modulo its deepest layer against the inductive
    # P^(d-1), at n=5
    total, bad = _suites_pass(("lemma2.7", 5))
    assert total and not bad, [c.check_id for c in bad]


def test_relative_suite_at_n5():
    # the extension class basis and the radical-compatibility check at n=5
    total, bad = _suites_pass(("relative", 5))
    assert total and not bad, [c.check_id for c in bad]


@pytest.mark.parametrize("name", ["eisenbud", "lemma2.1", "cor2.2"])
def test_paper_suites_pinned_at_n5(name):
    # syzygy periodicity, the stable Hom table (through the ptriv subspace)
    # and the Ext vanishing windows at n=5
    total, bad = _suites_pass((name, 5))
    assert total and not bad, [c.check_id for c in bad]


@pytest.mark.parametrize("name", [name for name, n in REPORT_SHA256 if n == 6])
def test_verify_report_pinned_at_n6(name):
    total, bad = _suites_pass((name, 6))
    assert total and not bad, [c.check_id for c in bad]


@pytest.mark.parametrize("n", [7, 8])
def test_examples_suite_pinned_at_n7_and_n8(n):
    # depth 2n+2 = 16 and 18; the largest modules are one degree deep, so
    # their rows are binomials and no Cartan differential is built
    total, bad = _suites_pass(("examples", n))
    assert total and not bad, [c.check_id for c in bad]


def test_examples_depth_settles_maximal_complexity_at_n4():
    # betti_complexity reads growth degree n+1 off depth >= 2n+2: R modulo all
    # five coordinate forms is k, of complexity five, and needs depth 10 at n=4
    depth = verify._depth_for(4)
    mu = cons.span_quotient(5, np.eye(5, dtype=np.int64), P)
    est = homology.complexity(mu, depth, 0)
    assert (est.cx_regseq, est.cx_betti) == (5, 5)
