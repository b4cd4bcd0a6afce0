"""
Named verification suites.

Every check records what was computed, what was expected, and a verdict;
reports are deterministic given (p, n, seed) and are sorted by check id
before emission.  Isomorphism checks report the randomized verdict as-is:
UNDECIDED is never silently coerced to pass or fail.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import constructions as cons
from . import gmod, homalg, homology

_X12_CLAIM = "four-dimensional two-layer fixture over three variables"


def _depth_for(n: int) -> int:
    return 12 if n <= 2 else 8


def _e(n_plus_1: int, i: int) -> np.ndarray:
    v = np.zeros(n_plus_1, dtype=np.int64)
    v[i] = 1
    return v


def _generic(n_plus_1: int) -> np.ndarray:
    return np.arange(1, n_plus_1 + 1, dtype=np.int64)


@dataclass
class CheckResult:
    check_id: str
    claim: str
    params: dict
    expected: object
    actual: object
    verdict: str
    seed: int
    wall_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "claim": self.claim,
            "params": self.params,
            "expected": self.expected,
            "actual": self.actual,
            "verdict": self.verdict,
            "seed": self.seed,
            # times vary run to run; the canonical report leaves them out
            "wall_time": None,
        }


@dataclass
class Suite:
    name: str
    n: int
    seed: int
    p: int
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check_id: str, claim: str, expected, actual, **params) -> None:
        self.timed(check_id, claim, expected, lambda: actual, **params)

    def timed(self, check_id: str, claim: str, expected, thunk, **params) -> None:
        t = time.perf_counter()
        actual = thunk()
        wall = (time.perf_counter() - t) * 1000.0
        if isinstance(actual, tuple) and len(actual) == 2 and isinstance(actual[1], dict):
            actual, extra = actual
            params = {**params, **extra}
        if actual == "UNDECIDED":
            verdict = "UNDECIDED"
        else:
            verdict = "PASS" if expected == actual else "FAIL"
        self.checks.append(
            CheckResult(check_id, claim, params, expected, actual, verdict, self.seed, wall)
        )


def _iso_kind(a, b, seed):
    """Verdict plus evidence: a certificate fingerprint or a witness."""
    v = gmod.iso_probable(a, b, seed=seed)
    extra = {}
    if v.kind == "ISO" and v.certificate is not None:
        h = hashlib.sha256()
        for d in sorted(v.certificate.blocks):
            h.update(str(d).encode())
            h.update(v.certificate.block(d).tobytes())
        extra["certificate"] = h.hexdigest()[:16]
    elif v.kind == "NOT_ISO":
        extra["witness"] = v.witness
    return v.kind, extra


def _point(n: int, p: int, form=None) -> gmod.GradedModule:
    if form is None:
        form = _e(n + 1, 0)
    return cons.point_module(n + 1, form, p)


def suite_eisenbud(n: int, seed: int, p: int) -> Suite:
    s = Suite("eisenbud", n, seed, p)
    m = _point(n, p)
    fixtures = [
        ("point", m),
        ("almost-split-middle", cons.ar_sequence_middle(n, p).middle),
        ("filtration-projective-2", cons.filtration_projective(n, 2, p)),
    ]
    for name, mod in fixtures:
        s.timed(
            f"eisenbud:n={n}:{name}",
            "the first syzygy of a complexity-one module is the module shifted by -1",
            "ISO",
            lambda mod=mod: _iso_kind(homology.syzygy(mod, 1), gmod.shift(mod, -1), seed),
            fixture=name,
        )
    return s


def suite_lemma21(n: int, seed: int, p: int) -> Suite:
    s = Suite("lemma2.1", n, seed, p)
    m = _point(n, p)
    others = {"axis": _point(n, p, _e(n + 1, n)), "generic": _point(n, p, _generic(n + 1))}
    s.timed(
        f"lemma2.1:n={n}:end-dim",
        "the point module has a one-dimensional endomorphism space",
        1,
        lambda: homalg.hom_dim(m, m),
    )
    for name, other in others.items():
        s.timed(
            f"lemma2.1:n={n}:hom-distinct-{name}",
            "maps between distinct point modules vanish",
            0,
            lambda other=other: homalg.hom_dim(m, other),
        )
    for i in range(-2, n + 3):
        want = comb(n, i) if 0 <= i <= n else 0
        s.timed(
            f"lemma2.1:n={n}:stable-self:i={i:+d}",
            "stable maps into shifts of one point module have binomial dimension",
            want,
            lambda i=i: homalg.stable_hom_dim(m, gmod.shift(m, i)),
            shift=i,
        )
    for name, other in others.items():
        for i in range(-(n + 1), n + 2):
            s.timed(
                f"lemma2.1:n={n}:stable-distinct-{name}:i={i:+d}",
                "stable maps between distinct point modules vanish in every shift",
                0,
                lambda other=other, i=i: homalg.stable_hom_dim(m, gmod.shift(other, i)),
                shift=i,
            )
    for j in (1, 2, -(n + 1), -(n + 2)):
        s.timed(
            f"lemma2.1:n={n}:hom-shifted:j={j:+d}",
            "maps out of far shifts of the point module vanish",
            0,
            lambda j=j: homalg.hom_dim(gmod.shift(m, j), m),
            shift=j,
        )
    return s


def suite_cor22(n: int, seed: int, p: int) -> Suite:
    s = Suite("cor2.2", n, seed, p)
    m = _point(n, p)
    s.timed(
        f"cor2.2:n={n}:ext1-dim",
        "first self-extensions of the point module form an n-dimensional space",
        n,
        lambda: homalg.ext_dim(m, m, 1),
    )
    for i in range(-3, n + 2):
        s.timed(
            f"cor2.2:n={n}:ext1-nonzero:i={i:+d}",
            "first extensions into the shift exist exactly for shifts -1..n-1",
            0 <= i + 1 <= n,
            lambda i=i: homalg.ext_dim(m, gmod.shift(m, i), 1) > 0,
            shift=i,
        )
        s.timed(
            f"cor2.2:n={n}:ext2-nonzero:i={i:+d}",
            "second extensions into the shift exist exactly for shifts -2..n-2",
            0 <= i + 2 <= n,
            lambda i=i: homalg.ext_dim(m, gmod.shift(m, i), 2) > 0,
            shift=i,
        )
    def locus():
        out = []
        for i in range(-3, n + 2):
            if homalg.ext_dim(m, gmod.shift(m, i), 1) and not homalg.ext_dim(m, gmod.shift(m, i), 2):
                out.append(i)
        return out

    s.timed(
        f"cor2.2:n={n}:ext1-not-ext2-locus",
        "the only shift with first but no second extensions is n-1",
        [n - 1],
        locus,
    )
    return s


def _two_layer_fixture(p: int) -> gmod.GradedModule:
    x0 = np.array([[0, 0], [1, 0]])
    x1 = np.array([[0, 1], [0, 0]])
    x2 = np.array([[1, 0], [0, 1]])
    return gmod.GradedModule(3, p, {0: 2, 1: 2}, [{0: x0}, {0: x1}, {0: x2}])


def _cx_regseq(m: gmod.GradedModule, seed: int) -> int:
    return m.n_plus_1 - len(homology.regular_sequence(m, seed=seed))


def _cx_pair(m: gmod.GradedModule, table: homology.BettiTable, seed: int) -> tuple:
    """(cx_regseq, cx_betti) of m, the Betti route read off m's resolution."""
    return _cx_regseq(m, seed), homology.betti_complexity(table, m.n_plus_1)


def suite_examples(n: int, seed: int, p: int) -> Suite:
    s = Suite("examples", n, seed, p)
    depth = _depth_for(n)
    m12 = _two_layer_fixture(p)
    s.add(
        "examples:two-layer:valid",
        f"{_X12_CLAIM} satisfies the module axioms",
        [],
        gmod.validate(m12),
    )
    table12 = homology.minimal_resolution(m12, 12)
    s.add("examples:two-layer:linear", f"{_X12_CLAIM} is linear", True, table12.is_linear())
    s.timed(
        "examples:two-layer:z-regular",
        f"{_X12_CLAIM} has the last variable acting exactly",
        True,
        lambda: homology.regular_element_test(m12, np.array([0, 0, 1])),
    )
    s.add(
        "examples:two-layer:cx",
        f"{_X12_CLAIM} has complexity two by both measurements",
        (2, 2),
        _cx_pair(m12, table12, seed),
    )
    window = table12.betti_numbers[6:]
    diffs = [b - a for a, b in zip(window, window[1:])]
    s.add(
        "examples:two-layer:betti-linear",
        f"{_X12_CLAIM} has linearly growing Betti numbers",
        True,
        len(set(diffs)) == 1 and diffs[0] > 0,
        window=window,
    )
    mloewy = gmod.square_truncate(gmod.free_module(3, p, [0]))
    rng = np.random.default_rng(seed)
    forms = [_e(3, i) for i in range(3)] + [rng.integers(0, p, 3, dtype=np.int64) for _ in range(6)]
    s.add(
        "examples:loewy-two:no-regular",
        "the length-two quotient of the free algebra on three variables has no exact form",
        False,
        any(homology.regular_element_test(mloewy, f) for f in forms if f.any()),
    )
    s.add(
        "examples:loewy-two:cx",
        "that quotient has maximal complexity three",
        (3, 3),
        _cx_pair(mloewy, homology.minimal_resolution(mloewy, 12), seed),
    )
    mprime = homology.quotient_by_form_image(mloewy, _e(3, 0))
    s.add(
        "examples:loewy-two:form-quotient-dim",
        "its quotient by one form image is three-dimensional",
        3,
        mprime.total_dim,
    )
    s.add(
        "examples:loewy-two:form-quotient-cx",
        "that quotient still has complexity three",
        (3, 3),
        _cx_pair(mprime, homology.minimal_resolution(mprime, 12), seed),
    )
    for k in range(1, n + 2):
        forms_k = np.eye(n + 1, dtype=np.int64)[:k]
        mu = cons.span_quotient(n + 1, forms_k, p)
        table = homology.minimal_resolution(mu, depth)
        s.add(
            f"examples:span-quotient:n={n}:k={k}:linear",
            "quotients by coordinate subspaces are linear",
            True,
            table.is_linear(),
            span_dim=k,
            depth=depth,
        )
        s.add(
            f"examples:span-quotient:n={n}:k={k}:cx",
            "the complexity of a span quotient is the span dimension",
            (k, k),
            _cx_pair(mu, table, seed),
            span_dim=k,
            depth=depth,
        )
    return s


def suite_pd(n: int, seed: int, p: int) -> Suite:
    s = Suite("pd", n, seed, p)
    dmax = 4 if n <= 2 else 3
    m = _point(n, p)
    m1 = gmod.shift(m, 1)
    for d in range(1, dmax + 1):
        pd = cons.filtration_projective(n, d, p)
        s.add(
            f"pd:n={n}:d={d}:dim",
            "the filtration projective has dimension 2^n times the count of low-degree monomials",
            2 ** n * sum(comb(n + t - 1, t) for t in range(d)),
            pd.total_dim,
            d=d,
        )
        hs = homalg.hom_basis(pd, m1)
        s.add(
            f"pd:n={n}:d={d}:hom-dim",
            "maps to the shifted point module count monomials of degree 1..d",
            sum(comb(n + j - 1, j) for j in range(1, d + 1)),
            hs.dim,
            d=d,
        )
        s.add(
            f"pd:n={n}:d={d}:ptriv-dim",
            "the projectively-trivial part counts monomials of degree 1..d-1",
            sum(comb(n + j - 1, j) for j in range(1, d)),
            hs.ptriv.dim,
            d=d,
        )
        ext1 = homalg.ext_dim(pd, m, 1)
        s.add(
            f"pd:n={n}:d={d}:ext1-dim",
            "first extensions by the point module count degree-d monomials",
            comb(n + d - 1, d),
            ext1,
            d=d,
        )
        s.add(
            f"pd:n={n}:d={d}:ladder-consistent",
            "hom minus trivial equals the extension count",
            hs.dim - hs.ptriv.dim,
            ext1,
            d=d,
        )
        alg = homalg.end_algebra(pd)
        s.add(
            f"pd:n={n}:d={d}:end-fingerprint",
            "the endomorphism algebra is the truncated polynomial algebra on n letters",
            True,
            homalg.truncated_poly_fingerprint(alg, n, d),
            d=d,
            end_dim=alg.dim,
        )
        s.timed(
            f"pd:n={n}:d={d}:explicit-matches-inductive",
            "the closed-form presentation agrees with the inductive construction",
            "ISO",
            lambda: _iso_kind(cons.filtration_projective_explicit(n, d, p), pd, seed),
            d=d,
        )
    return s


def suite_lemma27(n: int, seed: int, p: int) -> Suite:
    s = Suite("lemma2.7", n, seed, p)
    dmax = 4 if n <= 2 else 3
    for d in range(2, dmax + 1):
        s.timed(
            f"lemma2.7:n={n}:d={d}",
            "the filtration projective modulo its deepest layer is the previous one",
            "ISO",
            lambda d=d: _iso_kind(
                cons.explicit_top_layer_quotient(n, d, p),
                cons.filtration_projective(n, d - 1, p),
                seed,
            ),
            d=d,
        )
    return s


def suite_kronecker(n: int, seed: int, p: int) -> Suite:
    s = Suite("kronecker", 1, seed, p)
    simple = gmod.simple_module(2, p, 0)
    s.timed(
        "kronecker:simple-self-ext",
        "the simple module over two variables has no first self-extension",
        0,
        lambda: homalg.ext_dim(simple, simple, 1),
    )
    members = {i: cons.kronecker_family(i, -i, p) for i in range(-3, 4)}
    for i, a in members.items():
        for j, b in members.items():
            s.timed(
                f"kronecker:stable-hom:i={i:+d}:j={j:+d}",
                "normalized syzygy-family members have stable maps only to themselves",
                1 if i == j else 0,
                lambda a=a, b=b: homalg.stable_hom_dim(a, b),
                i=i,
                j=j,
            )
    m = _point(1, p)
    s.timed(
        "kronecker:translate-fixes-point",
        "the translate fixes point modules over two variables",
        "ISO",
        lambda: _iso_kind(homology.ar_translate(m), m, seed),
    )
    radical = gmod.radical_subspaces(m)
    s.add(
        "kronecker:point-uniserial",
        "the point module over two variables is uniserial of graded length two",
        {"dims": {0: 1, 1: 1}, "radical": [0, 1]},
        {"dims": dict(m.dims), "radical": [radical[0].dim, radical[1].dim]},
    )
    return s


def suite_tensor(n: int, seed: int, p: int) -> Suite:
    s = Suite("tensor", n, seed, p)
    m = _point(n, p)
    for i in range(-2, 3):
        simple = gmod.simple_module(n + 1, p, i)
        t = cons.tensor(m, simple)
        s.add(
            f"tensor:n={n}:simple-shift:i={i:+d}:valid",
            "tensor products satisfy the module axioms",
            [],
            gmod.validate(t),
            shift=i,
        )
        s.timed(
            f"tensor:n={n}:simple-shift:i={i:+d}:iso",
            "tensoring with the simple concentrated in degree i shifts by -i",
            "ISO",
            lambda t=t, i=i: _iso_kind(t, gmod.shift(m, -i), seed),
            shift=i,
        )
    w = _point(n, p, _generic(n + 1))
    exts = [cons.ar_sequence_middle(n, p), cons.universal_extension(m, m)[0]]
    for name, ext in zip(("almost-split", "universal"), exts):
        ta, tb, tc = (cons.tensor(w, piece) for piece in (ext.sub, ext.middle, ext.quot))
        ok = all(
            ta.dim(d) + tc.dim(d) == tb.dim(d)
            for d in set(ta.dims) | set(tb.dims) | set(tc.dims)
        )
        s.add(
            f"tensor:n={n}:exactness:{name}",
            "tensoring preserves degree-wise exactness of the fixture sequence",
            True,
            ok and gmod.validate(tb) == [],
            fixture=name,
        )
    return s


def suite_relative(n: int, seed: int, p: int) -> Suite:
    s = Suite("relative", n, seed, p)
    m = _point(n, p)
    fixtures: list[tuple[str, cons.Extension]] = []
    fixtures.append(("almost-split", cons.ar_sequence_middle(n, p)))
    fixtures.append(("universal-2", cons.universal_extension(m, m)[0]))
    p2 = cons.filtration_projective(n, 2, p)
    fixtures.append(("universal-3", cons.universal_extension(p2, m)[0]))
    for k, cls in enumerate(cons.ext_class_basis(m, m)):
        fixtures.append((f"self-ext-{k}", cons.realize_ext(cls)))
    # a split mixed-complexity fixture
    if n == 2:
        other = _two_layer_fixture(p)
    else:
        other = cons.span_quotient(n + 1, np.eye(n + 1, dtype=np.int64)[:2], p)
    total, (inc_a, _), (_, pr_b) = gmod.direct_sum(m, other)
    split = cons.Extension(m, total, other, inc_a, pr_b)
    fixtures.append(("split-mixed", split))
    for name, ext in fixtures:
        s.add(
            f"relative:n={n}:{name}:exact",
            "the fixture sequence is degree-wise exact",
            True,
            ext.degreewise_exact(),
            fixture=name,
        )
        s.timed(
            f"relative:n={n}:{name}:radical-compatible",
            "the submodule meets every radical power in exactly its own",
            True,
            lambda ext=ext: homology.is_relative_sub(ext.middle, ext.incl),
            fixture=name,
        )
        def syzygy_preserves(ext=ext):
            incl_s, proj_s, exact = homology.syzygy_of_ses(ext.incl, ext.proj)
            return exact and homology.is_relative_sub(incl_s.target, incl_s)

        s.timed(
            f"relative:n={n}:{name}:syzygy-preserves",
            "taking syzygies keeps the sequence exact and radical-compatible",
            True,
            syzygy_preserves,
            fixture=name,
        )
        def middle_cx(ext=ext):
            ca, cb, cc = (_cx_regseq(t, seed) for t in (ext.sub, ext.middle, ext.quot))
            return cb == max(ca, cc)

        s.timed(
            f"relative:n={n}:{name}:middle-complexity",
            "the middle term's complexity is the maximum of the ends",
            True,
            middle_cx,
            fixture=name,
        )
    return s


def suite_selfext(n: int, seed: int, p: int) -> Suite:
    s = Suite("selfext", n, seed, p)
    fixtures = [("point", _point(n, p)), ("almost-split-middle", cons.ar_sequence_middle(n, p).middle)]
    for d in (2, 3):
        fixtures.append((f"filtration-projective-{d}", cons.filtration_projective(n, d, p)))
    for name, mod in fixtures:
        s.timed(
            f"selfext:n={n}:{name}",
            "indecomposable complexity-one fixtures have first self-extensions",
            True,
            lambda mod=mod: homalg.ext_dim(mod, mod, 1) >= 1,
            fixture=name,
        )
    return s


def suite_phi(n: int, seed: int, p: int) -> Suite:
    s = Suite("phi", 2, seed, p)
    m = _point(2, p)
    fixtures = {
        "point": m,
        "filtration-projective-2": cons.filtration_projective(2, 2, p),
        "filtration-projective-3": cons.filtration_projective(2, 3, p),
    }
    truncated = {name: gmod.square_truncate(f) for name, f in fixtures.items()}
    for vn, v in fixtures.items():
        for en, e in fixtures.items():
            lhs = homalg.ext_dim(v, e, 1)
            rhs = homalg.ext1_square_zero(truncated[vn], truncated[en])
            s.add(
                f"phi:v={vn}:e={en}",
                "first extensions agree with those of the radical-square-zero truncations",
                True,
                lhs == rhs,
                ext_over_full=lhs,
                ext_over_truncation=rhs,
            )
    return s


SUITES = {
    "eisenbud": suite_eisenbud,
    "examples": suite_examples,
    "lemma2.1": suite_lemma21,
    "cor2.2": suite_cor22,
    "pd": suite_pd,
    "lemma2.7": suite_lemma27,
    "kronecker": suite_kronecker,
    "tensor": suite_tensor,
    "relative": suite_relative,
    "selfext": suite_selfext,
    "phi": suite_phi,
}


class UnknownSuite(ValueError):
    pass


def run_suite(name: str, n: int = 2, seed: int = 0, p: int | None = None) -> list[CheckResult]:
    from .linalg import DEFAULT_PRIME

    if n < 1:
        raise ValueError(f"verify needs n >= 1, got {n}")
    if p is None:
        p = DEFAULT_PRIME
    if name == "all":
        checks: list[CheckResult] = []
        for key in sorted(SUITES):
            checks.extend(SUITES[key](n, seed, p).checks)
        return sorted(checks, key=lambda c: c.check_id)
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES) + ['all']}")
    return sorted(SUITES[name](n, seed, p).checks, key=lambda c: c.check_id)


def report_dict(name: str, checks: list[CheckResult], n: int, seed: int, p: int) -> dict:
    overall = "PASS"
    if any(c.verdict == "UNDECIDED" for c in checks):
        overall = "UNDECIDED"
    if any(c.verdict == "FAIL" for c in checks):
        overall = "FAIL"
    return {
        "suite": name,
        "p": p,
        "n": n,
        "seed": seed,
        "verdict": overall,
        "checks": [c.to_json_dict() for c in checks],
    }


def report_text(name: str, checks: list[CheckResult], n: int, seed: int, p: int) -> str:
    lines = [f"suite {name}  (p={p}, n={n}, seed={seed})"]
    for c in checks:
        lines.append(
            f"{c.verdict:<9} {c.check_id:<45} expected={c.expected!r} actual={c.actual!r} [{c.wall_ms:.0f} ms]"
        )
    overall = report_dict(name, checks, n, seed, p)["verdict"]
    lines.append(f"overall: {overall}  ({len(checks)} checks)")
    return "\n".join(lines)
