"""The three benchmark workloads: seeded inputs, job lists and oracles.

A workload is built in two steps.  ``build(name, seed, size, root)`` is the
set-up: it imports exalg and generates every input from the seed.  It
returns a list of ``Job`` objects; running a job calls into exalg and
returns ``(full, inv)``:

* ``full`` is the program's whole output as text (canonical JSON for
  in-process jobs, the exact stdout bytes for CLI jobs).  The self-test
  compares it byte for byte between traced and untraced passes.
* ``inv`` is the GL-invariant part of that output.  Every input is a fixed
  module twisted by a seeded random invertible substitution, and all the
  invariants checked are unchanged by such a twist, so the oracle does not
  depend on the seed.

A job is correct when ``inv`` matches its closed form (where the paper gives
one) and the sha256 of its canonical JSON matches the digest recorded in
``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

P = 32003
# Inputs above this many entries take exalg's blocked elimination; the
# constant is fixed here so that a change to exalg's own threshold shows.
LARGE_RREF_ENTRIES = 1 << 14
WORKLOADS = ("resolve-maxcx", "homext-cx1", "cli-pipe")
SIZES = ("full", "tiny")
CLI_TIMEOUT_S = 170


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def digest(inv) -> str:
    return hashlib.sha256(canonical(inv).encode()).hexdigest()


@dataclass
class Job:
    id: str
    run: Callable[[], tuple[str, dict]]
    expect: dict = field(default_factory=dict)  # closed-form part of inv


# -- seeded inputs --------------------------------------------------------


def _rref_mod(rows: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """Plain Gauss-Jordan elimination mod p, kept independent of exalg.

    Returns the pivot columns and the reduced rows."""
    rows = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = pow(rows[top][col], p - 2, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    return pivots, rows


def _inverse_mod(a: list[list[int]], p: int) -> list[list[int]] | None:
    n = len(a)
    pivots, red = _rref_mod([row + [int(i == j) for j in range(n)] for i, row in enumerate(a)], p)
    return [row[n:] for row in red] if pivots[:n] == list(range(n)) else None


def _normalized(v: list[int], p: int) -> list[int]:
    lead = next(x for x in v if x % p)
    inv = pow(lead, p - 2, p)
    return [x * inv % p for x in v]


class Inputs:
    """Random invertible substitutions and forms drawn from one seed."""

    def __init__(self, seed: int, np):
        self.np = np
        self.rng = np.random.default_rng(seed)
        self.subst: dict[int, object] = {}

    def substitution(self, n_plus_1: int):
        """One invertible matrix per variable count, with its inverse."""
        if n_plus_1 not in self.subst:
            while True:
                a = self.rng.integers(0, P, (n_plus_1, n_plus_1), dtype=self.np.int64)
                inv = _inverse_mod(a.tolist(), P)
                if inv is not None:
                    break
            self.subst[n_plus_1] = (a, inv)
        return self.subst[n_plus_1]

    def point_form(self, n_plus_1: int) -> list[int]:
        """The form that kills the twist of the point module of x_0."""
        return _normalized(self.substitution(n_plus_1)[1][0], P)

    def forms(self, k: int, n_plus_1: int):
        while True:
            u = self.rng.integers(0, P, (k, n_plus_1), dtype=self.np.int64)
            if len(_rref_mod(u.tolist(), P)[0]) == k:
                return u


# -- resolve-maxcx --------------------------------------------------------


def _resolve_jobs(ex, inp: Inputs, tiny: bool) -> list[Job]:
    gmod, homology, cons = ex.gmod, ex.homology, ex.cons
    n1_simple, depth_simple = (3, 3) if tiny else (4, 8)
    depth_loewy = 4 if tiny else 12
    n1_span, k_span, depth_span = (3, 2, 3) if tiny else (4, 3, 8)

    simple = gmod.transport(gmod.simple_module(n1_simple, P), inp.substitution(n1_simple)[0])
    loewy = gmod.transport(gmod.square_truncate(gmod.free_module(3, P, [0])), inp.substitution(3)[0])
    span = cons.span_quotient(n1_span, inp.forms(k_span, n1_span), P)

    def resolve(m, depth):
        def run():
            table = homology.minimal_resolution(m, depth).to_json_dict()
            return canonical(table), {"betti": table}
        return run

    def loewy_job():
        table = homology.minimal_resolution(loewy, depth_loewy).to_json_dict()
        est = homology.complexity(loewy, depth=depth_loewy, seed=0)
        full = {"betti": table, "complexity": est.to_json_dict()}
        inv = {
            "betti": table,
            "cx": [est.cx_regseq, est.cx_betti if est.cx_betti is not None else "UNKNOWN"],
        }
        return canonical(full), inv

    n = n1_simple - 1
    jobs = [
        Job(
            f"simple:n1={n1_simple}:depth={depth_simple}",
            resolve(simple, depth_simple),
            {"betti_numbers": [comb(n + i, i) for i in range(depth_simple + 1)]},
        ),
        Job(f"loewy2:n1=3:depth={depth_loewy}", loewy_job),
        Job(
            f"span:n1={n1_span}:k={k_span}:depth={depth_span}",
            resolve(span, depth_span),
            {"betti_numbers": [comb(k_span - 1 + i, i) for i in range(depth_span + 1)]},
        ),
    ]
    if not tiny:
        # the Betti window only settles at depth 12
        jobs[1].expect = {"cx": [3, 3]}
    return jobs


# -- homext-cx1 -----------------------------------------------------------


def _homext_jobs(ex, inp: Inputs, tiny: bool) -> list[Job]:
    gmod, homology, homalg, cons = ex.gmod, ex.homology, ex.homalg, ex.cons
    jobs: list[Job] = []
    sizes = [(2, 2)] if tiny else [(2, 4), (3, 3)]

    def twist(m):
        return gmod.transport(m, inp.substitution(m.n_plus_1)[0])

    for n, dmax in sizes:
        n1 = n + 1
        xi = inp.point_form(n1)
        point = twist(cons.point_module(n1, [1] + [0] * n, P))
        point1 = gmod.shift(point, 1)
        for d in range(1, dmax + 1):
            pd = twist(cons.filtration_projective(n, d, P))
            pd_explicit = twist(cons.filtration_projective_explicit(n, d, P))
            tag = f"pd:n={n}:d={d}"

            def hom(pd=pd, point1=point1):
                hs = homalg.hom_basis(pd, point1)
                inv = {"dim": hs.dim, "ptriv_dim": hs.ptriv.dim}
                full = {**inv, "basis": [gmod.flatten_map(f).tolist() for f in hs.basis],
                        "ptriv": hs.ptriv.basis.tolist()}
                return canonical(full), inv

            def ext1(pd=pd, point=point):
                inv = {"ext1": homalg.ext_dim(pd, point, 1)}
                return canonical(inv), inv

            def end(pd=pd, n=n, d=d):
                alg = homalg.end_algebra(pd)
                inv = {
                    "dim": alg.dim,
                    "radical_dims": [s.dim for s in alg.rad_filtration],
                    "truncated_poly": homalg.truncated_poly_fingerprint(alg, n, d),
                }
                return canonical(alg.to_json_dict()), inv

            def iso(pd=pd, pd_explicit=pd_explicit):
                v = gmod.iso_probable(pd_explicit, pd, seed=0)
                cert = v.certificate
                full = {"kind": v.kind, "witness": v.witness,
                        "certificate": gmod.flatten_map(cert).tolist() if cert is not None else None}
                return canonical(full), {"kind": v.kind}

            low = sum(comb(n + j - 1, j) for j in range(d))
            jobs += [
                Job(f"{tag}:hom", hom, {
                    "dim": sum(comb(n + j - 1, j) for j in range(1, d + 1)),
                    "ptriv_dim": sum(comb(n + j - 1, j) for j in range(1, d)),
                }),
                Job(f"{tag}:ext1", ext1, {"ext1": comb(n + d - 1, d)}),
                Job(f"{tag}:end", end, {"dim": low, "truncated_poly": True}),
                Job(f"{tag}:iso", iso, {"kind": "ISO"}),
            ]
            if d <= 2:
                jobs.append(_filter_job(ex, f"{tag}:filter", pd, xi, [0] if d == 1 else None))

        middle = twist(cons.ar_sequence_middle(n, P).middle)
        jobs += [
            _resolution_job(ex, f"point:n={n}:res", point, 4, [1] * 5),
            _filter_job(ex, f"point:n={n}:filter", point, xi, [0]),
            _hom_ext_job(ex, f"point:n={n}:self", point, point),
            _resolution_job(ex, f"ar:n={n}:res", middle, 4),
            _filter_job(ex, f"ar:n={n}:filter", middle, xi),
            _hom_ext_job(ex, f"ar:n={n}:self", middle, middle),
            _end_job(ex, f"ar:n={n}:end", middle),
        ]

    simple2 = twist(gmod.simple_module(2, P))
    for i in ([-1, 1] if tiny else [-2, -1, 1, 2]):
        kron = twist(cons.kronecker_family(i, 0, P))
        jobs += [
            _resolution_job(ex, f"kron:i={i}:res", kron, 4),
            _hom_ext_job(ex, f"kron:i={i}:to-simple", kron, simple2),
            _end_job(ex, f"kron:i={i}:end", kron),
        ]
    return jobs


def _resolution_job(ex, job_id, m, depth, betti=None) -> Job:
    def run():
        table = ex.homology.minimal_resolution(m, depth).to_json_dict()
        return canonical(table), {"betti": table}
    return Job(job_id, run, {"betti_numbers": betti} if betti else {})


def _hom_ext_job(ex, job_id, a, b) -> Job:
    def run():
        hs = ex.homalg.hom_basis(a, b)
        inv = {"hom": hs.dim, "ptriv": hs.ptriv.dim, "ext1": ex.homalg.ext_dim(a, b, 1)}
        full = {**inv, "basis": [ex.gmod.flatten_map(f).tolist() for f in hs.basis]}
        return canonical(full), inv
    return Job(job_id, run)


def _end_job(ex, job_id, m) -> Job:
    def run():
        alg = ex.homalg.end_algebra(m)
        inv = {"dim": alg.dim, "radical_dims": [s.dim for s in alg.rad_filtration],
               "local": alg.is_local(), "commutative": alg.is_commutative()}
        return canonical(alg.to_json_dict()), inv
    return Job(job_id, run)


def _filter_job(ex, job_id, m, xi, shifts=None) -> Job:
    """cx1_filtration; every factor must be the point class of ``xi``."""

    def run():
        layers = ex.cons.cx1_filtration(m, seed=0)
        full = [{"form": list(f), "shift": j} for f, j in layers]
        inv = {"shifts": [j for _, j in layers],
               "forms_match": all(list(f) == xi for f, _ in layers)}
        return canonical(full), inv

    expect = {"forms_match": True}
    if shifts is not None:
        expect["shifts"] = shifts
    return Job(job_id, run, expect)


# -- cli-pipe -------------------------------------------------------------


def _module_inv(text: str) -> dict:
    data = json.loads(text)
    return {"n_plus_1": data["n_plus_1"], "dims": data["dims"]}


def _hom_inv(text: str) -> dict:
    data = json.loads(text)
    return {"dim": data["dim"], "ptriv_dim": data["ptriv_dim"],
            "stable_dim": data["stable_dim"], "basis_len": len(data["basis"])}


def _end_inv(text: str) -> dict:
    data = json.loads(text)
    return {"dim": data["dim"], "radical_dims": data["radical_dims"]}


def _filter_inv(xi: list[int]):
    def inv(text: str) -> dict:
        factors = json.loads(text)["factors"]
        return {"shifts": [f["shift"] for f in factors],
                "forms_match": all(f["form"] == xi for f in factors)}
    return inv


def _verify_inv(text: str) -> dict:
    # The report is seed-free (verify runs with its own fixed seed), so the
    # digest covers every byte of it.
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "verdict": json.loads(text)["verdict"]}


def _text_inv(text: str) -> dict:
    return {"text": text}


def cli_env(root: Path) -> dict:
    """The environment for an ``exalg`` subprocess: ``src/`` on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class CliRunner:
    """Runs ``exalg`` commands as subprocesses or in-process through
    ``cli.cli_main``; both routes read and write the same module files."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.in_process = False
        self.env = cli_env(root)

    def __call__(self, argv: list[str], out: str | None) -> tuple[int, str]:
        argv = [str(self.workdir / a) if a.endswith(".json") else a for a in argv]
        if self.in_process:
            from exalg import cli

            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    code = cli.cli_main(argv)
                except SystemExit as stop:
                    code = stop.code if isinstance(stop.code, int) else 2
            text = buf.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "exalg.cli", *argv],
                cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
            )
            code, text = proc.returncode, proc.stdout.decode()
        if out is not None:
            (self.workdir / out).write_text(text, encoding="utf-8", newline="\n")
        return code, text


def _cli_jobs(ex, inp: Inputs, tiny: bool, runner: CliRunner) -> list[Job]:
    gmod, cons, modfile = ex.gmod, ex.cons, ex.modfile
    n = 2
    n1 = n + 1
    xi = inp.point_form(n1)
    a = inp.substitution(n1)[0]
    d_pd = 2 if tiny else 3

    def write(name, m):
        (runner.workdir / name).write_text(modfile.serialize(m), encoding="utf-8", newline="\n")

    point = gmod.transport(cons.point_module(n1, [1, 0, 0], P), a)
    write("point.json", point)
    write("point1.json", gmod.shift(point, 1))
    write("pd.json", gmod.transport(cons.filtration_projective(n, d_pd, P), a))
    mu_forms = ";".join(",".join(str(int(x)) for x in row) for row in inp.forms(2, 4))
    mxi_form = ",".join(str(x) for x in inp.forms(1, n1)[0])
    depth = 3 if tiny else 6

    def step(job_id, argv, out, inv_fn, expect=None, code=0):
        def run():
            got, text = runner(argv, out)
            inv = inv_fn(text)
            inv["exit"] = got
            return text, inv
        return Job(job_id, run, {**(expect or {}), "exit": code})

    jobs = [
        step("construct-mu", ["construct", "mu", "--n", "3", "--forms", mu_forms], "mu.json",
             _module_inv, {"dims": {"0": 1, "1": 2, "2": 1}}),
        step("construct-mxi", ["construct", "mxi", "--n", "2", "--xi", mxi_form], "mxi.json",
             _module_inv, {"dims": {str(j): comb(n, j) for j in range(n + 1)}}),
        step("construct-xxi", ["construct", "xxi", "--n", "2", "--xi", ",".join(map(str, xi))],
             "xxi.json", _module_inv),
        step("syzygy", ["syzygy", "mu.json", "-k", "2"], "syz.json", _module_inv),
        step("tensor", ["tensor", "mxi.json", "point.json"], "tensor.json", _module_inv),
        step("validate", ["validate", "tensor.json"], None, _text_inv),
        step("betti", ["betti", "syz.json", "--depth", str(depth), "--json"], None, json.loads,
             {"betti": [comb(1 + i, i) for i in range(2, depth + 3)]}),
        step("hom", ["hom", "pd.json", "point1.json", "--json"], None, _hom_inv,
             {"dim": sum(comb(n + j - 1, j) for j in range(1, d_pd + 1)),
              "ptriv_dim": sum(comb(n + j - 1, j) for j in range(1, d_pd))}),
        step("end", ["end", "pd.json", "--json"], None, _end_inv,
             {"dim": sum(comb(n + j - 1, j) for j in range(d_pd))}),
        step("ext", ["ext", "pd.json", "point.json", "-k", "1"], None, _text_inv,
             {"text": f"{comb(n + d_pd - 1, d_pd)}\n"}),
        step("filter", ["filter", "xxi.json", "--json"], None, _filter_inv(xi),
             {"forms_match": True}),
    ]
    suites = [("lemma2.7", 2)] if tiny else [("pd", 3), ("relative", 2)]
    for suite, sn in suites:
        jobs.append(step(f"verify-{suite}-n{sn}",
                         ["verify", "--suite", suite, "--n", str(sn), "--json"], None,
                         _verify_inv, {"verdict": "PASS"}))
    return jobs


# -- assembly --------------------------------------------------------------


class _Exalg:
    """The exalg modules, imported from ``<root>/src`` and nowhere else."""

    def __init__(self, root: Path):
        src = str(root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import exalg
        from exalg import constructions, gmod, homalg, homology, modfile

        where = Path(exalg.__file__).resolve().parent
        if where != (root / "src" / "exalg").resolve():
            raise ImportError(f"exalg was imported from {where}, not from {src}")
        self.gmod, self.homology, self.homalg = gmod, homology, homalg
        self.cons, self.modfile = constructions, modfile


def build(name: str, seed: int, size: str, root: Path,
          workdir: Path | None = None) -> tuple[list[Job], CliRunner | None]:
    """Set-up: import exalg and generate the workload's inputs from the seed.

    Returns the jobs and, for cli-pipe, the runner whose ``in_process``
    flag picks subprocesses or ``cli.cli_main``."""
    import numpy as np

    ex = _Exalg(root)
    inp = Inputs(seed, np)
    tiny = size == "tiny"
    if name == "resolve-maxcx":
        return _resolve_jobs(ex, inp, tiny), None
    if name == "homext-cx1":
        return _homext_jobs(ex, inp, tiny), None
    if name == "cli-pipe":
        if workdir is None:
            raise ValueError("cli-pipe needs a work directory")
        runner = CliRunner(root, workdir)
        return _cli_jobs(ex, inp, tiny, runner), runner
    raise ValueError(f"unknown workload {name!r}")


def check(job: Job, inv: dict, digests: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    for key, want in job.expect.items():
        if key == "betti_numbers":
            got = inv.get("betti", {}).get("betti")
        else:
            got = inv.get(key)
        if got != want:
            return f"{key}: expected {want!r}, got {got!r}"
    want = digests.get(job.id)
    if want is None:
        return "no recorded digest"
    if digest(inv) != want:
        return "digest of the invariant output differs from the recorded one"
    return None
