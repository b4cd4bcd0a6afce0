"""
Command-line interface.

Modules travel as canonical JSON (see modfile); `-` means standard
input/output so constructions pipe into analysis commands.  The prime can
be overridden with the EXALG_PRIME environment variable; every verify
report embeds the prime in use.  The CLI runs BLAS on one thread unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set.  Exit codes: 0
success/PASS, 1 FAIL, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    # the CLI's small exact products gain nothing from OpenBLAS's pool, whose threads spin
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import gmod, homology, modfile
from .linalg import DEFAULT_PRIME, check_prime


def _prime_from_env() -> int:
    raw = os.environ.get("EXALG_PRIME")
    if raw is None:
        return DEFAULT_PRIME
    try:
        return check_prime(int(raw))
    except ValueError as bad:
        raise ValueError(f"EXALG_PRIME={raw!r}: {bad}") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_module(path: str, p: int) -> gmod.GradedModule:
    m = modfile.parse(_read_text(path))
    if m.p != p:
        raise modfile.ModuleFileError(
            f"module modulus {m.p} does not match the session prime {p}"
        )
    return m


def _parse_form(text: str, n_plus_1: int) -> np.ndarray:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != n_plus_1:
        raise ValueError(f"expected {n_plus_1} coefficients, got {len(parts)}")
    return np.array(parts, dtype=np.int64)


def _emit_module(m: gmod.GradedModule) -> None:
    sys.stdout.write(modfile.serialize(m))


def cmd_validate(args, p) -> int:
    try:
        m = _load_module(args.file, p)
    except modfile.ModuleFileError as bad:
        print(f"invalid: {bad}")
        return 1
    print(f"valid: n_plus_1={m.n_plus_1} p={m.p} total_dim={m.total_dim}")
    return 0


def cmd_betti(args, p) -> int:
    m = _load_module(args.file, p)
    table = homology.minimal_resolution(m, args.depth)
    if args.json:
        sys.stdout.write(modfile.canonical_json({"p": p, **table.to_json_dict()}))
    else:
        print(table.to_text())
    return 0


def cmd_complexity(args, p) -> int:
    m = _load_module(args.file, p)
    est = homology.complexity(m, depth=args.depth, seed=args.seed)
    if args.json:
        sys.stdout.write(modfile.canonical_json({"p": p, **est.to_json_dict()}))
    else:
        cxb = est.cx_betti if est.cx_betti is not None else "UNKNOWN"
        print(f"cx_regseq={est.cx_regseq} cx_betti={cxb} depth={est.table.depth} p={p}")
        print(f"betti: {' '.join(str(b) for b in est.table.betti_numbers)}")
    return 0


def cmd_syzygy(args, p) -> int:
    m = _load_module(args.file, p)
    _emit_module(homology.syzygy(m, args.k))
    return 0


def cmd_cosyzygy(args, p) -> int:
    m = _load_module(args.file, p)
    _emit_module(homology.cosyzygy(m, args.k))
    return 0


def cmd_shift(args, p) -> int:
    m = _load_module(args.file, p)
    _emit_module(gmod.shift(m, args.i))
    return 0


def cmd_hom(args, p) -> int:
    from . import homalg

    a, b = _load_module(args.a, p), _load_module(args.b, p)
    hs = homalg.hom_basis(a, b)
    if args.json:
        payload = {
            "p": p,
            "dim": hs.dim,
            "ptriv_dim": hs.ptriv.dim,
            "stable_dim": hs.stable_dim,
            "basis": [
                {str(d): f.block(d).tolist() for d in sorted(f.blocks)} for f in hs.basis
            ],
        }
        sys.stdout.write(modfile.canonical_json(payload))
    else:
        print(f"dim={hs.dim} ptriv={hs.ptriv.dim} stable={hs.stable_dim}")
    return 0


def cmd_stablehom(args, p) -> int:
    from . import homalg

    a, b = _load_module(args.a, p), _load_module(args.b, p)
    print(homalg.stable_hom_dim(a, b))
    return 0


def cmd_ext(args, p) -> int:
    from . import homalg

    a, b = _load_module(args.a, p), _load_module(args.b, p)
    print(homalg.ext_dim(a, b, args.k))
    return 0


def cmd_end(args, p) -> int:
    from . import homalg

    m = _load_module(args.file, p)
    alg = homalg.end_algebra(m)
    if args.json:
        sys.stdout.write(modfile.canonical_json(alg.to_json_dict()))
    else:
        rad_dims = [s.dim for s in alg.rad_filtration]
        print(
            f"dim={alg.dim} commutative={alg.is_commutative()} local={alg.is_local()} "
            f"radical_dims={rad_dims}"
        )
    return 0


def cmd_tensor(args, p) -> int:
    from . import constructions as cons

    a, b = _load_module(args.a, p), _load_module(args.b, p)
    _emit_module(cons.tensor(a, b))
    return 0


def cmd_construct(args, p) -> int:
    from . import constructions as cons

    kind = args.kind
    if kind == "mxi":
        n1 = args.n + 1
        form = _parse_form(args.xi, n1) if args.xi else np.eye(n1, dtype=np.int64)[0]
        _emit_module(cons.point_module(n1, form, p))
    elif kind == "mu":
        n1 = args.n + 1
        chunks = [c for c in (args.forms or "").split(";") if c.strip()]
        if not chunks:
            raise ValueError("construct mu needs at least one form in --forms")
        rows = [_parse_form(chunk, n1) for chunk in chunks]
        _emit_module(cons.span_quotient(n1, np.array(rows, dtype=np.int64), p))
    elif kind == "pd":
        _emit_module(cons.filtration_projective(args.n, args.d, p))
    elif kind == "pd-explicit":
        _emit_module(cons.filtration_projective_explicit(args.n, args.d, p))
    elif kind == "xxi":
        n1 = args.n + 1
        form = _parse_form(args.xi, n1) if args.xi else np.eye(n1, dtype=np.int64)[0]
        _emit_module(cons.ar_sequence_middle(args.n, p, form).middle)
    else:  # kron; argparse admits no other kind
        _emit_module(cons.kronecker_family(args.i, args.j, p))
    return 0


def cmd_filter(args, p) -> int:
    from . import constructions as cons

    m = _load_module(args.file, p)
    try:
        layers = cons.cx1_filtration(m, seed=args.seed)
    except cons.NotComplexityOne as bad:
        print(f"NOT_CX1: {bad}")
        return 1
    payload = {
        "p": p,
        "factors": [{"form": list(xi), "shift": j} for xi, j in layers],
    }
    if args.json:
        sys.stdout.write(modfile.canonical_json(payload))
    else:
        for xi, j in layers:
            print(f"point class {list(xi)} shift {j:+d}")
    return 0


def cmd_verify(args, p) -> int:
    from . import verify

    checks = verify.run_suite(args.suite, n=args.n, seed=args.seed, p=p)
    data = verify.report_dict(args.suite, checks, args.n, args.seed, p)
    if args.json:
        sys.stdout.write(modfile.canonical_json(data))
    else:
        print(verify.report_text(args.suite, checks, args.n, args.seed, p))
    return 0 if data["verdict"] == "PASS" else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="exalg",
        description="Exact homological computations for graded modules over exterior algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a module file against the axioms")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("betti", help="generator degrees of the minimal resolution")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, default=homology.DEFAULT_DEPTH)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_betti)

    sp = sub.add_parser("complexity", help="complexity by regular sequences and Betti growth")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, default=homology.DEFAULT_DEPTH)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_complexity)

    sp = sub.add_parser("syzygy", help="iterated kernel of minimal covers")
    sp.add_argument("file")
    sp.add_argument("-k", type=int, default=1)
    sp.set_defaults(fn=cmd_syzygy)

    sp = sub.add_parser("cosyzygy", help="iterated cokernel of injective envelopes")
    sp.add_argument("file")
    sp.add_argument("-k", type=int, default=1)
    sp.set_defaults(fn=cmd_cosyzygy)

    sp = sub.add_parser("shift", help="grading shift")
    sp.add_argument("file")
    sp.add_argument("-i", type=int, required=True)
    sp.set_defaults(fn=cmd_shift)

    sp = sub.add_parser("hom", help="degree-zero homomorphisms between two modules")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("stablehom", help="hom dimension modulo maps through projectives")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_stablehom)

    sp = sub.add_parser("ext", help="dim Ext^k from the cover sequence of the (k-1)-th syzygy")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("-k", type=int, default=1)
    sp.set_defaults(fn=cmd_ext)

    sp = sub.add_parser("end", help="endomorphism algebra with its radical filtration")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_end)

    sp = sub.add_parser("tensor", help="graded tensor product over the ground field")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_tensor)

    sp = sub.add_parser("construct", help="build a named module")
    sp.add_argument("kind", choices=["mxi", "mu", "pd", "pd-explicit", "xxi", "kron"])
    sp.add_argument("--n", type=int, default=2, help="number of variables minus one")
    sp.add_argument("--xi", type=str, default=None, help="comma-separated form coefficients")
    sp.add_argument("--forms", type=str, default=None, help="semicolon-separated forms")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--i", type=int, default=0)
    sp.add_argument("--j", type=int, default=0)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("filter", help="split a complexity-one module into point layers")
    sp.add_argument("file")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_filter)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    return ap


def cli_main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "n", 0) < 0:  # construct and verify
            raise ValueError(f"--n must be nonnegative, got {args.n}")
        if getattr(args, "seed", 0) < 0:  # complexity, filter and verify
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return args.fn(args, _prime_from_env())
    except (OSError, ValueError) as bad:
        # ModuleFileError, ModulusMismatch, DependentForms and UnknownSuite included
        print(f"error: {bad}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
