"""exalg benchmark: one command, three workloads, end-to-end or per-layer.

    python3 perfbench/run.py --workload resolve-maxcx --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; exalg is imported from ``src/`` of that
checkout and from nowhere else.  Each run is one process with one client in
a closed loop: a job starts when the previous one has returned.

With ``--trace 0`` the run sets up, makes one untimed warm-up pass over the
job list, then makes timed passes until the next pass would end after
``--seconds``.  With ``--trace 1`` it does the same and then makes one pass
with spans around every call into exalg, and reports per-layer metrics.
Every output of every pass is checked.  The last line of standard output is
the result as one JSON object; the lines before it are a readable report.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import WORKLOADS, build, check  # noqa: E402

SETUP_PROBES = 6  # plus the run's own set-up: setup_s is a median of 7
STARTUP_PROBES = 5
OUT_DIR = ROOT / ".bench_out"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "job_p50_ms": "ms", "peak_rss_mb": "MB"}


def load_digests(workload: str, size: str) -> dict:
    path = HERE / "expected.json"
    return json.loads(path.read_text()).get(workload, {}).get(size, {}) if path.exists() else {}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cpu_now() -> float:
    """User plus system time of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_pass(jobs, digests: dict, tracer=None) -> dict:
    """Run every job once, in order; time each and check its output."""
    latencies, outputs, failures = [], [], {}
    c0, t0 = cpu_now(), time.perf_counter()
    for index, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            if tracer is None:
                full, inv = job.run()
            else:
                tracer.begin_job(index)
                full, inv = tracer.span("bench.job", job.run)
            reason = None
        except Exception as exc:  # a crash is a failed job, not a dead run
            full, inv, reason = None, None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if reason is None:
            reason = check(job, inv, digests)
        outputs.append(full)
        if reason is not None:
            failures[job.id] = reason
    return {"wall": time.perf_counter() - t0, "cpu": cpu_now() - c0,
            "latencies": latencies, "outputs": outputs, "failures": failures}


def measure(jobs, digests: dict, seconds: float, probe) -> tuple[list[dict], list[float]]:
    """Timed passes until the next one would end after ``seconds``.

    The set-up probes run between passes, spread over the same interval, so
    that the median of their times spans the run and not one moment of it.
    """
    passes: list[dict] = []
    probes: list[float] = []
    spent = 0.0
    while True:
        while len(probes) < SETUP_PROBES and spent >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        passes.append(run_pass(jobs, digests))
        spent += passes[-1]["wall"]
        if spent + passes[-1]["wall"] > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return passes, probes


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import plus input generation."""
    t0 = time.perf_counter()
    workdir = OUT_DIR / f"probe-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        build(args.workload, args.seed, args.size, ROOT, workdir)
        print(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_prober(args):
    """A function that times one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    def probe() -> float:
        got = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=120)
        return float(got.stdout.decode().strip().splitlines()[-1])

    return probe


def probe_startup(python: str, env: dict, repeats: int, timeout: float) -> tuple[float, float]:
    """Median interpreter start and median ``import exalg.cli`` time, each
    from fresh interpreters."""
    starts, imports = [], []
    code = ("import time; t = time.perf_counter(); import exalg.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True, timeout=timeout)
        starts.append(time.perf_counter() - t0)
        got = subprocess.run([python, "-c", code], env=env, check=True, timeout=timeout,
                             stdout=subprocess.PIPE)
        imports.append(float(got.stdout.decode().strip()))
    return statistics.median(starts), statistics.median(imports)


def environment(p: int) -> dict:
    """Machine and software record; reads /proc and never writes there."""
    import numpy as np

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs across numpy versions
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_threads": blas_threads(),
        "env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "PYTHONDONTWRITEBYTECODE")
                            if k in os.environ},
        "EXALG_PRIME": os.environ.get("EXALG_PRIME"),
        "p": p,
        "git_commit": git_commit(),
    }


def blas_threads():
    """The effective OpenBLAS thread count, asked of the loaded library."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()
            and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    lat = [x for ps in passes for x in ps["latencies"]]
    return {
        "setup_s": statistics.median(setup),
        # means, not medians: the host alternates between a fast and a slow
        # state every few seconds, and a median over passes jumps between them
        "wall_s": statistics.fmean(ps["wall"] for ps in passes),
        "cpu_s": statistics.fmean(ps["cpu"] for ps in passes),
        "job_p50_ms": 1000.0 * percentile(lat, 0.5),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(args, jobs, runner, digests, passes) -> tuple[dict, list[dict]]:
    """One extra pass with spans; returns per-layer metrics and the pass."""
    from spans import Tracer, layer_metrics

    untraced_wall = statistics.fmean(ps["wall"] for ps in passes)
    untraced_p50 = percentile([x for ps in passes for x in ps["latencies"]], 0.5)
    extra = []
    if runner is not None:
        # cli-pipe is traced in-process; compare it with an in-process pass
        runner.in_process = True
        extra.append(run_pass(jobs, digests))
        untraced_wall = extra[-1]["wall"]
    tracer = Tracer(workloads.LARGE_RREF_ENTRIES)
    tracer.install()
    try:
        tp = run_pass(jobs, digests, tracer)
    finally:
        tracer.uninstall()
        if runner is not None:
            runner.in_process = False
    extra.append(tp)
    interp, imp = probe_startup(sys.executable, workloads.cli_env(ROOT), STARTUP_PROBES, 60)
    metrics = layer_metrics(tracer)
    metrics.update({
        "cli.interp_start_s": (interp, "s"),
        "cli.import_s": (imp, "s"),
        "trace.wall_s": (tp["wall"], "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_ratio": (tp["wall"] / untraced_wall, "ratio"),
        "trace.spans": (float(len(tracer.spans)), "count"),
        "split.rref_large_share": (metrics["linalg.rref_large.self_s"][0] / tp["wall"], "ratio"),
        "split.rref_large_total_share":
            (metrics["linalg.rref_large.total_s"][0] / tp["wall"], "ratio"),
        "split.startup_share_of_job_p50": ((interp + imp) / untraced_p50, "ratio"),
    })
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "jobs": [j.id for j in jobs]})
    print(f"# spans written to {path.relative_to(ROOT)}")
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny runs the same jobs on small inputs (self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that the work directory is removed and
    # subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if os.environ.get("EXALG_PRIME", str(workloads.P)) != str(workloads.P):
        print(f"error: the oracles are recorded at p={workloads.P}; unset EXALG_PRIME",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            jobs, runner = build(args.workload, args.seed, args.size, ROOT, workdir)
        except ImportError as bad:
            print(f"error: cannot import exalg from {ROOT / 'src'}: {bad}", file=sys.stderr)
            return 2
        first_setup = time.perf_counter() - t0
        digests = load_digests(args.workload, args.size)

        warm = run_pass(jobs, digests)
        passes, probes = measure(jobs, digests, args.seconds, setup_prober(args))
        setup = [first_setup, *probes]
        all_passes = [warm, *passes]
        if args.trace:
            metrics, extra = traced(args, jobs, runner, digests, passes)
            all_passes += extra
            # the traced pass must print exactly what the untraced one did
            for ps in extra:
                for job, a, b in zip(jobs, warm["outputs"], ps["outputs"]):
                    if a != b:
                        ps["failures"].setdefault(job.id, "traced output differs")
        else:
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(setup, passes).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(jobs) * len(all_passes)
    failures = [f"{k}: {v}" for ps in all_passes for k, v in ps["failures"].items()]
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "environment": environment(workloads.P),
        "jobs_per_pass": len(jobs), "timed_passes": len(passes),
        "job_samples": len(jobs) * len(passes), "setup_samples": setup,
        # reported, not gated: a run of resolve-maxcx has 3 to 6 job samples
        # and one of cli-pipe about 90, fewer than 10 beyond the 90th percentile
        "job_p90_ms": 1000.0 * percentile([x for ps in passes for x in ps["latencies"]], 0.9),
        "pass_walls": [ps["wall"] for ps in passes],
        "fail_ratio": len(failures) / attempted, "fail_ratio_base": attempted,
        "failures": failures[:20],
    }
    print("# report " + json.dumps(report, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name:<45} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
