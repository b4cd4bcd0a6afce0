"""Self-test of the benchmark, and the recorder of its output digests.

    python3 perfbench/selftest.py            # run the self-test (a few minutes)
    python3 perfbench/selftest.py --record   # rewrite perfbench/expected.json

The self-test checks that:

1. every workload runs at the tiny size, traced and untraced, with every
   output correct and every metric named in BENCHMARK.json reported (a
   traced run also fails any job whose traced output differs by one byte
   from its untraced output);
2. a perturbed closed form and a perturbed digest each drive the failure
   count above 0;
3. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

``--record`` runs one untraced pass of every workload at both sizes for the
default seed and for a hold-out seed, and writes the digests only if the two
seeds give the same invariant output for every job and every closed form
holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
HOLDOUT_SEED = 1
RUN_TIMEOUT_S = 600


def record() -> int:
    expected: dict[str, dict[str, str]] = {}
    for name in workloads.WORKLOADS:
        expected[name] = {}
        for size in workloads.SIZES:
            seen: dict[int, dict[str, str]] = {}
            for seed in (DEFAULT_SEED, HOLDOUT_SEED):
                workdir = run.OUT_DIR / f"record-{name}-{size}-{seed}"
                workdir.mkdir(parents=True, exist_ok=True)
                try:
                    jobs, _ = workloads.build(name, seed, size, ROOT, workdir)
                    seen[seed] = {}
                    for job in jobs:
                        _, inv = job.run()
                        seen[seed][job.id] = workloads.digest(inv)
                        bad = workloads.check(job, inv, {job.id: seen[seed][job.id]})
                        if bad is not None:
                            print(f"{name}/{size}/{job.id} seed {seed}: {bad}", file=sys.stderr)
                            return 1
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
            if seen[DEFAULT_SEED] != seen[HOLDOUT_SEED]:
                print(f"{name}/{size}: the hold-out seed changes an invariant output",
                      file=sys.stderr)
                return 1
            expected[name][size] = seen[DEFAULT_SEED]
            print(f"recorded {name}/{size}: {len(seen[DEFAULT_SEED])} jobs")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def _result(cmd: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


def smoke(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            code, out = _result(cmd, ROOT)
            tag = f"smoke {name} trace={trace}"
            if code != 0 or out is None:
                problems.append(f"{tag}: exit {code}, no result line")
                continue
            if not out["correct"] or out["failed"]:
                problems.append(f"{tag}: {out['failed']} of {out['attempted']} jobs failed")
            want = {m["name"] for m in spec[key]}
            if set(out["metrics"]) != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(out['metrics']) ^ want)}")
            print(f"{tag}: ok")


def perturbed(problems: list[str]) -> None:
    jobs, _ = workloads.build("resolve-maxcx", DEFAULT_SEED, "tiny", ROOT)
    digests = run.load_digests("resolve-maxcx", "tiny")
    clean = run.run_pass(jobs, digests)
    if clean["failures"]:
        problems.append(f"unperturbed pass failed: {clean['failures']}")
    job = jobs[0]
    saved = dict(job.expect)
    job.expect["betti_numbers"] = [b + (i == 1) for i, b in enumerate(saved["betti_numbers"])]
    closed = run.run_pass(jobs, digests)
    job.expect = saved
    bad_digest = run.run_pass(jobs, {**digests, job.id: "0" * 64})
    for label, ps in (("closed form", closed), ("digest", bad_digest)):
        ratio = len(ps["failures"]) / len(jobs)
        if ratio <= 0:
            problems.append(f"a perturbed {label} left fail_ratio at 0")
        else:
            print(f"perturbed {label}: fail_ratio {ratio:.3f} over {len(jobs)} jobs: ok")


def bare_directory(problems: list[str]) -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "resolve-maxcx",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
        code, out = _result(cmd, bare)
        if code == 0 or (out is not None and "correct" in out):
            problems.append(f"bare directory: exit {code}, result {out}")
        else:
            print(f"bare directory: exit {code}, no result: ok")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--record", action="store_true", help="rewrite expected.json")
    if ap.parse_args().record:
        return record()
    problems: list[str] = []
    perturbed(problems)
    bare_directory(problems)
    smoke(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
