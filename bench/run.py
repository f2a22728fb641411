"""minprog benchmark: seeded CLI and API workloads, checked and timed.

    python3 bench/run.py --workload search|vm|limit --seed N --seconds S --trace 0|1

Run from a checkout of the repository; only the standard library is used.
The program is imported from ``src/``.  Each pass over the workload's job
list runs in a fresh interpreter (``bench/worker.py``), one process at a
time and without threads; passes repeat until ``--seconds`` have gone by and
every metric is the median over the passes.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``job_ms.p50``,
``job_ms.tail``, ``setup_s`` and ``peak_rss_mb``, the times scaled to
nominal host speed by ``bench/calibrate.py``.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``bench/tracer.py`` plus ``trace.overhead_s``; it also requires the traced
reports to digest exactly as the untraced ones.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it stamps the run (commit, Python, cores, seed,
job count, tail percentile, unscaled host-clock medians, failures).

A job fails when it raises, exits non-zero, fails its output check, or, at
the pinned seed, when its report digest differs from ``bench/digests.json``.
``failed``/``attempted`` count the jobs of one pass.  ``correct`` is false
when any job fails for another reason than the known interior-blank defect
of the output-tape views, or when passes disagree with each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracer import UNITS  # the per-layer metric names, shared with the worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("search", "vm", "limit")
PINNED_SEED = 1  # the seed whose report digests bench/digests.json pins
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
RUN_LIMIT_S = 150  # stop starting passes here, well inside the 180 s a run may take
TAIL_BEYOND = 10  # the tail percentile leaves this many jobs above it


def _env() -> dict:
    env = dict(os.environ)
    # set-up is measured with the bytecode cache warm, as an installed CLI runs
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to ``import minprog,
    minprog.cli`` done, read on the monotonic clock both processes share:
    (scaled to nominal host speed by samples the child takes after the
    import, host clock)."""
    code = ("import time, minprog, minprog.cli; t = time.monotonic_ns(); import sys; "
            f"sys.path.insert(0, {str(BENCH)!r}); import calibrate, statistics; calibrate.sample(); "
            "print(t, statistics.median(calibrate.sample() for _ in range(5)))")
    t0 = time.monotonic_ns()
    p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                       capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        raise RuntimeError(f"importing minprog failed: {p.stderr.strip()[-400:]}")
    done, sample = p.stdout.split()
    host = (int(done) - t0) / 1e9
    return calibrate.scale(host, float(sample)), host


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        (BENCH / "out").mkdir(exist_ok=True)
        cmd += ["--spans", str(BENCH / "out" / f"spans-{workload}.tsv.gz")]
    p = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                       timeout=PASS_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} pass failed: {p.stderr.strip()[-800:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs above it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        raise ValueError(f"{len(ordered)} jobs leave no tail of {TAIL_BEYOND}")
    return ordered[rank], 100 * (rank + 1) / len(ordered)


def commit() -> str:
    """The checked-out commit: ``git rev-parse HEAD`` where git can answer,
    else read from ``.git`` (loose or packed ref), else "unknown"."""
    git = ROOT / ".git"
    if not git.exists():  # not a repository; git would answer for an enclosing one
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def judge(workload: str, seed: int, untraced: list[dict], traced: list[dict]) -> tuple[list[dict], list[str]]:
    """Per-job results of the run, with digest checks folded in, and the
    problems that make the run as a whole incorrect."""
    problems = []
    jobs = [dict(j) for j in untraced[0]["jobs"]]
    reference = [(j["id"], j["digest"], j["status"]) for j in jobs]
    for p in untraced[1:]:
        if [(j["id"], j["digest"], j["status"]) for j in p["jobs"]] != reference:
            problems.append("untraced passes disagree")
    for p in traced:
        if [(j["id"], j["digest"]) for j in p["jobs"]] != [r[:2] for r in reference]:
            problems.append("traced reports differ from untraced ones")
    if seed == PINNED_SEED:
        pinned = json.loads((BENCH / "digests.json").read_text())["workloads"][workload]
        if sorted(pinned) != sorted(j["id"] for j in jobs):
            problems.append("job list differs from the pinned one")
        for j in jobs:
            want = pinned.get(j["id"])
            if want is not None and j["digest"] != want and j["status"] == "ok":
                j["status"], j["detail"] = "fail", "report digest differs from the pinned one"
    return jobs, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in (ROOT / "src" / "minprog" / "__init__.py", ROOT / "machines"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a checkout of the repository", file=sys.stderr)
            return 2

    started = time.monotonic()
    if not args.trace:
        measure_setup()  # writes the bytecode cache; not counted
    setup: list[tuple[float, float]] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        if not args.trace:
            # one set-up sample per pass spreads them over the run, as the
            # host's speed drifts over tens of seconds
            setup.append(measure_setup())
        (traced if want_traced else untraced).append(run_pass(args.workload, args.seed, want_traced))
        elapsed = time.monotonic() - started
        balanced = not args.trace or len(traced) == len(untraced)
        if balanced and len(untraced) >= MIN_PASSES and elapsed >= args.seconds:
            break
        if balanced and elapsed >= RUN_LIMIT_S:
            break

    jobs, problems = judge(args.workload, args.seed, untraced, traced)
    failures = [j for j in jobs if j["status"] != "ok"]
    if any(j["status"] == "fail" for j in failures):
        problems.append("a job failed its check")
    tails = [tail(p["job_ms"]) for p in untraced]
    med = statistics.median

    if args.trace:
        metrics = {}
        for name, unit in UNITS.items():
            metrics[name] = {"value": med(p["layers"][name] for p in traced), "unit": unit}
        overhead = med(p["wall_s"] for p in traced) - med(p["wall_s"] for p in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": med(p["wall_s"] for p in untraced), "unit": "s"},
            "job_ms.p50": {"value": med(med(p["job_ms"]) for p in untraced), "unit": "ms"},
            "job_ms.tail": {"value": med(t[0] for t in tails), "unit": "ms"},
            "setup_s": {"value": med(s for s, _ in setup), "unit": "s"},
            "peak_rss_mb": {"value": med(p["peak_rss_mb"] for p in untraced), "unit": "MB"},
        }

    stamp = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(jobs),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "tail_percentile": tails[0][1],
        "host_clock": {  # the same medians, unscaled
            "wall_s": med(p["host_wall_s"] for p in untraced),
            "job_ms.p50": med(med(p["host_job_ms"]) for p in untraced),
            "job_ms.tail": med(tail(p["host_job_ms"])[0] for p in untraced),
            "setup_s": med(h for _, h in setup) if setup else None,
            "sample_ms": med(med(p["sample_ms"]) for p in untraced),
        },
        "tail_jobs_beyond": TAIL_BEYOND,
        "failed_ops": f"{len(failures)}/{len(jobs)}",
        "failures": [{"id": j["id"], "status": j["status"], "detail": j["detail"]} for j in failures],
        "problems": problems,
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
