"""One pass over a workload's job list, in a fresh interpreter.

    python3 bench/worker.py --workload search --seed 1 --trace 0

Builds the seeded job list, runs every job once in order (traced when asked),
then checks each output and prints one JSON line: pass time, per-job
latencies, peak RSS, and per job its status and report digest.  The clock
covers only the calls into minprog, not job generation or checking.  Times
are scaled to nominal host speed by the ``calibrate`` samples taken between
jobs; the host-clock times are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402  (needs src on the path first)
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402


def digest(report) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced pass writes its spans (.tsv.gz)")
    args = ap.parse_args()
    os.chdir(ROOT)  # machine files are named relative to the repository root

    jobs = build_jobs(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    gc.collect()

    raws, latencies = [], []
    samples = [calibrate.sample()]
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = index
        t0 = time.perf_counter()
        try:
            raw = job.run()
        except Exception as exc:  # a crash is this job's failure, not the pass's
            raw = exc
        latencies.append(time.perf_counter() - t0)
        raws.append(raw)
        samples.append(calibrate.sample())
    scaled = calibrate.scale_all(latencies, samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = []
    for job, raw in zip(jobs, raws):
        if isinstance(raw, Exception):
            status, detail = "fail", f"crashed: {type(raw).__name__}: {raw}"[:200]
            report = {"crash": type(raw).__name__}
        else:
            status, detail = job.check(raw)
            report = job.report(raw)
        results.append({"id": job.id, "status": status, "detail": detail, "digest": digest(report)})

    out = {
        "wall_s": sum(scaled),
        "job_ms": [1000 * x for x in scaled],
        "host_wall_s": sum(latencies),
        "host_job_ms": [1000 * x for x in latencies],
        "sample_ms": [1000 * x for x in samples],
        "peak_rss_mb": peak_rss_mb,
        "jobs": results,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
