"""Run every workload over several seeds and summarise the spread.

    python3 bench/baseline.py                          # 10 seeds x 3 workloads
    python3 bench/baseline.py --out bench/BASELINE.json

Each run is ``bench/run.py --seed <s> --seconds <run_seconds> --trace 0`` for
seeds 1..10, ``run_seconds`` as ``BENCHMARK.json`` gives it.  For
every end-to-end metric the table gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the bound in ``BENCHMARK.json``; ``failed_ops`` sums the
failed and attempted jobs over the runs.  With ``--out`` one traced run per
workload at the pinned seed adds the per-layer numbers, and the whole record
is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, PINNED_SEED, ROOT, WORKLOADS

RUNS = 10  # seeds 1..RUNS per workload


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {p.returncode}: {p.stderr.strip()[-800:]}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the record here and add one traced run per workload")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    record = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        stamps, results = [], []
        for seed in range(1, RUNS + 1):
            stamp, result = bench_run(workload, seed, seconds, 0)
            stamps.append(stamp)
            results.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f"  failed {result['failed']}/{result['attempted']}"
                + ("" if result["correct"] else "  INCORRECT"), flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        entry = {
            "stamp": {k: stamps[0][k] for k in ("commit", "python", "nproc", "jobs", "tail_percentile")},
            "correct": all(r["correct"] for r in results),
            "failed_ops": {"failed": failed, "attempted": attempted, "share": failed / attempted,
                           "failures": [dict(f, seed=s) for s, st in enumerate(stamps, 1)
                                        for f in st["failures"]]},
            "metrics": {},
        }
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            entry["metrics"][name] = dict(summarise(values), unit=results[0]["metrics"][name]["unit"])
        print(f"\n{workload}: {len(results)} runs, {entry['stamp']['jobs']} jobs a pass, "
              f"tail at p{entry['stamp']['tail_percentile']:.1f}, correct={entry['correct']}, "
              f"failed_ops {failed}/{attempted} = {failed / attempted:.4f}")
        for name, s in entry["metrics"].items():
            print(f"  {name:12s} median {s['median']:10.4f} {s['unit']:3s} q1 {s['q1']:10.4f} "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  bound {bounds[name]}")
        print(flush=True)
        if args.out:
            stamp, traced = bench_run(workload, PINNED_SEED, seconds, 1)
            entry["traced"] = {"seed": PINNED_SEED, "correct": traced["correct"],
                               "passes": stamp["passes"], "metrics": traced["metrics"]}
        record["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
