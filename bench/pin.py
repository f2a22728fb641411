"""Pin the report digests of the pinned seed into bench/digests.json.

    python3 bench/pin.py

Runs one untraced pass of every workload at ``run.PINNED_SEED``.  A job that
fails its check is pinned as null, so a later fix of that job is not read as
a changed report.  Re-pin only when a change is meant to alter reports.
"""

import json

from run import BENCH, PINNED_SEED, WORKLOADS, run_pass


def main() -> int:
    pinned = {}
    for workload in WORKLOADS:
        jobs = run_pass(workload, PINNED_SEED, trace=False)["jobs"]
        pinned[workload] = {j["id"]: j["digest"] if j["status"] == "ok" else None for j in jobs}
    text = json.dumps({"seed": PINNED_SEED, "workloads": pinned}, indent=1, sort_keys=True)
    (BENCH / "digests.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
