"""Record the benchmark's baseline for the current commit in baseline.json.

    python3 perfbench/baseline.py

For every workload it makes two sets of `run.py --trace 0` runs, one run per
seed (seeds 1..10) in each set. Per set it reports each end-to-end metric's
median and quartile spread (distance between the first and third quartile
over the median); across the sets it reports how much worse the second median
is than the first. Both are judged against the metric's bound. It then makes
two traced runs at the default seed and checks that every count and ratio
repeats exactly between them. Takes about 23 * run_seconds per workload.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = list(range(1, 11))


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def worse_by(metric: dict, first: float, second: float) -> float:
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    exact = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")}

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        sets = [[bench(spec, name, seed, 0) for seed in record["seeds"]] for _ in range(SETS)]
        e2e = {}
        for m in spec["end_to_end"]:
            entry = {"unit": m["unit"], "bound": m["bound"], "sets": []}
            for runs in sets:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                entry["sets"].append({"median": median, "spread": (q3 - q1) / median,
                                      "values": values})
            entry["second_worse_by"] = worse_by(m, entry["sets"][0]["median"],
                                                entry["sets"][1]["median"])
            e2e[m["name"]] = entry
            print(f"{name} {m['name']}: medians "
                  + ", ".join(f"{s['median']:.5g}" for s in entry["sets"]) + f" {m['unit']}; "
                  + "spreads " + ", ".join(f"{s['spread']:.4f}" for s in entry["sets"])
                  + f"; second worse by {entry['second_worse_by']:+.4f} (bound {m['bound']})",
                  flush=True)
        traced = [bench(spec, name, 0, 1) for _ in range(2)]
        first, second = (t["metrics"] for t in traced)
        repeats = all(first[k]["value"] == second[k]["value"] for k in exact)
        print(f"{name}: counts repeat between two traced runs: {repeats}", flush=True)
        record["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer_seed0": {k: v["value"] for k, v in first.items()},
            "counts_repeat_between_traced_runs": repeats,
        }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
