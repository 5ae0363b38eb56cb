"""Run every workload over seeds 1..10 and summarise the end-to-end metrics.

    python3 perfbench/baseline.py --out perfbench/BENCH_seed.json

Each run is a fresh `run.py` process of BENCHMARK.json's run_seconds.  For
every workload and metric this prints the median, the quartiles and the
spread (interquartile range over the median), runs one traced replay, and
with --out writes everything, stamped with the backend and Python version, as
JSON.  Exits 1 if any run was not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402

SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if not proc.stdout.strip():
        raise RuntimeError(f"{workload} seed {seed} printed no result:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stamp = next(json.loads(line)["stamp"] for line in proc.stderr.splitlines() if line.startswith('{"stamp"'))
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result, stamp


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in jobs.WORKLOADS:
        runs = []
        for seed in SEEDS:
            result, stamp = _run(workload, seed, seconds, 0)
            all_correct &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()) + f" jobs={result['attempted']}",
                flush=True)
        traced, _ = _run(workload, SEEDS[0], seconds, 1)
        all_correct &= traced["correct"]
        metrics = {}
        for name in bounds:
            metrics[name] = _spread([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            m = metrics[name]
            print(f"  {workload:<8} {name:<12} median {m['median']:<12.5g} {m['unit']:<6} "
                  f"spread {m['spread']:.3f} (bound {bounds[name]})", flush=True)
        report["workloads"][workload] = {
            "seeds": list(SEEDS),
            "jobs_per_run": statistics.median(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        report["stamp"] = stamp
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
