"""Run the benchmark over several seeds, or compare two such sets of runs.

    python3 perfbench/spread.py --workload all --seeds 1          # every workload once
    python3 perfbench/spread.py --workload maps-warm --seeds 1-10 --out a.jsonl
    python3 perfbench/spread.py --compare parent.jsonl change.jsonl

The first forms run run.py once per workload and seed (untraced), print each
run's metrics with their units and its fail_ratio, append one JSON line per
run to --out, and, given two seeds or more, print each end-to-end metric's
median, quartiles and spread (interquartile distance over the median) next to
a third of its bound.  The last form applies stats.compare to two such files:
a metric is a regression when its median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def _bench_config() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _load(path: str) -> dict:
    runs: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec["metrics"])
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args(argv)
    config = _bench_config()
    metrics = config["end_to_end"]

    if args.compare:
        rows = stats.compare(_load(args.compare[0]), _load(args.compare[1]), metrics)
        for row in rows:
            print(json.dumps(row))
        return 1 if any(r["verdict"] == "regression" for r in rows) else 0

    seconds = config["run_seconds"]
    workloads = ([w["name"] for w in config["workloads"]] if args.workload == "all"
                 else [args.workload])
    ok = True
    for workload in workloads:
        results = []
        for seed in _seeds(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}")
                return 1
            rec = {"workload": workload, "seed": seed, **json.loads(lines[-1])}
            results.append(rec)
            print(f"{workload} seed {seed}, {time.perf_counter() - started:.1f} s:")
            print("\n".join("  " + ln for ln in lines[:-1]
                            if ln.startswith(workload + " ")), flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
        if len(results) >= 2:
            ok = _report_spread(workload, results, metrics) and ok
    return 0 if ok else 1


def _report_spread(workload: str, results: list, metrics: list) -> bool:
    ok = True
    for spec in metrics:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = stats.spread(values)
        good = share < spec["bound"] / 3
        ok = ok and good
        print(f"{workload} {spec['name']}: median {med:.5g} {spec['unit']}, "
              f"quartiles {q1:.5g}..{q3:.5g}, spread {share:.3%} "
              f"(bound/3 {spec['bound'] / 3:.3%}){'' if good else '  TOO WIDE'}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
