"""qell benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload point-cold --seed 1 --seconds 20 --trace 0

Workloads: point-cold, maps-warm, cli-cold (see perfbench/README.md).  The
library is imported from ./src only.  The last line of standard output is a
JSON object with "correct", "attempted", "failed" and "metrics"; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Exit status is 0 only if every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("point-cold", "maps-warm", "cli-cold")
SETUP_MIN_RUNS = 3      # set-up is timed at least this many times per run,
SETUP_MIN_S = 1.0       # and until this much set-up has been timed,
SETUP_MAX_RUNS = 25     # but no more often than this; the median is reported
SETUP_PROBES = 5        # speed-probe samples taken before each set-up
RUN_LIMIT_S = 170       # every worker is killed once the run has taken this long


def _spawn(args, work: str, setup_only: bool, deadline: float):
    """Run one worker; return (set-up seconds without the probe's own time,
    the speed factor the worker sampled during set-up or 0.0, its later lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # its own process group, so a stuck worker goes together with its CLI child
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        fd, head, ready = proc.stdout.fileno(), b"", None
        while ready is None:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError(f"worker still in set-up after {RUN_LIMIT_S} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            head += chunk
            if b"\n" in head:
                ready = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.01))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker still running after {RUN_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            _kill_group(proc)
        proc.stdout.close()
    first, _, rest = (head + out).decode().partition("\n")
    fields = first.split()
    if proc.returncode != 0 or ready is None or fields[:1] != ["READY"]:
        raise RuntimeError(f"worker exited with status {proc.returncode} before finishing")
    return ready - float(fields[1]), float(fields[2]), rest.splitlines()


def _kill_group(proc):
    """Kill a worker and whatever it started; wait until all of them are gone."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _oracle_failures(oracle: dict) -> set[str]:
    """Names of the ops whose class data disagrees with sympy.combinatorics."""
    bad = set()
    for data in oracle.values():
        gens = data["gens"]
        expected = checks.sympy_class_data(len(gens[0]), gens)
        if [tuple(x) for x in data["classes"]] != expected:
            bad.add(data["op"])
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qell", "__init__.py")):
        print("error: run from the root of a qell checkout (src/qell is missing)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # set-up runs in fresh processes.  Each is normalised by the speed factor
    # the worker sampled during it or, if it was too short to sample, by the
    # samples the parent takes just before it (never while a worker runs)
    deadline = time.perf_counter() + RUN_LIMIT_S
    probe, setups = calib.Probe(), []

    def timed_setup(setup_only: bool):
        first = len(probe.samples)
        for _ in range(SETUP_PROBES):
            probe.sample()
        wall, factor, lines = _spawn(args, work, setup_only, deadline)
        setups.append((wall, factor or probe.factor_since(first)))
        return lines

    if not args.trace:
        while len(setups) < SETUP_MAX_RUNS - 1 and (
                len(setups) < SETUP_MIN_RUNS - 1
                or sum(wall for wall, _ in setups) < SETUP_MIN_S):
            timed_setup(setup_only=True)
    lines = timed_setup(setup_only=False)
    result = json.loads(lines[-1])

    ops = result["ops"]
    bad_ops = _oracle_failures(result["oracle"])
    for op in ops:
        if op[0] in bad_ops:
            op[2], op[3] = False, op[3] or "class data differs from sympy"
    failed = [op for op in ops if not op[2]]
    for name, _, _, detail, _ in failed[:10]:
        print(f"FAIL {name}: {detail}")
    attempted = len(ops)

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(result["trace"].items())}
        print("largest self times in the traced pass: " + ", ".join(
            f"{name} {secs:.3f} s" for name, secs in result["top_self_s"]))
    else:
        # reference seconds: each latency divided by the speed factor around it
        latencies = [op[1] / op[4] for op in ops]
        p, tail_value, above = stats.tail(latencies)
        wall = [op[1] for op in ops]
        metrics = {
            "setup_s": {"value": statistics.median(w / f for w, f in setups), "unit": "s"},
            "ops_per_s": {"value": _pass_rate(latencies, result["pass_ends"]), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail_value * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        print(f"op_tail_ms is p{p} of {attempted} samples ({above} above it); "
              f"{result['passes']} passes, {result['timed_wall']:.3f} s busy")
        print(f"speed factor {result['speed_factor']:.4f}; {len(setups)} set-ups; "
              f"wall-clock values: setup_s = {statistics.median(w for w, _ in setups):.6g}, "
              f"ops_per_s = {_pass_rate(wall, result['pass_ends']):.6g}, "
              f"op_p50_ms = {statistics.median(wall) * 1e3:.6g}, "
              f"op_tail_ms = {stats.tail(wall)[1] * 1e3:.6g}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio = {len(failed)}/{attempted} "
          f"= {len(failed) / attempted:.6g}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


def _pass_rate(latencies: list, pass_ends: list) -> float:
    """Median over the passes of a pass's operations per second of latency.

    A pass is the workload's whole operation list, so every pass does the same
    work; the median keeps one pass slowed by the host from moving the figure.
    """
    rates, start = [], 0
    for end in pass_ends:
        rates.append((end - start) / sum(latencies[start:end]))
        start = end
    return statistics.median(rates)


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "per_map")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
