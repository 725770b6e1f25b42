"""Run the benchmark on several seeds and check each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--sets 2] \\
        [--workload NAME ...] [--markdown FILE]

For every workload and end-to-end metric it prints, per set of runs
(one run per seed), the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the distance
between the quartiles as a share of the median — next to the metric's
bound from ``BENCHMARK.json``.  With two or more sets it also prints
each later set's median against the first set's.

It exits non-zero where the benchmark contract would refuse the runs:
a spread at or above the bound (every metric but ``setup_s``, which is
bound only by its median), or a later set's median worse than the
first's by more than the bound (every metric).  Run from the checkout
root.
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


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--markdown", help="append the tables to FILE")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    lines = []
    status = 0
    for workload in workloads:
        medians = []
        for k in range(args.sets):
            runs = []
            for seed in args.seeds:
                r = run_once(workload, seed, bench["run_seconds"])
                runs.append(r)
                print(f"{workload} set {k + 1} seed {seed}: "
                      f"correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} "
                      f"wall={r['wall_s']:.1f}s " + " ".join(
                          f"{n}={v['value']:.6g}"
                          for n, v in r["metrics"].items()), flush=True)
                status |= 0 if r["correct"] and not r["failed"] else 1
            walls = [r["wall_s"] for r in runs]
            table = [f"\n### {workload}, set {k + 1} (seeds "
                     f"{args.seeds[0]}-{args.seeds[-1]}, run wall "
                     f"{min(walls):.0f}-{max(walls):.0f} s)\n",
                     "| metric | median | q1 | q3 | spread | bound | ok |",
                     "|---|---|---|---|---|---|---|"]
            medians.append({})
            for name, metric in metrics.items():
                med, q1, q3, sp = spread(
                    [r["metrics"][name]["value"] for r in runs])
                medians[k][name] = med
                bound = metric["bound"]
                verdict = ("yes" if sp < bound / 3 else
                           "within bound" if sp < bound else "NO")
                if name == "setup_s":
                    verdict += " (not required)"
                elif sp >= bound:
                    status |= 2
                table.append(f"| {name} | {med:.6g} | {q1:.6g} | "
                             f"{q3:.6g} | {sp:.4f} | {bound} | {verdict} |")
            print("\n".join(table), flush=True)
            lines += table
        if args.sets > 1:
            table = [f"\n### {workload}: medians of later sets against "
                     f"set 1\n",
                     "| metric | set | median | set 1 | worse by | bound "
                     "| ok |",
                     "|---|---|---|---|---|---|---|"]
            for name, metric in metrics.items():
                for k in range(1, args.sets):
                    worse = worsening(medians[0][name], medians[k][name],
                                      metric["better"])
                    ok = worse <= metric["bound"]
                    status |= 0 if ok else 4
                    table.append(
                        f"| {name} | {k + 1} | {medians[k][name]:.6g} | "
                        f"{medians[0][name]:.6g} | {worse:+.4f} | "
                        f"{metric['bound']} | {'yes' if ok else 'NO'} |")
            print("\n".join(table), flush=True)
            lines += table
    if args.markdown:
        with open(args.markdown, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
