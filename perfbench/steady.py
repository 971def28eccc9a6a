#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady.

Usage (from the repository root):

    python3 perfbench/steady.py [--seeds 1-10]

Runs each workload once per seed, untraced, through perfbench/run.py
for BENCHMARK.json's run_seconds, and prints for every end-to-end
metric the median of the runs and their spread: the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as
a share of the median. The spread of every metric, setup_s too, must
stay within its bound, and the benchmark aims for under a third of
it. As a diagnosis of timing spread, it also prints the spreads of
host.ref_ms and of the raw CPU and wall seconds per pass that pass_s
is adjusted from: when pass_s spreads less than the raw clocks, the
runs differed because the host did.

Exits 1 when a spread exceeds its bound or a run fails its checks.
"""

import argparse
import json
import statistics
import sys

from run import ROOT, measure


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    print(f"Seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{bench['run_seconds']} s per run.\n", flush=True)
    for workload in (w["name"] for w in bench["workloads"]):
        rows = [measure(workload, s, bench["run_seconds"], 0)
                for s in args.seeds]
        if any(r is None for r in rows):
            ok = False
            rows = [r for r in rows if r is not None]
        if len(rows) < 2:
            continue
        lines = [f"## {workload}", "",
                 "| metric | median | spread | bound | bound/3 |",
                 "|---|---:|---:|---:|---:|"]
        for name, bound in bounds.items():
            values = [r[0]["metrics"][name]["value"] for r in rows]
            s = spread(values)
            if s > bound:
                ok = False
            mark = "" if s <= bound / 3 else " (over bound/3)"
            lines.append(f"| {name} | {statistics.median(values):.6g} | "
                         f"{s:.2%}{mark} | {bound:.2f} | {bound / 3:.2%} |")
        raw = {name: spread([r[1]["per_layer"][name]["value"] for r in rows])
               for name in ("host.ref_ms", "bench.pass_cpu_s",
                            "bench.pass_wall_s")}
        lines += ["", "Raw spreads: " + ", ".join(
            f"{name} {v:.2%}" for name, v in raw.items()) + ".", ""]
        print("\n".join(lines), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
