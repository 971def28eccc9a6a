#!/usr/bin/env python3
"""Write the traced-run report of the benchmark.

Usage (from the repository root):

    python3 perfbench/report.py [--seed N]

Runs every workload twice through perfbench/run.py with the same seed
(default 1; use the held-out seed for a claim) for BENCHMARK.json's
run_seconds, untraced and traced, and writes perfbench/REPORT.md with,
per workload:

  - each layer's self-time share: a span's duration minus the part of
    it its child spans on the same thread cover, summed per layer over
    the timed passes (serve-warm: over the hop replay) and divided by
    the sum over all layers. Spans that only wait on another thread
    (the harness's submit-and-wait spans, queue wait, a client's round
    trip) and the harness's own spans are left out, so the shares
    divide busy time, not wall time;
  - the tracing overhead: each end-to-end metric traced minus untraced;
  - for serve-warm, the hop accounting: the hops' medians plus
    serve.unaccounted_ms add up to the traced serve.rtt_p50_ms.
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, measure
WORKLOADS = ("paper-sweep", "stream-ingest", "serve-warm")
HOPS = ("serve.ping_ms", "serve.encode_submit_ms", "serve.frame_checksum_ms",
        "serve.decode_submit_ms", "engine.hit_ms", "serialize.encode_ms",
        "serve.encode_result_ms", "serve.decode_result_ms",
        "serialize.decode_ms")
# Spans that wait on work another thread does, and the harness's own.
NOT_WORK = {"wait", "queue", "bench", "host"}


def layer_of(event):
    """Engine spans carry their own categories; map them to modules."""
    cat, name = event["cat"], event["name"]
    job = event.get("args", {}).get("job", "")
    if cat in ("compile", "stage"):
        if name == "peephole":
            return "circuit"
        return "baselines" if job.endswith("/paulihedral") else "core"
    if cat in ("job", "disk"):
        return "engine"
    return cat


def self_times(events):
    """Per-layer self time (ms) over one thread's nested spans."""
    totals = defaultdict(float)
    by_tid = defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, event, child_total]

        def close(frame):
            end, ev, child = frame
            totals[layer_of(ev)] += max(0.0, ev["dur"] - child) / 1e3

        for e in spans:
            while stack and e["ts"] >= stack[-1][0]:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            stack.append([e["ts"] + e["dur"], e, 0.0])
        while stack:
            close(stack.pop())
    return totals


def layer_shares(trace_path):
    """Self time per layer over the workload's own work: the spans inside
    the timed passes, or for serve-warm (whose timed phase holds only
    client round trips) the hop replay after it."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    passes = [(e["ts"], e["ts"] + e["dur"]) for e in events
              if e["name"] == "bench.pass"]
    if passes:
        def inside(e):
            return any(lo <= e["ts"] < hi for lo, hi in passes)
    else:
        phase_end = max(e["ts"] + e["dur"] for e in events
                        if e["name"] == "bench.timed_phase")

        def inside(e):
            return e["ts"] >= phase_end
    totals = {layer: ms
              for layer, ms in self_times(filter(inside, events)).items()
              if layer not in NOT_WORK}
    total = sum(totals.values())
    return sorted(((layer, ms, ms / total) for layer, ms in totals.items()),
                  key=lambda row: -row[1]), len(events)


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out_path = ROOT / "perfbench" / "REPORT.md"

    lines = ["# Traced-run report", "",
             f"Generated by `python3 perfbench/report.py --seed {args.seed}`"
             f" ({seconds} s per run).", ""]
    for workload in WORKLOADS:
        runs = [measure(workload, args.seed, seconds, t) for t in (0, 1)]
        if None in runs:
            sys.exit(f"report: {workload} failed")
        (_, plain, _), (_, traced, stem) = runs
        prov = traced["provenance"]
        lines += [f"## {workload}", "",
                  f"rev `{prov['rev']}`, {prov['build_type']}, "
                  f"{prov['compiler']}, nproc {prov['nproc']}, "
                  f"seed {prov['seed']}, {prov['seconds']} s per run; "
                  f"host.ref_ms untraced "
                  f"{fmt(plain['per_layer']['host.ref_ms']['value'])}, traced "
                  f"{fmt(traced['per_layer']['host.ref_ms']['value'])}.", ""]

        shares, n_events = layer_shares(f"{stem}.trace.json")
        lines += [f"Self-time share by layer ({n_events} spans):", "",
                  "| layer | self ms | share |", "|---|---:|---:|"]
        lines += [f"| {layer} | {ms:.1f} | {share:.1%} |"
                  for layer, ms, share in shares]
        lines += ["", "Tracing overhead (traced minus untraced; the traced "
                  "run also runs the layer probes after its first pass, "
                  "which peak_rss_mb includes):", "",
                  "| metric | untraced | traced | overhead |",
                  "|---|---:|---:|---:|"]
        for name, m in plain["end_to_end"].items():
            a, b = m["value"], traced["end_to_end"][name]["value"]
            rel = f" ({(b - a) / a:+.1%})" if a else ""
            lines.append(f"| {name} ({m['unit']}) | {fmt(a)} | {fmt(b)} | "
                         f"{fmt(b - a)}{rel} |")

        if workload == "serve-warm":
            layer = traced["per_layer"]
            rtt = layer["serve.rtt_p50_ms"]["value"]
            lines += ["", "Hop accounting of a warm request (medians, ms):",
                      "", "| hop | ms | share of RTT |", "|---|---:|---:|"]
            hop_sum = 0.0
            for hop in HOPS:
                v = layer[hop]["value"]
                hop_sum += v
                lines.append(f"| {hop} | {v:.4f} | {v / rtt:.1%} |")
            un = layer["serve.unaccounted_ms"]["value"]
            lines += [f"| serve.unaccounted_ms | {un:.4f} | {un / rtt:.1%} |",
                      f"| **sum = serve.rtt_p50_ms** | {hop_sum + un:.4f} | "
                      f"{(hop_sum + un) / rtt:.1%} |", "",
                      f"{int(layer['serve.requests']['value'])} timed requests;"
                      f" rtt p50 {rtt:.4f} ms, p99 "
                      f"{layer['serve.rtt_p99_ms']['value']:.4f} ms, "
                      f"{layer['serve.req_per_s']['value']:.1f} req/s."]
        lines.append("")
    out_path.write_text("\n".join(lines))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
