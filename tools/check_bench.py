#!/usr/bin/env python3
"""CI gate for the blocked GEMM kernels and the streaming pipeline.

Default mode compares a fresh `micro_nn --metrics-out=...` run against
the checked-in baseline (bench/BENCH_nn.json). Absolute GFLOP/s numbers do not transfer
between machines, so the gate is expressed in terms of the in-run speedup
of the blocked kernel over the scalar reference kernel:

    speedup(N) = BM_Gemm/N.items_per_second / BM_GemmRef/N.items_per_second

Both benchmarks run in the same process on the same machine, so the ratio
cancels out clock speed, turbo state, and container noise. The gate fails
if any size's current speedup drops below `tolerance` times the baseline
speedup (default 0.8, i.e. a >20% relative regression of BM_Gemm).

Default mode also gates the ensemble's 4-thread training fan-out on its
own in-run ratio, which equally transfers across machines:
BM_TrainStreamFused/112/4 (TrainStream over four pool workers) over
BM_TrainStreamSolo/112 (the same jobs trained one after another) must
be >= --fused-floor (default 1.5). It is applied when the run's
bench.hw_threads gauge is >= 2 — on one core four workers time-slice
and the ratio measures the scheduler — and skipped (loudly) otherwise.

Both runs should come from the pinned command line
`--benchmark_min_time=0.5 --benchmark_repetitions=5
--benchmark_report_aggregates_only=true`: micro_nn then records each
benchmark's median under its plain name.

The baseline and the current run must carry the same bench.hw_threads:
a ratio recorded with one core count says nothing about another, so a
mismatch fails instead of comparing.

Usage:
    tools/check_bench.py BASELINE.json CURRENT.json [--tolerance 0.8]
        [--fused-floor 1.5]
    tools/check_bench.py --pipeline BASELINE.json CURRENT.json \
        [--rss-tolerance 1.25]

--pipeline gates a `tools/bench_pipeline.py` run (bench/BENCH_pipeline.json
is the checked-in baseline) the same way: on the in-run ratio that
transfers across machines. Here that is
`pipeline.detect.sharded_vs_single_rss_ratio` — sharded acobe_detect
peak RSS over single-shard (--shards=1) peak RSS on the same dataset.
The gate fails if the current ratio exceeds the baseline ratio times
--rss-tolerance (default 1.25, i.e. sharding bounds memory >25% worse
than it did), or if any required pipeline gauge is missing or
non-positive.

Exit status 0 on pass, 1 on regression, hw_threads mismatch or
malformed input. A failure names every gate that failed.
"""

import argparse
import json
import sys

SIZES = (64, 128, 256)


def load_gauges(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "acobe.metrics.v1":
        raise ValueError(f"{path}: not an acobe.metrics.v1 file")
    return doc.get("gauges", {})


def speedup(gauges, size, path):
    blocked_key = f"bench.BM_Gemm/{size}.items_per_second"
    ref_key = f"bench.BM_GemmRef/{size}.items_per_second"
    try:
        blocked = float(gauges[blocked_key])
        ref = float(gauges[ref_key])
    except KeyError as e:
        raise ValueError(f"{path}: missing gauge {e}") from e
    if ref <= 0.0:
        raise ValueError(f"{path}: {ref_key} is non-positive")
    return blocked / ref


# Gauges a healthy pipeline-bench run must always publish, with positive
# values. Structural half of the --pipeline gate.
PIPELINE_REQUIRED = (
    "pipeline.users",
    "pipeline.departments",
    "pipeline.events",
    "pipeline.gen.users_per_second",
    "pipeline.gen.events_per_second",
    "pipeline.gen.peak_rss_bytes",
    "pipeline.detect_stream.users_per_second",
    "pipeline.detect_stream.events_per_second",
    "pipeline.detect_stream.matrices_per_second",
    "pipeline.detect_stream.peak_rss_bytes",
)

PIPELINE_RATIO = "pipeline.detect.sharded_vs_single_rss_ratio"


def check_pipeline(base, cur, rss_tolerance):
    """The --pipeline gate: structure of the current run, plus the
    sharded/single-shard RSS ratio against the baseline's."""
    failed = False
    for key in PIPELINE_REQUIRED:
        value = cur.get(key)
        if value is None:
            print(f"check_bench: missing pipeline gauge {key}",
                  file=sys.stderr)
            failed = True
        elif float(value) <= 0.0:
            print(f"check_bench: non-positive pipeline gauge {key} = {value}",
                  file=sys.stderr)
            failed = True
    base_ratio = base.get(PIPELINE_RATIO)
    cur_ratio = cur.get(PIPELINE_RATIO)
    if base_ratio is None:
        print(f"check_bench: baseline lacks {PIPELINE_RATIO}; "
              "structural checks only")
    elif cur_ratio is None:
        print(f"check_bench: current run lacks {PIPELINE_RATIO} "
              "(--skip-reference?); structural checks only")
    else:
        ceiling = float(base_ratio) * rss_tolerance
        status = "ok" if float(cur_ratio) <= ceiling else "REGRESSION"
        print(f"sharded/single-shard peak-RSS ratio {float(cur_ratio):.3f} "
              f"(baseline {float(base_ratio):.3f}, ceiling {ceiling:.3f}) "
              f"{status}")
        if float(cur_ratio) > ceiling:
            failed = True
    if failed:
        print("check_bench: streaming pipeline regressed vs baseline",
              file=sys.stderr)
        return 1
    print("check_bench: streaming pipeline within tolerance")
    return 0


FUSED_LABEL = "fused train-stream speedup"
FUSED_NUM = "bench.BM_TrainStreamFused/112/4/real_time.items_per_second"
FUSED_DEN = "bench.BM_TrainStreamSolo/112/real_time.items_per_second"


def check_fused(cur, floor):
    """The 4-thread training fan-out floor, hardware-gated by the run's
    own bench.hw_threads gauge. Returns True on failure."""
    num, den = cur.get(FUSED_NUM), cur.get(FUSED_DEN)
    if num is None or den is None:
        print(f"check_bench: missing gauge for {FUSED_LABEL} "
              f"({FUSED_NUM if num is None else FUSED_DEN})", file=sys.stderr)
        return True
    if float(den) <= 0.0:
        print(f"check_bench: non-positive {FUSED_DEN}", file=sys.stderr)
        return True
    ratio = float(num) / float(den)
    hw = float(cur.get("bench.hw_threads", 0.0))
    if hw < 2:
        print(f"{FUSED_LABEL}: {ratio:.2f}x — SKIPPED "
              f"(hw_threads {hw:.0f} < 2, floor not applied)")
        return False
    status = "ok" if ratio >= floor else "REGRESSION"
    print(f"{FUSED_LABEL}: {ratio:.2f}x (floor {floor:.2f}x) {status}")
    return ratio < floor


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.8,
                    help="fail if current speedup < baseline speedup * "
                         "TOLERANCE (default 0.8)")
    ap.add_argument("--fused-floor", type=float, default=1.5,
                    help="minimum speedup of the 4-thread TrainStream "
                         "fan-out over solo training on machines with >= 2 "
                         "hardware threads (default 1.5)")
    ap.add_argument("--pipeline", action="store_true",
                    help="gate a bench_pipeline.py run instead of GEMM")
    ap.add_argument("--rss-tolerance", type=float, default=1.25,
                    help="--pipeline: fail if the sharded/single RSS ratio "
                         "> baseline ratio * RSS_TOLERANCE (default 1.25)")
    args = ap.parse_args()

    try:
        base = load_gauges(args.baseline)
        cur = load_gauges(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_bench: {e}", file=sys.stderr)
        return 1

    if args.pipeline:
        return check_pipeline(base, cur, args.rss_tolerance)

    base_hw, cur_hw = base.get("bench.hw_threads"), cur.get("bench.hw_threads")
    if base_hw is None or cur_hw is None or float(base_hw) != float(cur_hw):
        print(f"check_bench: bench.hw_threads differs (baseline {base_hw}, "
              f"current {cur_hw}); re-record the baseline on this machine "
              "shape instead of comparing", file=sys.stderr)
        return 1

    failed = []
    for n in SIZES:
        try:
            base_s = speedup(base, n, args.baseline)
            cur_s = speedup(cur, n, args.current)
        except ValueError as e:
            print(f"check_bench: {e}", file=sys.stderr)
            return 1
        floor = base_s * args.tolerance
        status = "ok" if cur_s >= floor else "REGRESSION"
        print(f"BM_Gemm/{n}: blocked/ref speedup {cur_s:.2f}x "
              f"(baseline {base_s:.2f}x, floor {floor:.2f}x) {status}")
        if cur_s < floor:
            failed.append(f"BM_Gemm/{n} blocked/ref speedup regressed >"
                          f"{(1 - args.tolerance) * 100:.0f}% vs baseline")

    if check_fused(cur, args.fused_floor):
        failed.append(FUSED_LABEL)

    if failed:
        print("check_bench: failed gates: " + "; ".join(failed),
              file=sys.stderr)
        return 1
    print("check_bench: all gates within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
