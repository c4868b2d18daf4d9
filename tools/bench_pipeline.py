#!/usr/bin/env python3
"""End-to-end benchmark of the out-of-core streaming data plane.

Runs the full pipeline at a configurable scale:

    acobe_gen  ->  acobe_detect --shards=N
               ->  acobe_detect --shards=1  (single-shard reference)

and writes an acobe.metrics.v1 JSON with throughput (users/sec,
events/sec, deviation matrices/sec) and peak-RSS gauges for each stage.
The streaming detect runs with --health-out, and the final heartbeat's
per-stage wall times land as `<prefix>.detect_stream.stage.<name>_seconds`
gauges, so the benchmark log shows where the pipeline spent its time
(ingest vs spool vs detect vs write; shard replay overlaps detection,
so it is part of the detect stage).
Unless --skip-reference is given, the detector runs again on the same
dataset with every department in one shard and the two stdouts are
compared byte-for-byte: the benchmark FAILS if the sharded run is not
bit-identical, so every perf run is also a correctness run.

The headline transferable metric is
`pipeline.detect.sharded_vs_single_rss_ratio` — sharded peak RSS over
single-shard peak RSS on the same dataset in the same run, i.e. how far
sharding bounds memory. Like the GEMM blocked/ref speedup, the ratio
cancels machine and container effects; absolute rates and RSS are
recorded for the log but do not transfer.

Usage:
    tools/bench_pipeline.py --bin-dir build/tools --out BENCH.json \
        [--users 150 --departments 8 --days 75 --epochs 2 --shards 4] \
        [--rate 0.3] [--seed 7] [--skip-reference] [--keep-data] \
        [--data-dir DIR] [--prefix pipeline]

Exit status 0 on success, 1 on any stage failure or an identity mismatch.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time


def run_timed(cmd, stdout_path):
    start = time.monotonic()
    with open(stdout_path, "wb") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{cmd[0]} exited {proc.returncode}")
    return elapsed


def load_metrics(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "acobe.metrics.v1":
        raise ValueError(f"{path}: not an acobe.metrics.v1 file")
    return doc


def final_heartbeat(path):
    """Last acobe.health.v1 line of a heartbeat file, or None."""
    last = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                beat = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail
            if beat.get("schema") == "acobe.health.v1":
                last = beat
    return last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", required=True,
                    help="directory holding acobe_gen / acobe_detect")
    ap.add_argument("--out", required=True, help="output metrics JSON")
    ap.add_argument("--users", type=int, default=150,
                    help="users per department (default 150)")
    ap.add_argument("--departments", type=int, default=8)
    ap.add_argument("--days", type=int, default=75,
                    help="simulated span in days (default 75)")
    ap.add_argument("--epochs", type=int, default=2)
    ap.add_argument("--shards", type=int, default=4)
    ap.add_argument("--rate", type=float, default=0.3,
                    help="activity rate scale (default 0.3)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--skip-reference", action="store_true",
                    help="skip the single-shard reference run (very large "
                         "datasets); no identity check, no RSS ratio")
    ap.add_argument("--keep-data", action="store_true")
    ap.add_argument("--data-dir", default=None,
                    help="where to generate the dataset (default: a "
                         "fresh temp dir)")
    ap.add_argument("--prefix", default="pipeline",
                    help="gauge-name prefix (default 'pipeline')")
    args = ap.parse_args()

    gen = os.path.join(args.bin_dir, "acobe_gen")
    detect = os.path.join(args.bin_dir, "acobe_detect")
    for tool in (gen, detect):
        if not os.access(tool, os.X_OK):
            print(f"bench_pipeline: missing tool {tool}", file=sys.stderr)
            return 1

    data_dir = args.data_dir or tempfile.mkdtemp(prefix="acobe-bench-")
    os.makedirs(data_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="acobe-bench-out-")
    total_users = args.users * args.departments
    # The detector needs a training window comfortably past omega and a
    # test window after it; 60/40 over the simulated span works at every
    # scale this script targets.
    start_day = "2010-01-02"
    import datetime
    d0 = datetime.date(2010, 1, 2)
    end = (d0 + datetime.timedelta(days=args.days - 1)).isoformat()
    train_end = (d0 + datetime.timedelta(days=int(args.days * 0.6))).isoformat()

    gauges = {}
    p = args.prefix
    gauges[f"{p}.users"] = total_users
    gauges[f"{p}.departments"] = args.departments
    gauges[f"{p}.days"] = args.days
    try:
        # --- generate ----------------------------------------------
        gen_metrics = os.path.join(scratch, "gen.json")
        gen_secs = run_timed(
            [gen, f"--out={data_dir}", f"--users={args.users}", f"--departments={args.departments}",
             f"--seed={args.seed}", f"--rate={args.rate}",
             f"--start={start_day}", f"--end={end}",
             f"--metrics-out={gen_metrics}"],
            os.path.join(scratch, "gen.out"))
        gdoc = load_metrics(gen_metrics)
        events = gdoc["counters"]["gen.events_simulated"]
        gauges[f"{p}.events"] = events
        gauges[f"{p}.gen.seconds"] = round(gen_secs, 3)
        gauges[f"{p}.gen.users_per_second"] = round(total_users / gen_secs, 2)
        gauges[f"{p}.gen.events_per_second"] = round(events / gen_secs, 1)
        gauges[f"{p}.gen.peak_rss_bytes"] = \
            gdoc["gauges"]["process.peak_rss_bytes"]

        # --- detect (sharded) ----------------------------------------
        det_metrics = os.path.join(scratch, "detect_stream.json")
        det_health = os.path.join(scratch, "detect_stream.health.jsonl")
        stream_out = os.path.join(scratch, "detect_stream.out")
        det_secs = run_timed(
            [detect, f"--in={data_dir}", f"--train-end={train_end}",
             f"--epochs={args.epochs}",
             f"--shards={args.shards}", f"--metrics-out={det_metrics}",
             f"--health-out={det_health}", "--health-interval-ms=250"],
            stream_out)
        ddoc = load_metrics(det_metrics)
        aspects = int(ddoc["gauges"].get("features.aspects", 0))
        gauges[f"{p}.detect_stream.seconds"] = round(det_secs, 3)
        gauges[f"{p}.detect_stream.users_per_second"] = \
            round(total_users / det_secs, 2)
        gauges[f"{p}.detect_stream.events_per_second"] = \
            round(events / det_secs, 1)
        # One deviation matrix per (user, aspect): the unit of ACOBE
        # scoring work.
        if aspects > 0:
            gauges[f"{p}.detect_stream.matrices_per_second"] = \
                round(total_users * aspects / det_secs, 2)
        stream_rss = ddoc["gauges"]["process.peak_rss_bytes"]
        gauges[f"{p}.detect_stream.peak_rss_bytes"] = stream_rss
        # Per-stage wall-time breakdown from the final heartbeat.
        beat = final_heartbeat(det_health)
        if beat is not None:
            for stage in beat.get("stages", []):
                name = str(stage.get("stage", "")).replace(".", "_")
                if not name:
                    continue
                gauges[f"{p}.detect_stream.stage.{name}_seconds"] = \
                    round(float(stage.get("seconds", 0.0)), 3)

        # --- detect (single-shard reference) + identity check --------
        if not args.skip_reference:
            ref_metrics = os.path.join(scratch, "detect_single.json")
            ref_out = os.path.join(scratch, "detect_single.out")
            ref_secs = run_timed(
                [detect, f"--in={data_dir}", f"--train-end={train_end}",
                 f"--epochs={args.epochs}", "--shards=1",
                 f"--metrics-out={ref_metrics}"],
                ref_out)
            rdoc = load_metrics(ref_metrics)
            ref_rss = rdoc["gauges"]["process.peak_rss_bytes"]
            gauges[f"{p}.detect_single.seconds"] = round(ref_secs, 3)
            gauges[f"{p}.detect_single.peak_rss_bytes"] = ref_rss
            gauges[f"{p}.detect.sharded_vs_single_rss_ratio"] = \
                round(stream_rss / ref_rss, 4)
            with open(stream_out, "rb") as a, open(ref_out, "rb") as b:
                if a.read() != b.read():
                    print("bench_pipeline: FAIL: sharded stdout differs "
                          "from single-shard stdout", file=sys.stderr)
                    return 1
            print("identity: sharded stdout == single-shard stdout")
    except (RuntimeError, ValueError, KeyError, OSError) as e:
        print(f"bench_pipeline: {e}", file=sys.stderr)
        return 1
    finally:
        if not args.keep_data and args.data_dir is None:
            shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)

    doc = {
        "schema": "acobe.metrics.v1",
        "counters": {},
        "gauges": dict(sorted(gauges.items())),
        "histograms": {},
        "series": {},
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    for key, value in sorted(gauges.items()):
        print(f"{key} = {value}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
