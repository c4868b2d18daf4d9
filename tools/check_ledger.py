#!/usr/bin/env python3
"""CI validator for detection-provenance artifacts.

Validates a run ledger (`acobe_detect --ledger-out`, JSONL, schema
acobe.ledger.v1) structurally:

  - every line is a JSON object with an `event` field from the known
    vocabulary;
  - the first event is a `manifest` carrying the schema tag and the
    build-identity block;
  - a `run_complete` event is present (an interrupted run never writes
    one — the ledger lands atomically at the end); when it carries the
    health plane's `peak_rss_bytes`/`stages` fields, they are sane
    (positive peak RSS, nonnegative per-stage wall seconds);
  - every department seen in `aspect_trained` events also has a
    `detection` event, and every detection carries a score digest.

With `--explain` (an `--explain-out` report, schema acobe.explain.v1)
and `--truth` (the generator's truth.csv), additionally checks the
insider-attribution acceptance: each true insider that appears in an
investigation list must carry at least one attributed cell, and at
least one of those cells must fall inside the insider's planted
anomaly window.

Usage:
    tools/check_ledger.py LEDGER.jsonl [--explain EXPLAIN.json]
                          [--truth TRUTH.csv]

Exit status 0 on pass, 1 on any violation or malformed input.
"""

import argparse
import csv
import json
import sys

EVENT_TYPES = {
    "manifest", "aspect_trained", "detection", "quality", "drift",
    "run_complete",
}


def fail(msg):
    print(f"check_ledger: {msg}", file=sys.stderr)
    return 1


def check_ledger(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        return fail(f"{path}: empty ledger")
    events = []
    for i, line in enumerate(lines, 1):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            return fail(f"{path}:{i}: bad JSON: {e}")
        if not isinstance(event, dict) or "event" not in event:
            return fail(f"{path}:{i}: not an event object")
        if event["event"] not in EVENT_TYPES:
            return fail(f"{path}:{i}: unknown event '{event['event']}'")
        events.append(event)

    manifest = events[0]
    if manifest["event"] != "manifest":
        return fail(f"{path}: first event is '{manifest['event']}', "
                    "expected 'manifest'")
    if manifest.get("schema") != "acobe.ledger.v1":
        return fail(f"{path}: manifest schema is {manifest.get('schema')!r}")
    build = manifest.get("build")
    if not isinstance(build, dict) or "version" not in build:
        return fail(f"{path}: manifest has no build-identity block")
    # acobe-detect runs score through the NN core, so their manifests
    # must attribute results to the kernel family that produced them.
    if manifest.get("tool") == "acobe-detect":
        backend = build.get("nn_backend")
        if not isinstance(backend, str) or not backend:
            return fail(f"{path}: acobe-detect manifest lacks nn_backend")

    completes = [e for e in events if e["event"] == "run_complete"]
    if not completes:
        return fail(f"{path}: no run_complete event (interrupted run?)")
    done = completes[-1]
    if "peak_rss_bytes" in done and not (
            isinstance(done["peak_rss_bytes"], int)
            and done["peak_rss_bytes"] > 0):
        return fail(f"{path}: run_complete peak_rss_bytes is not a "
                    f"positive integer: {done['peak_rss_bytes']!r}")
    if "stages" in done:
        stages = done["stages"]
        if not isinstance(stages, list):
            return fail(f"{path}: run_complete stages is not a list")
        for s in stages:
            if not isinstance(s, dict) or "stage" not in s:
                return fail(f"{path}: run_complete stages entry without "
                            f"a stage name: {s!r}")
            if s.get("seconds", 0) < 0 or s.get("done", 0) < 0:
                return fail(f"{path}: run_complete stage {s['stage']!r} "
                            "has a negative field")

    trained_depts = {e.get("department") for e in events
                     if e["event"] == "aspect_trained"}
    detections = {e.get("department"): e for e in events
                  if e["event"] == "detection"}
    for dept in sorted(trained_depts - set(detections)):
        return fail(f"{path}: department {dept!r} trained but has no "
                    "detection event")
    for dept, det in sorted(detections.items()):
        if "score_digest" not in det:
            return fail(f"{path}: detection for {dept!r} has no score_digest")

    counts = {}
    for e in events:
        counts[e["event"]] = counts.get(e["event"], 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"check_ledger: {path}: {len(events)} events ok ({summary})")
    return 0


def load_truth(path):
    """truth.csv rows -> {user: (anomaly_start, anomaly_end)} (ISO dates)."""
    insiders = {}
    with open(path, "r", encoding="utf-8", newline="") as f:
        for row in csv.reader(f):
            if len(row) != 3 or row[0] == "user":
                continue
            insiders[row[0]] = (row[1], row[2])
    return insiders


def check_explain(path, truth_path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "acobe.explain.v1":
        return fail(f"{path}: schema is {doc.get('schema')!r}")
    departments = doc.get("departments")
    if not isinstance(departments, list) or not departments:
        return fail(f"{path}: no departments")

    insiders = load_truth(truth_path) if truth_path else {}
    listed = {}       # insider -> department they ranked in
    attributed = {}   # insider -> list of attributed (aspect, day) cells
    for dept in departments:
        for entry in dept.get("list", []):
            user = entry.get("user")
            if user in insiders:
                listed[user] = dept.get("name", "?")
        for ua in dept.get("attributions", []):
            user = ua.get("user")
            cells = [(aspect.get("aspect"), cell.get("day"))
                     for aspect in ua.get("aspects", [])
                     for cell in aspect.get("cells", [])]
            if not cells:
                return fail(f"{path}: attribution for {user!r} names no cells")
            if user in insiders:
                attributed[user] = cells

    print(f"check_ledger: {path}: {len(departments)} department(s), "
          f"{len(listed)}/{len(insiders)} insider(s) listed")
    for user, dept in sorted(listed.items()):
        if user not in attributed:
            return fail(f"{path}: insider {user} listed in {dept} but has "
                        "no attribution")
        start, end = insiders[user]
        # String comparison works: ISO dates sort lexicographically.
        in_window = [(a, d) for a, d in attributed[user]
                     if d is not None and start <= d <= end]
        if not in_window:
            return fail(f"{path}: insider {user}: no attributed cell inside "
                        f"the anomaly window [{start}, {end}] "
                        f"(got {attributed[user]})")
        aspects = sorted({a for a, _ in in_window})
        print(f"check_ledger: insider {user}: {len(in_window)} attributed "
              f"cell(s) inside [{start}, {end}] via {', '.join(aspects)}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ledger", help="run ledger JSONL (--ledger-out)")
    ap.add_argument("--explain", help="explain report JSON (--explain-out)")
    ap.add_argument("--truth", help="generator truth.csv for the insider-"
                                    "attribution check (needs --explain)")
    args = ap.parse_args()

    try:
        rc = check_ledger(args.ledger)
        if rc == 0 and args.explain:
            rc = check_explain(args.explain, args.truth)
    except OSError as e:
        return fail(str(e))
    except json.JSONDecodeError as e:
        return fail(str(e))
    return rc


if __name__ == "__main__":
    sys.exit(main())
