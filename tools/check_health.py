#!/usr/bin/env python3
"""Validate an acobe.health.v1 heartbeat file (--health-out output).

Usage: check_health.py HEALTH_FILE [--require-final] [--min-beats=N]
                       [--daemon]

Checks, per line and across the file:
  - every line parses as JSON with schema acobe.health.v1 (a torn final
    line is only tolerated when the process crashed; here it is an
    error — CI runs complete),
  - seq starts at 1 and increases by exactly 1,
  - uptime_ms is nondecreasing,
  - each counter's total is nondecreasing across beats and delta/rate
    are internally consistent (delta == total - previous total),
  - stage/stages/rss/cpu fields exist with sane types and values,
  - with --require-final: the last beat has final == true and its stage
    is "done", and at least --min-beats lines exist (default 2: the
    startup beat plus the final one),
  - with --daemon: the file came from acobe_serve, so the final beat
    must carry the service.cycles and service.batches counters (the
    daemon registers both at startup; a restart with nothing pending
    reports them at 0).

Exit code 0 on success, 1 with a diagnostic on the first failure.
"""

import json
import sys

SCHEMA = "acobe.health.v1"
DAEMON_COUNTERS = ("service.cycles", "service.batches")


def fail(msg):
    print(f"check_health: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_beat(i, beat):
    """Structural checks on one heartbeat."""
    if beat.get("schema") != SCHEMA:
        fail(f"line {i}: schema {beat.get('schema')!r} != {SCHEMA!r}")
    for key, kind in (
        ("tool", str),
        ("seq", int),
        ("uptime_ms", int),
        ("interval_ms", int),
        ("final", bool),
        ("stage", dict),
        ("stages", list),
        ("rss_bytes", int),
        ("peak_rss_bytes", int),
        ("cpu", dict),
        ("counters", dict),
        ("gauges", dict),
        ("spans", list),
    ):
        if not isinstance(beat.get(key), kind):
            fail(f"line {i}: field {key!r} missing or not {kind.__name__}")
    stage = beat["stage"]
    for key in ("name", "done", "total", "elapsed_s", "eta_s"):
        if key not in stage:
            fail(f"line {i}: stage.{key} missing")
    if stage["done"] < 0 or stage["total"] < 0:
        fail(f"line {i}: negative stage progress")
    if stage["total"] > 0 and stage["done"] > stage["total"]:
        fail(f"line {i}: stage done {stage['done']} > total {stage['total']}")
    if beat["rss_bytes"] < 0 or beat["peak_rss_bytes"] < beat["rss_bytes"]:
        # peak is the kernel high-water mark; it can never trail current.
        fail(f"line {i}: peak_rss_bytes < rss_bytes")
    if beat["cpu"].get("proc_seconds", 0) < 0:
        fail(f"line {i}: negative cpu.proc_seconds")
    for name, c in beat["counters"].items():
        for key in ("total", "delta", "rate"):
            if key not in c:
                fail(f"line {i}: counter {name!r} missing {key!r}")
        if c["total"] < 0 or c["delta"] < 0 or c["rate"] < 0:
            fail(f"line {i}: counter {name!r} has a negative field")
    for s in beat["stages"]:
        for key in ("stage", "seconds", "done", "total"):
            if key not in s:
                fail(f"line {i}: stages[] entry missing {key!r}")
        if s["seconds"] < 0:
            fail(f"line {i}: stage {s['stage']!r} negative wall time")
    for s in beat["spans"]:
        for key in ("name", "parent", "count", "total_ms", "self_ms"):
            if key not in s:
                fail(f"line {i}: spans[] entry missing {key!r}")
        if s["self_ms"] > s["total_ms"] + 1e-6:
            fail(f"line {i}: span {s['name']!r} self_ms > total_ms")


def check_daemon_counters(beats):
    """Daemon mode: the final beat carries the cycle counters."""
    counters = beats[-1]["counters"]
    for name in DAEMON_COUNTERS:
        if name not in counters:
            fail(f"--daemon: final beat lacks counter {name!r}")
    return {name: counters[name]["total"] for name in DAEMON_COUNTERS}


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    require_final = "--require-final" in sys.argv
    daemon = "--daemon" in sys.argv
    min_beats = 2
    for a in sys.argv[1:]:
        if a.startswith("--min-beats="):
            min_beats = int(a.split("=", 1)[1])
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(1)

    try:
        with open(args[0], encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"cannot read {args[0]}: {e}")
    if not lines:
        fail(f"{args[0]} holds no heartbeats")

    beats = []
    for i, line in enumerate(lines, 1):
        try:
            beats.append(json.loads(line))
        except json.JSONDecodeError as e:
            fail(f"line {i}: not JSON ({e})")

    prev = None
    prev_counters = {}
    for i, beat in enumerate(beats, 1):
        check_beat(i, beat)
        if beat["seq"] != i:
            fail(f"line {i}: seq {beat['seq']} != expected {i}")
        if prev is not None:
            if beat["uptime_ms"] < prev["uptime_ms"]:
                fail(f"line {i}: uptime_ms went backwards")
            if prev["final"]:
                fail(f"line {i}: beats after a final heartbeat")
        for name, c in beat["counters"].items():
            before = prev_counters.get(name, 0)
            if c["total"] < before:
                fail(f"line {i}: counter {name!r} decreased "
                     f"({before} -> {c['total']})")
            if c["delta"] != c["total"] - before:
                fail(f"line {i}: counter {name!r} delta {c['delta']} != "
                     f"total {c['total']} - previous {before}")
            prev_counters[name] = c["total"]
        prev = beat

    if require_final:
        if len(beats) < min_beats:
            fail(f"only {len(beats)} beats; expected >= {min_beats}")
        last = beats[-1]
        if not last["final"]:
            fail("last heartbeat is not final")
        if last["stage"]["name"] != "done":
            fail(f"final stage {last['stage']['name']!r} != 'done'")

    daemon_note = ""
    if daemon:
        totals = check_daemon_counters(beats)
        daemon_note = (f", {totals['service.cycles']} cycle(s) over "
                       f"{totals['service.batches']} batch(es)")

    tools = {b["tool"] for b in beats}
    print(f"check_health: OK: {len(beats)} beats from {'/'.join(sorted(tools))}"
          f", {len(prev_counters)} counters, "
          f"{len(beats[-1]['stages'])} stages{daemon_note}")


if __name__ == "__main__":
    main()
