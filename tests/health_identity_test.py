#!/usr/bin/env python3
"""End-to-end checks of acobe_detect's output identities.

Generates a small four-department dataset, then runs acobe_detect on it
with the default shard count, with --health-out/--prom-out, with
--shards=1, with --shards=3, and at --threads=1 and --threads=4 (every
other run uses --threads=2), and asserts:

  - stdout is byte-identical across all six runs (the health plane is
    purely observational, and neither the shard layout nor the thread
    count can move a result),
  - the --explain-out reports are byte-identical,
  - the --ledger-out ledgers are byte-identical after stripping the
    run_complete fields that are wall-clock-dependent by design
    (peak_rss_bytes, stages) — those differ between ANY two runs, so
    they are normalized, not ignored silently: the script still checks
    every ledger carries them — and the manifest's threads field, which
    records the run's own setting,
  - the heartbeat file validates under tools/check_health.py
    (--require-final), and acobe_top --once renders it,
  - the Prometheus exposition contains acobe_-prefixed samples and,
    when --check-prom is given, passes the full format 0.0.4 validator
    (tools/check_prom.py),
  - a spool directory that cannot be created (below a regular file)
    exits 1 with a message naming it and the --spool-dir hint, instead
    of aborting,
  - SIGTERM while departments detect (a long --epochs run, signalled
    once the heartbeat reports the detect stage) exits 5 with a
    run_aborted ledger whose stage is detect, prints no department and
    leaves no spool file behind.

Usage:
    health_identity_test.py --gen GEN --detect DETECT --top TOP \
        --check-health CHECK_HEALTH_PY [--check-prom CHECK_PROM_PY]

Exit status 0 on pass, 1 on any mismatch or tool failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time


def run(cmd, stdout_path=None):
    if stdout_path is None:
        proc = subprocess.run(cmd, capture_output=True)
    else:
        with open(stdout_path, "wb") as out:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return proc


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def normalized_ledger(path):
    """Ledger lines with the run_complete wall-clock fields and the
    manifest's threads field stripped.

    Returns (normalized_text, had_health_fields)."""
    lines = []
    had_fields = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if event.get("event") == "run_complete":
                had_fields = ("peak_rss_bytes" in event and "stages" in event)
                event.pop("peak_rss_bytes", None)
                event.pop("stages", None)
            elif event.get("event") == "manifest":
                event.pop("threads", None)
            lines.append(json.dumps(event, sort_keys=True))
    return "\n".join(lines), had_fields


def last_stage(health_path):
    """Stage name of the last complete heartbeat line, or None."""
    try:
        with open(health_path, encoding="utf-8") as f:
            lines = f.read().split("\n")[:-1]  # drop a partial tail
    except FileNotFoundError:
        return None
    for line in reversed(lines):
        if line.strip():
            return json.loads(line)["stage"]["name"]
    return None


def sigterm_during_detect(detect, data, tmp):
    """Signals a long run once it detects; returns a failure or None."""
    health = os.path.join(tmp, "abort.health.jsonl")
    ledger = os.path.join(tmp, "abort.ledger.jsonl")
    with open(os.path.join(tmp, "abort.out"), "wb") as out, \
            open(os.path.join(tmp, "abort.err"), "wb") as err:
        proc = subprocess.Popen(
            [detect, f"--in={data}", "--train-end=2010-02-16",
             "--epochs=500", "--threads=2", f"--health-out={health}",
             "--health-interval-ms=20", f"--ledger-out={ledger}"],
            stdout=out, stderr=err)
        deadline = time.monotonic() + 120
        while last_stage(health) != "detect":
            if proc.poll() is not None:
                return f"exited {proc.returncode} before the detect stage"
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                return "never reached the detect stage"
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=300)
    if proc.returncode != 5:
        stderr = read_bytes(os.path.join(tmp, "abort.err"))
        return (f"exited {proc.returncode}, not 5:\n"
                f"{stderr.decode(errors='replace')}")
    with open(ledger, encoding="utf-8") as f:
        events = [json.loads(line) for line in f if line.strip()]
    aborted = [e for e in events if e.get("event") == "run_aborted"]
    if len(aborted) != 1 or aborted[0].get("stage") != "detect":
        return f"ledger has no run_aborted event at stage detect: {aborted}"
    if read_bytes(os.path.join(tmp, "abort.out")):
        return "department lines on stdout"
    spool = os.path.join(data, ".acobe-spool")
    if os.path.exists(spool) and os.listdir(spool):
        return f"spool files left in {spool}: {os.listdir(spool)}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gen", required=True)
    ap.add_argument("--detect", required=True)
    ap.add_argument("--top", required=True)
    ap.add_argument("--check-health", required=True)
    ap.add_argument("--check-prom", default=None)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="acobe-health-id-") as tmp:
        data = os.path.join(tmp, "data")
        os.makedirs(data)
        run([args.gen, f"--out={data}", "--users=6", "--departments=4",
             "--seed=11", "--rate=0.3", "--start=2010-01-02",
             "--end=2010-03-17"])

        def detect(tag, extra):
            out = os.path.join(tmp, f"{tag}.out")
            if not any(a.startswith("--threads=") for a in extra):
                extra = ["--threads=2"] + extra
            run([args.detect, f"--in={data}", "--train-end=2010-02-16",
                 "--epochs=2",
                 f"--explain-out={os.path.join(tmp, tag + '.explain.json')}",
                 f"--ledger-out={os.path.join(tmp, tag + '.ledger.jsonl')}"]
                + extra, stdout_path=out)

        health = os.path.join(tmp, "health.jsonl")
        prom = os.path.join(tmp, "metrics.prom")
        runs = {
            "plain": [],
            "health": [f"--health-out={health}", "--health-interval-ms=50",
                       f"--prom-out={prom}"],
            "shards1": ["--shards=1"],
            "shards3": ["--shards=3"],
            "threads1": ["--threads=1"],
            "threads4": ["--threads=4"],
        }
        for tag, extra in runs.items():
            detect(tag, extra)

        def artifacts(tag):
            ledger, has_fields = normalized_ledger(
                os.path.join(tmp, tag + ".ledger.jsonl"))
            if not has_fields:
                raise RuntimeError(
                    f"{tag}: run_complete lacks peak_rss_bytes/stages")
            return {
                "stdout": read_bytes(os.path.join(tmp, tag + ".out")),
                "explain report": read_bytes(
                    os.path.join(tmp, tag + ".explain.json")),
                "normalized ledger": ledger,
            }

        reference = artifacts("plain")
        for tag in runs:
            for what, value in artifacts(tag).items():
                if value != reference[what]:
                    print(f"FAIL: {what} of the {tag} run differs from the "
                          "plain run", file=sys.stderr)
                    return 1

        # A spool directory that cannot be created is a clean runtime
        # failure (exit 1, no core dump), and names the fix.
        blocker = os.path.join(tmp, "not-a-dir")
        with open(blocker, "w") as f:
            f.write("x")
        spool_dir = os.path.join(blocker, "spool")
        proc = subprocess.run(
            [args.detect, f"--in={data}", "--train-end=2010-02-16",
             "--epochs=2", f"--spool-dir={spool_dir}"], capture_output=True)
        err = proc.stderr.decode(errors="replace")
        if proc.returncode != 1 or spool_dir not in err or \
                "--spool-dir=" not in err:
            print(f"FAIL: unusable spool dir exited {proc.returncode}:\n"
                  f"{err}", file=sys.stderr)
            return 1

        failure = sigterm_during_detect(args.detect, data, tmp)
        if failure:
            print(f"FAIL: SIGTERM during detect: {failure}", file=sys.stderr)
            return 1

        run([sys.executable, args.check_health, health, "--require-final"])
        top = run([args.top, health, "--once"])
        rendered = top.stdout.decode(errors="replace")
        if "acobe-detect" not in rendered or "stage" not in rendered:
            print(f"FAIL: acobe_top render looks wrong:\n{rendered}",
                  file=sys.stderr)
            return 1
        prom_text = read_bytes(prom).decode(errors="replace")
        if "# TYPE acobe_" not in prom_text:
            print("FAIL: Prometheus exposition has no acobe_ samples",
                  file=sys.stderr)
            return 1
        if args.check_prom:
            run([sys.executable, args.check_prom, prom,
                 "--require-prefix=acobe_", "--min-samples=10"])

    print("health_identity_test: OK — output byte-identical with the "
          "health plane on and across shard layouts and thread counts; "
          "heartbeats, top render and prom export valid; spool failure "
          "exits 1")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"health_identity_test: {e}", file=sys.stderr)
        sys.exit(1)
