#!/usr/bin/env python3
"""Crash-injection soak for acobe_serve's restart bit-identity contract.

The resident service promises that SIGKILL at *any* instant loses no
output and duplicates no output: after a restart, the concatenated
alert stream and ledger are byte-identical to a run that was never
interrupted. This harness proves it the blunt way:

  1. generate a small CERT-style dataset (acobe_gen, planted insider),
  2. split it into day-range batch directories under a watch dir,
     with the READY marker written last (the daemon's admission rule),
  3. reference run: one uninterrupted `acobe_serve --drain` over all
     batches, plus a second one at --shards=1 whose alerts.jsonl must be
     byte-identical and whose ledger must match once run_complete lines
     and the manifest's shards field are dropped (the shard layout
     cannot move a result),
  4. soak run: release the same batches one at a time into a second
     watch dir; before letting each batch complete, start the daemon
     and SIGKILL it after a seeded random delay (landing the kill in
     startup, replay, ingest, detect or commit at random), then run
     to completion; repeat until at least --min-kills kills landed,
  5. compare: alerts.jsonl must be byte-identical, and the ledger must
     be line-identical after dropping run_complete lines (each interim
     completed process appends one, and only the journaled prefix
     survives a restart — the final line legitimately differs in its
     per-process cycle count),
  6. validate the final process's heartbeat file with check_health.py
     --require-final.

With --with-http every soak-side daemon additionally runs the embedded
observability server (--listen=127.0.0.1:0) while the reference run
does not, proving the endpoint plane never perturbs detection output,
and the heartbeat check also enforces the per-shard queue gauges
(check_health.py --daemon).

Everything is driven by one --seed, so a failure reproduces.

Exit code 0 on success, 1 with a diagnostic on the first failure.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

DAY = 86400
EVENT_CSVS = ["device.csv", "file.csv", "http.csv", "logon.csv"]

# Small-but-real detection geometry: ~70 days of data, 2 departments,
# a window that forces several multi-batch slides.
GEN_ARGS = [
    "--users=36", "--departments=2", "--seed=7",
    "--start=2010-01-04", "--end=2010-03-15",
    "--scenario1=0:2010-02-15:5",
]
SERVE_ARGS = [
    "--epochs=2", "--window-days=21", "--train-days=12", "--omega=5",
    "--seed=1234", "--alert-top=3", "--persistence-days=2",
    "--cooloff-days=2", "--admission=block",
]
DAYS_PER_BATCH = 4


def log(msg):
    print(f"[service_soak] {msg}", flush=True)


def fail(msg):
    print(f"[service_soak] FAIL: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def run_checked(argv, what):
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}:\n"
             f"{proc.stderr.decode(errors='replace')[-2000:]}")


def split_into_batches(data_dir, watch_dir):
    """Splits the event CSVs into per-day-range batch dirs. Returns the
    list of batch directory names in release (lexicographic) order."""
    headers, rows = {}, {}
    lo = None
    for name in EVENT_CSVS:
        with open(os.path.join(data_dir, name)) as fh:
            headers[name] = fh.readline()
            rows[name] = fh.readlines()
            for line in rows[name]:
                d = int(line.split(",", 1)[0]) // DAY
                lo = d if lo is None or d < lo else lo
    batches = {}
    for name in EVENT_CSVS:
        for line in rows[name]:
            d = int(line.split(",", 1)[0]) // DAY
            b = (d - lo) // DAYS_PER_BATCH
            batches.setdefault(b, {n: [] for n in EVENT_CSVS})
            batches[b][name].append(line)
    names = []
    for b in sorted(batches):
        bname = f"batch-{b:03d}"
        bdir = os.path.join(watch_dir, bname)
        os.makedirs(bdir)
        for name in EVENT_CSVS:
            with open(os.path.join(bdir, name), "w") as fh:
                fh.write(headers[name])
                fh.writelines(batches[b][name])
        names.append(bname)
    return names


def release(staging, watch_dir, bname):
    """Moves one staged batch into the watch dir; READY written last."""
    shutil.move(os.path.join(staging, bname), os.path.join(watch_dir, bname))
    with open(os.path.join(watch_dir, bname, "READY"), "w"):
        pass


def serve_argv(serve, watch, out, extra=(), shards=2):
    return ([serve, f"--watch={watch}", f"--out={out}",
             f"--roster={os.path.join(out, os.pardir, 'data', 'ldap.csv')}"]
            + SERVE_ARGS + [f"--shards={shards}", "--drain"] + list(extra))


def read_ledger_without_run_complete(path):
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    return [l for l in lines if l and b'"event": "run_complete"' not in l]


def without_manifest_shards(ledger):
    """Ledger lines with the manifest's shards field dropped."""
    out = []
    for line in ledger:
        event = json.loads(line)
        if event.get("event") == "manifest":
            event.pop("shards", None)
            line = json.dumps(event, sort_keys=True).encode()
        out.append(line)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gen", required=True)
    ap.add_argument("--serve", required=True)
    ap.add_argument("--check-health", required=True)
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--min-kills", type=int, default=12)
    ap.add_argument("--with-http", action="store_true",
                    help="run every soak daemon with --listen=127.0.0.1:0 "
                         "(the reference run stays serverless; outputs "
                         "must still match byte-for-byte)")
    ap.add_argument("--keep", action="store_true",
                    help="leave the workdir behind for inspection")
    args = ap.parse_args()

    workdir = args.workdir or os.path.join(
        os.environ.get("TMPDIR", "/tmp"), f"acobe_service_soak_{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    data = os.path.join(workdir, "data")
    staging = os.path.join(workdir, "staging")
    ref_watch = os.path.join(workdir, "ref_watch")
    ref_out = os.path.join(workdir, "ref_out")
    ref1_out = os.path.join(workdir, "ref1_out")
    soak_watch = os.path.join(workdir, "soak_watch")
    soak_out = os.path.join(workdir, "soak_out")
    for d in (data, staging, ref_watch, ref_out, ref1_out, soak_watch,
              soak_out):
        os.makedirs(d)

    log("generating dataset")
    run_checked([args.gen, f"--out={data}"] + GEN_ARGS, "acobe_gen")
    batch_names = split_into_batches(data, ref_watch)
    log(f"{len(batch_names)} batches of {DAYS_PER_BATCH} days")
    for bname in batch_names:
        shutil.copytree(os.path.join(ref_watch, bname),
                        os.path.join(staging, bname))
        with open(os.path.join(ref_watch, bname, "READY"), "w"):
            pass

    log("reference run (uninterrupted drain)")
    t0 = time.monotonic()
    run_checked(serve_argv(args.serve, ref_watch, ref_out),
                "reference acobe_serve")
    log(f"reference drain took {time.monotonic() - t0:.1f}s")
    for name in ("alerts.jsonl", "ledger.jsonl"):
        if not os.path.exists(os.path.join(ref_out, name)):
            fail(f"reference run produced no {name}")

    log("single-shard reference run (uninterrupted drain, --shards=1)")
    run_checked(serve_argv(args.serve, ref_watch, ref1_out, shards=1),
                "single-shard acobe_serve")
    with open(os.path.join(ref_out, "alerts.jsonl"), "rb") as fh:
        ref_alerts = fh.read()
    with open(os.path.join(ref1_out, "alerts.jsonl"), "rb") as fh:
        if fh.read() != ref_alerts:
            fail("alerts.jsonl differs between --shards=2 and --shards=1")
    ref_ledger = read_ledger_without_run_complete(
        os.path.join(ref_out, "ledger.jsonl"))
    if without_manifest_shards(ref_ledger) != without_manifest_shards(
            read_ledger_without_run_complete(
                os.path.join(ref1_out, "ledger.jsonl"))):
        fail("ledger differs between --shards=2 and --shards=1 beyond the "
             "manifest's shards field")
    log(f"--shards=1 matches --shards=2 ({len(ref_alerts)} alert bytes)")

    rng = random.Random(args.seed)
    kills = 0
    kill_stages = []
    http_args = ["--listen=127.0.0.1:0"] if args.with_http else []

    def killed_attempt(delay):
        """Starts the daemon, SIGKILLs it after `delay` seconds.
        Returns True when the kill actually landed mid-run."""
        nonlocal kills
        proc = subprocess.Popen(
            serve_argv(args.serve, soak_watch, soak_out, http_args),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        time.sleep(delay)
        if proc.poll() is not None:
            return False  # finished before the kill: nothing to prove
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        kills += 1
        kill_stages.append(round(delay, 3))
        return True

    def run_to_completion(extra=()):
        for attempt in range(5):
            proc = subprocess.run(
                serve_argv(args.serve, soak_watch, soak_out,
                           http_args + list(extra)),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if proc.returncode == 0:
                return
        fail(f"soak completion run kept failing (exit {proc.returncode}):\n"
             f"{proc.stderr.decode(errors='replace')[-2000:]}")

    log(f"soak run: >= {args.min_kills} seeded SIGKILLs")
    for i, bname in enumerate(batch_names):
        release(staging, soak_watch, bname)
        # Kill harder early in the schedule so the target is met even
        # if later batches process too fast to catch.
        behind = args.min_kills - kills
        remaining = len(batch_names) - i
        attempts = max(1, -(-behind // max(1, remaining)))  # ceil
        for _ in range(attempts):
            # Short delays land in startup/replay; longer ones land in
            # ingest, detect or the commit protocol of the new cycle.
            # An attempt that finishes before the kill has consumed the
            # batch, so further kills on it would only hit no-op starts.
            if not killed_attempt(rng.uniform(0.01, 0.25)):
                break
        is_last = i == len(batch_names) - 1
        extra = [f"--health-out={os.path.join(soak_out, 'health.jsonl')}",
                 "--health-interval-ms=50"] if is_last else []
        run_to_completion(extra)

    # If fast batches dodged their kills, top up with restarts killed
    # mid-replay: a restart with nothing pending still loads the
    # journal and re-ingests the whole window before drain-exiting,
    # which is exactly the recovery path worth interrupting.
    topped_up = False
    for _ in range(200):
        if kills >= args.min_kills:
            break
        topped_up |= killed_attempt(rng.uniform(0.01, 0.15))
    if topped_up:
        # The last kill may have torn a freshly-appended run_complete
        # tail; one clean completion truncates it back to the journaled
        # prefix and ends the stream with a single completion event.
        run_to_completion()

    log(f"{kills} kills landed (delays: {kill_stages})")
    if kills < args.min_kills:
        fail(f"only {kills} kills landed, wanted >= {args.min_kills}")

    # --- Byte-identity -----------------------------------------------------
    with open(os.path.join(soak_out, "alerts.jsonl"), "rb") as fh:
        soak_alerts = fh.read()
    if ref_alerts != soak_alerts:
        ref_lines = ref_alerts.split(b"\n")
        soak_lines = soak_alerts.split(b"\n")
        for i, (a, b) in enumerate(zip(ref_lines, soak_lines)):
            if a != b:
                fail(f"alerts.jsonl diverges at line {i + 1}:\n"
                     f"  ref : {a.decode(errors='replace')}\n"
                     f"  soak: {b.decode(errors='replace')}")
        fail(f"alerts.jsonl length mismatch: ref {len(ref_lines)} lines, "
             f"soak {len(soak_lines)} lines")
    if not ref_alerts:
        fail("reference alert stream is empty; soak proves nothing")
    n_alerts = ref_alerts.count(b"\n")
    log(f"alerts.jsonl byte-identical ({len(ref_alerts)} bytes, "
        f"{n_alerts} alerts)")

    soak_ledger = read_ledger_without_run_complete(
        os.path.join(soak_out, "ledger.jsonl"))
    if ref_ledger != soak_ledger:
        for i, (a, b) in enumerate(zip(ref_ledger, soak_ledger)):
            if a != b:
                fail(f"ledger diverges at event {i + 1}:\n"
                     f"  ref : {a.decode(errors='replace')}\n"
                     f"  soak: {b.decode(errors='replace')}")
        fail(f"ledger event count mismatch: ref {len(ref_ledger)}, "
             f"soak {len(soak_ledger)}")
    log(f"ledger event stream identical ({len(ref_ledger)} events)")

    # Exactly one run_complete must survive: the journal prefix truncates
    # every interim process's completion line on the next restart.
    with open(os.path.join(soak_out, "ledger.jsonl"), "rb") as fh:
        completes = fh.read().count(b'"event": "run_complete"')
    if completes != 1:
        fail(f"expected exactly 1 surviving run_complete, found {completes}")

    log("validating final-run heartbeats")
    run_checked([sys.executable, args.check_health,
                 os.path.join(soak_out, "health.jsonl"), "--require-final"]
                + (["--daemon"] if args.with_http else []),
                "check_health.py")

    log(f"PASS: {kills} kills, output bit-identical to uninterrupted run"
        + (" (observability server enabled)" if args.with_http else ""))
    if not args.keep:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
