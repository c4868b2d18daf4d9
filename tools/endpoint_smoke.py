#!/usr/bin/env python3
"""End-to-end smoke of acobe_serve's observability endpoints.

Drives one full daemon lifecycle and validates every endpoint:

  1. generate a small dataset (acobe_gen) and split it into two
     batches: everything but the last few days, and the tail,
  2. drain the first batch without the server to build a journal,
  3. restart the daemon resident with --listen=127.0.0.1:0 and watch
     /readyz flip 503 -> 200 across journal replay (the server comes
     up before recovery on purpose, so probes can see the daemon warm
     up),
  4. check /healthz, then release the second batch and wait for the
     cycle counter on /statusz to advance — the daemon scored it live,
  5. validate /statusz and /cycles JSON (schemas acobe.statusz.v1 /
     acobe.cycles.v1), the 400 on a bad ?n=, the 404/405 surface, and
     /metrics under tools/check_prom.py (including the service.slo.*
     gauges); every /cycles row's ingest_s + detect_s + commit_s must
     add up to its total_s,
  6. render the remote dashboard once with acobe_top --url,
  7. SIGTERM the daemon, require a clean exit, and validate its
     heartbeat file with check_health.py --daemon.

Usage:
    endpoint_smoke.py --gen GEN --serve SERVE --top TOP \
        --check-prom CHECK_PROM_PY --check-health CHECK_HEALTH_PY

Exit code 0 on success, 1 with a diagnostic on the first failure.
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time

DAY = 86400
EVENT_CSVS = ["device.csv", "file.csv", "http.csv", "logon.csv"]
GEN_ARGS = [
    "--users=36", "--departments=2", "--seed=7",
    "--start=2010-01-04", "--end=2010-03-15",
    "--scenario1=0:2010-02-15:5",
]
SERVE_ARGS = [
    "--epochs=2", "--window-days=21", "--train-days=12", "--omega=5",
    "--seed=1234", "--shards=2", "--admission=block", "--poll-ms=100",
]
TAIL_DAYS = 4  # days held back for the live batch


def log(msg):
    print(f"[endpoint_smoke] {msg}", flush=True)


def fail(msg):
    print(f"[endpoint_smoke] FAIL: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def get(addr, path, method="GET", timeout=5.0):
    """One request; returns (status, body_bytes, headers dict)."""
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, path)
        res = conn.getresponse()
        return res.status, res.read(), dict(res.getheaders())
    finally:
        conn.close()


def split_tail(data, watch, staging):
    """Writes all-but-the-last-TAIL_DAYS days as watch/batch-000 and
    the tail as staging/batch-001."""
    headers, rows, hi = {}, {}, None
    for name in EVENT_CSVS:
        with open(os.path.join(data, name)) as fh:
            headers[name] = fh.readline()
            rows[name] = fh.readlines()
        for line in rows[name]:
            d = int(line.split(",", 1)[0]) // DAY
            hi = d if hi is None or d > hi else hi
    cutoff = hi - TAIL_DAYS + 1
    for bdir, keep in ((os.path.join(watch, "batch-000"),
                        lambda d: d < cutoff),
                       (os.path.join(staging, "batch-001"),
                        lambda d: d >= cutoff)):
        os.makedirs(bdir)
        for name in EVENT_CSVS:
            with open(os.path.join(bdir, name), "w") as fh:
                fh.write(headers[name])
                fh.writelines(l for l in rows[name]
                              if keep(int(l.split(",", 1)[0]) // DAY))
    with open(os.path.join(watch, "batch-000", "READY"), "w"):
        pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gen", required=True)
    ap.add_argument("--serve", required=True)
    ap.add_argument("--top", required=True)
    ap.add_argument("--check-prom", required=True)
    ap.add_argument("--check-health", required=True)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    workdir = args.workdir or os.path.join(
        os.environ.get("TMPDIR", "/tmp"), f"acobe_endpoint_smoke_{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    data = os.path.join(workdir, "data")
    watch = os.path.join(workdir, "watch")
    staging = os.path.join(workdir, "staging")
    out = os.path.join(workdir, "out")
    for d in (data, watch, staging, out):
        os.makedirs(d)

    log("generating dataset + 2 batches")
    subprocess.run([args.gen, f"--out={data}"] + GEN_ARGS, check=True,
                   stdout=subprocess.DEVNULL)
    split_tail(data, watch, staging)

    serve_base = [args.serve, f"--watch={watch}", f"--out={out}",
                  f"--roster={os.path.join(data, 'ldap.csv')}"] + SERVE_ARGS
    log("drain run (builds the journal the restart must replay)")
    subprocess.run(serve_base + ["--drain"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    addr_file = os.path.join(out, "http.addr")
    os.path.exists(addr_file) and os.remove(addr_file)

    log("starting resident daemon with --listen=127.0.0.1:0")
    daemon = subprocess.Popen(
        serve_base + ["--listen=127.0.0.1:0",
                      f"--health-out={os.path.join(out, 'health.jsonl')}",
                      "--health-interval-ms=100"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        # --- /readyz transition across journal replay ------------------
        addr, saw_503, status = None, False, None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if addr is None:
                if not os.path.exists(addr_file):
                    continue
                with open(addr_file) as fh:
                    addr = fh.read().strip()
                log(f"daemon listening on {addr}")
            try:
                status, _, _ = get(addr, "/readyz", timeout=1.0)
            except OSError:
                continue  # bind raced the addr file; retry
            if status == 503:
                saw_503 = True
            elif status == 200:
                break
            else:
                fail(f"/readyz answered {status}")
        if status != 200:
            fail("/readyz never reached 200")
        if not saw_503:
            fail("/readyz skipped the 503 (not-ready) phase during replay")
        log("/readyz flipped 503 -> 200 across replay")

        st, body, _ = get(addr, "/healthz")
        if st != 200 or body != b"ok\n":
            fail(f"/healthz answered {st} {body!r}")

        st, body, _ = get(addr, "/statusz")
        cycle0 = json.loads(body)["cycle"]

        # --- live batch: the cycle counter must advance ----------------
        log("releasing the tail batch")
        shutil.move(os.path.join(staging, "batch-001"),
                    os.path.join(watch, "batch-001"))
        with open(os.path.join(watch, "batch-001", "READY"), "w"):
            pass
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            st, body, _ = get(addr, "/statusz")
            if st == 200 and json.loads(body)["cycle"] > cycle0:
                break
            time.sleep(0.1)
        else:
            fail("cycle counter never advanced after releasing a batch")

        # --- /statusz schema -------------------------------------------
        st, body, headers = get(addr, "/statusz")
        status_doc = json.loads(body)
        if status_doc.get("schema") != "acobe.statusz.v1":
            fail(f"/statusz schema {status_doc.get('schema')!r}")
        if not status_doc.get("ready"):
            fail("/statusz ready is false after readyz 200")
        if "application/json" not in headers.get("Content-Type", ""):
            fail(f"/statusz content type {headers.get('Content-Type')!r}")
        shards = status_doc.get("shards", [])
        if len(shards) != 2:
            fail(f"/statusz reports {len(shards)} shards, expected 2")
        for s in shards:
            for key in ("shard", "queue_peak_rows", "queue_shed",
                        "quarantined"):
                if key not in s:
                    fail(f"/statusz shard lacks {key!r}: {s}")
        if not status_doc.get("departments"):
            fail("/statusz departments empty")
        for key in ("alert_latency_p50_s", "alert_latency_p95_s",
                    "cycle_wall_p50_s", "cycle_wall_p95_s",
                    "cycles_observed"):
            if key not in status_doc.get("slo", {}):
                fail(f"/statusz slo lacks {key!r}")
        log(f"/statusz valid (cycle {status_doc['cycle']}, "
            f"{len(shards)} shards)")

        # --- /cycles schema --------------------------------------------
        st, body, _ = get(addr, "/cycles?n=8")
        cycles_doc = json.loads(body)
        if cycles_doc.get("schema") != "acobe.cycles.v1":
            fail(f"/cycles schema {cycles_doc.get('schema')!r}")
        cycles = cycles_doc.get("cycles", [])
        if not cycles:
            fail("/cycles empty after a live batch")
        for c in cycles:
            for key in ("cycle", "batch", "events_admitted", "alerts",
                        "ingest_s", "detect_s", "commit_s", "total_s",
                        "train_s", "score_s", "batch_age_s",
                        "alert_latency_s"):
                if key not in c:
                    fail(f"/cycles row lacks {key!r}: {c}")
            if c["total_s"] < 0:
                fail(f"/cycles negative total_s: {c}")
            # Each value carries 6 significant digits (%.6g).
            buckets = c["ingest_s"] + c["detect_s"] + c["commit_s"]
            if abs(buckets - c["total_s"]) > 3e-5 * c["total_s"] + 1e-12:
                fail(f"/cycles buckets {buckets} != total_s: {c}")
        live = cycles[-1]
        if live["events_admitted"] <= 0 or live["batch_age_s"] < 0:
            fail(f"live cycle looks unpopulated: {live}")
        log(f"/cycles valid ({len(cycles)} rows, live batch "
            f"{live['batch']} admitted {live['events_admitted']})")

        st, _, _ = get(addr, "/cycles?n=0")
        if st != 400:
            fail(f"/cycles?n=0 answered {st}, want 400")

        # --- /metrics under the full validator -------------------------
        st, body, headers = get(addr, "/metrics")
        if st != 200:
            fail(f"/metrics answered {st}")
        if not headers.get("Content-Type", "").startswith(
                "text/plain; version=0.0.4"):
            fail(f"/metrics content type {headers.get('Content-Type')!r}")
        text = body.decode()
        for needle in ("acobe_service_slo_alert_latency_p50_s",
                       "acobe_net_http_requests"):
            if needle not in text:
                fail(f"/metrics lacks {needle}")
        prom_path = os.path.join(out, "metrics.prom")
        with open(prom_path, "w") as fh:
            fh.write(text)
        subprocess.run([sys.executable, args.check_prom, prom_path,
                        "--require-prefix=acobe_", "--min-samples=20"],
                       check=True)

        # --- error surface + remote dashboard --------------------------
        st, _, _ = get(addr, "/nope")
        if st != 404:
            fail(f"unknown path answered {st}, want 404")
        st, _, headers = get(addr, "/healthz", method="POST")
        if st != 405 or headers.get("Allow") != "GET":
            fail(f"POST answered {st} Allow={headers.get('Allow')!r}")

        top = subprocess.run([args.top, f"--url=http://{addr}", "--once"],
                             capture_output=True)
        rendered = top.stdout.decode(errors="replace")
        if top.returncode != 0 or "acobe-serve" not in rendered:
            fail(f"acobe_top --url render failed "
                 f"(exit {top.returncode}):\n{rendered}")
        log("acobe_top --url renders the daemon dashboard")

        # --- clean shutdown --------------------------------------------
        daemon.send_signal(signal.SIGTERM)
        if daemon.wait(timeout=30) != 0:
            fail(f"daemon exited {daemon.returncode} on SIGTERM")
        daemon = None
        subprocess.run([sys.executable, args.check_health,
                        os.path.join(out, "health.jsonl"), "--daemon"],
                       check=True)
    finally:
        if daemon is not None and daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    log("PASS: all five endpoints valid, 503->200 readiness transition, "
        "clean SIGTERM")
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
