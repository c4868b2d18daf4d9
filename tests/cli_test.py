#!/usr/bin/env python3
"""The five command-line tools agree on usage errors, --help and --version.

For acobe_detect, acobe_serve, acobe_gen, acobe_top and acobe_explain:

  - each malformed flag value and an unknown flag exit 2 with exactly
    one "<tool>: ..." line on stderr (the usage text follows it there);
  - --help exits 0 with the usage on stdout;
  - --version exits 0 and prints the shared build-identity line,
    "<tool> VERSION (build: B, simd: S, telemetry: on|off[, nn-backend: N])",
    where S names the NN kernels' ISA ("avx2" or "scalar") and is the
    same for all five.

A run that fails after it started still lands its observability files:
a strict acobe_detect on a corrupted dataset (exit 3), acobe_serve on a
missing --watch directory (exit 1) and acobe_gen on an --out it cannot
create (exit 1) each write --metrics-out and end their --health-out
file with a final heartbeat at stage "failed".

Usage:
    cli_test.py --detect DETECT --serve SERVE --gen GEN --top TOP \
        --explain EXPLAIN

Exit status 0 on pass, 1 on any mismatch.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

VERSION_LINE = re.compile(
    r"^(?P<tool>\S+) \S+ \(build: [^,()]+, simd: (?P<simd>avx2|scalar), "
    r"telemetry: (on|off)(, nn-backend: [^,()]+)?\)\n$")


def run(argv):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    return (proc.returncode, proc.stdout.decode(errors="replace"),
            proc.stderr.decode(errors="replace"))


def check_usage_error(binary, tool, args, failures):
    code, _, err = run([binary] + args)
    tagged = [line for line in err.splitlines()
              if line.startswith(tool + ":")]
    if code != 2 or len(tagged) != 1:
        failures.append(f"{tool} {' '.join(args)}: exit {code}, "
                        f"{len(tagged)} '{tool}:' line(s), stderr:\n{err}")


def check_failed_run(binary, tool, args, want_code, tmp, failures):
    metrics = os.path.join(tmp, "metrics.json")
    health = os.path.join(tmp, "health.jsonl")
    for path in (metrics, health):
        if os.path.exists(path):
            os.remove(path)
    code, _, err = run([binary] + args + [f"--metrics-out={metrics}",
                                          f"--health-out={health}"])
    label = f"{tool} {' '.join(args)}"
    if code != want_code:
        failures.append(f"{label}: exit {code}, want {want_code}, "
                        f"stderr:\n{err}")
    if not os.path.exists(metrics):
        failures.append(f"{label}: no --metrics-out file")
    try:
        with open(health) as fh:
            last = json.loads(fh.read().splitlines()[-1])
    except (OSError, IndexError, ValueError) as e:
        failures.append(f"{label}: unreadable --health-out file: {e}")
        return
    if not last.get("final") or last["stage"]["name"] != "failed":
        failures.append(f"{label}: last heartbeat {last!r}, want a final "
                        "beat at stage 'failed'")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("detect", "serve", "gen", "top", "explain"):
        ap.add_argument(f"--{name}", required=True)
    args = ap.parse_args()

    failures = []
    with tempfile.TemporaryDirectory(prefix="acobe-cli-") as tmp:
        d = os.path.join(tmp, "d")
        serve = [f"--watch={d}", f"--out={d}", f"--roster={d}/ldap.csv"]
        tools = {
            "acobe-detect": (args.detect, [
                [f"--in={d}", "--train-end=2010-02-15", "--epochs=abc"],
                [f"--in={d}", "--train-end=2010-02-30"],
            ]),
            "acobe-serve": (args.serve, [
                serve + ["--epochs=abc"],
                serve + ["--shards=0"],
                serve + ["--error-budget=2"],
                serve + ["--seed=-1"],
            ]),
            "acobe-gen": (args.gen, [
                [f"--out={d}", "--users=abc"],
                [f"--out={d}", "--scenario1=0:2010-01-10"],
            ]),
            "acobe-top": (args.top, [["--interval-ms=abc"]]),
            "acobe-explain": (args.explain, [["--in="]]),
        }
        simds = set()
        for tool, (binary, malformed) in tools.items():
            for bad in malformed:
                check_usage_error(binary, tool, bad, failures)
            check_usage_error(binary, tool, ["--bogus"], failures)

            code, out, err = run([binary, "--help"])
            if code != 0 or not out.strip():
                failures.append(f"{tool} --help: exit {code}, "
                                f"stdout {out!r}, stderr {err!r}")

            code, out, _ = run([binary, "--version"])
            m = VERSION_LINE.match(out)
            if code != 0 or not m or m.group("tool") != tool:
                failures.append(f"{tool} --version: exit {code}, {out!r}")
            else:
                simds.add(m.group("simd"))
        if len(simds) > 1:
            failures.append(f"the tools name different ISAs: {sorted(simds)}")

        if os.path.exists(d):
            failures.append(f"a usage error left {d} behind")

        data = os.path.join(tmp, "corrupt")
        code, _, err = run([args.gen, f"--out={data}", "--users=6",
                            "--departments=2", "--start=2010-01-04",
                            "--end=2010-02-28", "--corrupt-rate=0.01"])
        if code != 0:
            failures.append(f"acobe-gen --corrupt-rate: exit {code}: {err}")
        check_failed_run(args.detect, "acobe-detect",
                         [f"--in={data}", "--train-end=2010-02-01",
                          "--epochs=1"], 3, tmp, failures)
        missing = os.path.join(tmp, "missing")
        check_failed_run(args.serve, "acobe-serve",
                         [f"--watch={missing}",
                          f"--out={os.path.join(tmp, 'serve-out')}",
                          f"--roster={missing}/ldap.csv"], 1, tmp, failures)
        blocker = os.path.join(tmp, "blocker")
        open(blocker, "w").close()
        check_failed_run(args.gen, "acobe-gen",
                         [f"--out={os.path.join(blocker, 'data')}"], 1, tmp,
                         failures)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
