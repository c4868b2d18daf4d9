#!/usr/bin/env python3
"""acobe_gen writes the same bytes for the same flags.

Runs acobe_gen three times and compares the CRC-32 of each of its six
output files with a recorded digest:

  - small:     a small two-department org with no scenarios;
  - corrupt:   the same org with --corrupt-rate=0.01 --corrupt-seed=7;
  - scenarios: a five-department org with both insider scenarios.

The digests were recorded from the generator that simulated the whole
org into memory, sorted every stream and rendered each CSV at once; the
day-by-day generator must reproduce them exactly. A digest changes only
when the simulator's output is meant to change, and then every dataset
built from acobe_gen changes with it.

Usage:
    gen_identity_test.py --gen GEN

Exit status 0 on pass, 1 on any mismatch.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import zlib

SMALL = ["--users=8", "--departments=2", "--start=2010-01-04",
         "--end=2010-02-28", "--seed=5"]

RUNS = {
    "small": (SMALL, {
        "device.csv": 0xdbed85da, "file.csv": 0xf00c9f2b,
        "http.csv": 0x30ce1686, "logon.csv": 0x6d0843af,
        "ldap.csv": 0x7dfda8a5, "truth.csv": 0x51c1f382,
    }),
    "corrupt": (SMALL + ["--corrupt-rate=0.01", "--corrupt-seed=7"], {
        "device.csv": 0x0a423dd4, "file.csv": 0xee2f9090,
        "http.csv": 0x61951620, "logon.csv": 0x1fac84c4,
        "ldap.csv": 0x7dfda8a5, "truth.csv": 0x51c1f382,
    }),
    "scenarios": (["--users=10", "--departments=5", "--start=2010-01-04",
                   "--end=2010-04-30", "--seed=11", "--rate=0.3",
                   "--scenario1=1:2010-03-01:10",
                   "--scenario2=3:2010-03-15:8"], {
        "device.csv": 0x179ec837, "file.csv": 0x69e96058,
        "http.csv": 0x4c679c2b, "logon.csv": 0xb34287b9,
        "ldap.csv": 0xf7d8eaff, "truth.csv": 0xb2cfacd0,
    }),
}


def crc32(path):
    crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gen", required=True)
    args = ap.parse_args()

    failures = []
    with tempfile.TemporaryDirectory(prefix="acobe-gen-id-") as tmp:
        for name, (flags, digests) in RUNS.items():
            out = os.path.join(tmp, name)  # acobe_gen creates it
            proc = subprocess.run([args.gen, f"--out={out}"] + flags,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120)
            if proc.returncode != 0:
                failures.append(f"{name}: exit {proc.returncode}: "
                                f"{proc.stderr.decode(errors='replace')}")
                continue
            for file, want in digests.items():
                got = crc32(os.path.join(out, file))
                if got != want:
                    failures.append(f"{name}/{file}: crc32 {got:08x}, "
                                    f"recorded {want:08x}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
