#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 tlsbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the tlsbench binary from source into $CARGO_TARGET_DIR/tlsbench
when that variable is set, else .bench_build/tlsbench; later runs only
rebuild what changed. Build output goes to stderr, so the last stdout line
is the binary's JSON result. `--workload all` runs every workload, one process each, and exits
nonzero if any of them does.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("daily-campaign", "fleet-churn", "resume-lifetime")
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")
    return args


def build(build_dir):
    """Configure and build the binary (both no-ops when up to date); build
    logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir],
             ["cmake", "--build", build_dir, "--target", "tlsbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("tlsbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "tlsbench")


def main():
    args = parse_args()
    refused = sorted(k for k in os.environ if k.startswith("TLSHARM_"))
    if refused:
        sys.exit("tlsbench: refusing to run with %s set; unset the library's "
                 "TLSHARM_* knobs first" % ", ".join(refused))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "tlsbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in workloads:
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode
        if code != 0:
            print("tlsbench: workload %s exited with %d" % (name, code),
                  file=sys.stderr)
            status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
