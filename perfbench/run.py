#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload grid_long --seed 1 --seconds 10 --trace 0

It builds the release `mrts-cli` and the `perfbench` harness into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and relays the
harness output. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; its metric names are
checked against BENCHMARK.json before it is printed. Any build failure,
harness failure or malformed result exits non-zero without printing a result.
See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, env, timeout):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out, err


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "Cargo.toml", "-p", "mrts-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = max(1, int(deadline - time.monotonic()))
        code, out, err = run(cmd, env, left)
        if code != 0:
            sys.stderr.write(out + err)
            fail(f"build failed: {' '.join(cmd)}")


def load_spec():
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def check_result(line, trace, spec):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the harness printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics {got} do not match BENCHMARK.json {wanted}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description="mRTS host-time benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="timed-phase length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)

    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work", args.workload)
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work,
        "--cli", os.path.join(release, "mrts-cli"),
    ]
    code, out, err = run(cmd, env, int(args.seconds) + RUN_SLACK_S)
    sys.stderr.write(err)
    if code != 0:
        sys.stderr.write(out)
        fail(f"the harness exited with {code}")
    lines = out.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == "1", spec)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
