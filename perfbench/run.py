#!/usr/bin/env python3
"""Runs one seeded pfact benchmark workload and prints its result.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run from the root of a pfact checkout. The script builds perfbench/ (which
compiles the library from src/) into .bench_build/ (or $CARGO_TARGET_DIR),
then runs the pfbench binary:

  * in its own process group, with this script as the child subreaper, so
    any process the run leaves behind is SIGKILLed, reaped and counted as
    `orphans` (which must be 0);
  * with its working directory in a private temporary directory under the
    build directory, where every Unix socket of the run lives; the
    directory is removed afterwards.

The last stdout line is one JSON object with exactly the keys correct,
attempted, failed and metrics. The line before it holds the details: host
descriptor, per-outcome counts, fail_share, p99 with its sample count, the
traced ladder and orphans. Exit status is nonzero if any answer was wrong,
a process was orphaned, or the run could not complete.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("serve-hot", "serve-fresh", "batch-exact")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir, env):
    source = os.path.join(root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", source, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "pfbench")
    return binary if os.path.exists(binary) else None


def reap_group(pgid):
    """SIGKILLs whatever is left of the run's process group and reaps every
    process re-parented to this subreaper. Returns how many there were."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    orphans = 0
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break  # no children left
        if pid == 0:
            time.sleep(0.01)
            continue
        orphans += 1
    return orphans


def run(binary, args, work_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sock-dir", "."]
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    # stdout goes to a file, not a pipe: a leftover process holding a pipe
    # open would keep this script waiting for an EOF that never comes.
    out_path = os.path.join(work_dir, "stdout.json")
    with open(out_path, "w") as out_file:
        proc = subprocess.Popen(cmd, cwd=work_dir, stdout=out_file,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"run exceeded {RUN_TIMEOUT_S}s; killing its process group")
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = -1
    orphans = reap_group(proc.pid)
    with open(out_path) as out_file:
        return rc, out_file.read(), orphans


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # The compiler's temporary files stay inside the checkout too.
    tmp_base = os.path.join(root, build_base, "tmp")
    os.makedirs(tmp_base, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_base)
    binary = build(root, os.path.join(root, build_base, "perfbench"), env)
    if binary is None:
        return 1

    work_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_base)
    try:
        rc, out, orphans = run(binary, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    if rc != 0 or not lines:
        log(f"pfbench exited with status {rc}; orphans={orphans}")
        return 1
    result = json.loads(lines[-1])
    details = result.get("details", {})
    details["orphans"] = orphans
    if orphans:
        log(f"{orphans} process(es) outlived the run and were killed")
    correct = bool(result["correct"]) and orphans == 0
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
