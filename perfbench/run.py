#!/usr/bin/env python3
"""Repository benchmark for gpuhms.

Builds the library, the gpuhms_serve daemon and the perfbench program from
source into .bench_build/, then runs one workload:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is non-zero when an output
check failed or the build did not succeed.

    python3 perfbench/run.py --self-check

runs every workload briefly, plain and traced, on the default and the
held-out seed, and checks that in each mode the two seeds send different
requests and that both pass every output check. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")  # relative: short socket paths
WORKLOADS = ("serve_hot", "serve_cold", "search")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231  # reserved for confirming claimed gains
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no gpuhms sources next to the benchmark (expected src/)")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: a digest of the sources the benchmark builds.
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, rev):
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--serve-bin", os.path.join(BUILD, "gpuhms_serve"),
           "--run-dir", RUN_DIR, "--git-rev", rev]
    # Own session, so a timeout stops perfbench and the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 124, None, {}, ""
    sys.stderr.write(err)
    lines = out.splitlines()
    result, stamp = None, {}
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, stamp, out


def self_check(rev):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            digests = []
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                code, result, stamp, _ = run_workload(w, seed, 3, trace, rev)
                passed = code == 0 and result is not None and result.get("correct")
                log("%s --trace %d seed %d: %s, stream %s" % (
                    w, trace, seed, "pass" if passed else "FAIL",
                    stamp.get("stream_digest")))
                ok = ok and bool(passed)
                digests.append(stamp.get("stream_digest"))
            if digests[0] is None or digests[0] == digests[1]:
                log("%s --trace %d: the two seeds send the same requests" % (w, trace))
                ok = False
    print(json.dumps({"self_check": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    t0 = time.monotonic()
    if not build():
        return 1
    log("build ready in %.1f s" % (time.monotonic() - t0))
    rev = source_rev()
    if args.self_check:
        return self_check(rev)
    code, result, _, out = run_workload(args.workload, args.seed, args.seconds,
                                        args.trace, rev)
    sys.stdout.write(out)
    sys.stdout.flush()
    if result is None:
        log("perfbench printed no result")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
