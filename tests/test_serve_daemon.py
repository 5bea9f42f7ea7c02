#!/usr/bin/env python3
"""End-to-end tests of the gpuhms_serve daemon binary (ctest -L serve).

Six cases, each driving a real daemon process:
  1. stdio over a pipe answers the frozen transcript
     (tests/golden/serve_transcript.jsonl) byte for byte and exits 0;
  2. stdin from a regular file, and from /dev/null, exits 0 with the right
     responses -- inputs epoll cannot watch, so stdio runs a poll loop;
  3. SIGTERM with stdin held open emits the structured shutdown line with
     "signal":15 and exits 0;
  4. a closed stdout fails the response write: exit 1 with the errno on
     stderr, not a silent death by SIGPIPE;
  5. with --socket, a round trip works, SIGTERM exits 0 and the socket path
     is unlinked;
  6. a flag the daemon does not know (--legacy-threaded, the deleted
     thread-per-connection backend's) is rejected with exit 1.

Usage: test_serve_daemon.py GPUHMS_SERVE_BINARY GOLDEN_DIR
Exit 0 when every case passes, 1 with a per-case report otherwise.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

TIMEOUT_S = 60
HEALTH = b'{"id":1,"op":"health"}\n'


class CaseFailure(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CaseFailure(what)


def finish(proc):
    """Waits for proc without closing its stdin (a held-open stdin is part
    of what the SIGTERM case tests) and returns (returncode, stdout,
    stderr) bytes; stdout is b"" when the test already closed it."""
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = b"" if proc.stdout.closed else proc.stdout.read()
        err = proc.stderr.read()
        rc = proc.wait()
    finally:
        timer.cancel()
    if rc == -signal.SIGKILL:
        raise CaseFailure(f"daemon did not exit within {TIMEOUT_S} s")
    return rc, out, err


def stdio_pipe(daemon, requests, golden):
    run = subprocess.run([daemon], input=requests, capture_output=True,
                         timeout=TIMEOUT_S)
    expect(run.returncode == 0, f"exit {run.returncode}, stderr "
           f"{run.stderr.decode(errors='replace')!r}")
    expect(run.stdout == golden, "stdout differs from serve_transcript.jsonl:"
           f"\n{run.stdout.decode(errors='replace')}")


def stdio_file_and_dev_null(daemon, requests_path, golden):
    with open(requests_path, "rb") as stdin:
        run = subprocess.run([daemon], stdin=stdin, capture_output=True,
                             timeout=TIMEOUT_S)
    expect(run.returncode == 0, f"regular file: exit {run.returncode}")
    expect(run.stdout == golden, "regular file: stdout differs from "
           "serve_transcript.jsonl")
    with open(os.devnull, "rb") as stdin:
        run = subprocess.run([daemon], stdin=stdin, capture_output=True,
                             timeout=TIMEOUT_S)
    expect(run.returncode == 0, f"/dev/null: exit {run.returncode}")
    expect(run.stdout == b"", f"/dev/null: unexpected stdout {run.stdout!r}")


def stdio_sigterm(daemon):
    proc = subprocess.Popen([daemon], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        # One answered request proves the signal handlers are installed.
        proc.stdin.write(HEALTH)
        proc.stdin.flush()
        first = proc.stdout.readline()
        expect(json.loads(first).get("ok") is True, f"health answer {first!r}")
        proc.send_signal(signal.SIGTERM)  # stdin stays open
        rc, out, err = finish(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
    expect(rc == 0, f"exit {rc} after SIGTERM")
    lines = out.splitlines()
    expect(len(lines) == 1, f"expected one shutdown line, got {out!r}")
    bye = json.loads(lines[0])
    expect(bye.get("op") == "shutdown" and bye.get("ok") is True and
           bye.get("signal") == 15 and bye.get("draining") is True,
           f"shutdown line {lines[0]!r}")
    expect(b"drained after signal 15" in err, f"stderr {err!r}")


def stdio_closed_stdout(daemon):
    proc = subprocess.Popen([daemon], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the first response
    proc.stdin.write(HEALTH)
    proc.stdin.close()
    rc, _out, err = finish(proc)
    expect(rc == 1, f"exit {rc} (negative: killed by that signal)")
    expect(b"writing responses" in err and b"Broken pipe" in err,
           f"stderr {err!r}")


def connect(path, proc):
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        expect(proc.poll() is None, f"daemon exited early ({proc.returncode})")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            time.sleep(0.05)
    raise CaseFailure(f"could not connect to {path}")


def socket_round_trip(daemon):
    with tempfile.TemporaryDirectory(prefix="gpuhms_daemon_") as tmp:
        path = os.path.join(tmp, "serve.sock")
        proc = subprocess.Popen([daemon, "--socket=" + path],
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            with connect(path, proc) as sock:
                sock.settimeout(TIMEOUT_S)
                sock.sendall(HEALTH)
                answer = b""
                while not answer.endswith(b"\n"):
                    chunk = sock.recv(4096)
                    expect(chunk, "connection closed before the answer")
                    answer += chunk
            reply = json.loads(answer)
            expect(reply.get("id") == 1 and reply.get("ok") is True,
                   f"health answer {answer!r}")
            proc.send_signal(signal.SIGTERM)
            rc, _out, err = finish(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        expect(rc == 0, f"exit {rc} after SIGTERM, stderr {err!r}")
        expect(not os.path.exists(path), "socket path left behind")


def rejects_unknown_flag(daemon):
    run = subprocess.run([daemon, "--legacy-threaded"],
                         stdin=subprocess.DEVNULL, capture_output=True,
                         timeout=TIMEOUT_S)
    expect(run.returncode == 1, f"exit {run.returncode}")
    expect(b"unexpected argument '--legacy-threaded'" in run.stderr,
           f"stderr {run.stderr!r}")


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    daemon, golden_dir = sys.argv[1], sys.argv[2]
    requests_path = os.path.join(golden_dir, "serve_transcript_requests.jsonl")
    with open(requests_path, "rb") as f:
        requests = f.read()
    with open(os.path.join(golden_dir, "serve_transcript.jsonl"), "rb") as f:
        golden = f.read()

    cases = [
        ("stdio over a pipe reproduces the transcript",
         lambda: stdio_pipe(daemon, requests, golden)),
        ("stdin from a regular file and from /dev/null",
         lambda: stdio_file_and_dev_null(daemon, requests_path, golden)),
        ("SIGTERM on stdio emits the shutdown line",
         lambda: stdio_sigterm(daemon)),
        ("closed stdout exits 1 with the errno",
         lambda: stdio_closed_stdout(daemon)),
        ("--socket round trip, SIGTERM, path unlinked",
         lambda: socket_round_trip(daemon)),
        ("--legacy-threaded is rejected",
         lambda: rejects_unknown_flag(daemon)),
    ]
    failed = 0
    for name, case in cases:
        try:
            case()
            print(f"PASS  {name}")
        except (CaseFailure, OSError, ValueError,
                subprocess.TimeoutExpired) as e:
            failed += 1
            print(f"FAIL  {name}: {e}")
    print(f"{len(cases) - failed}/{len(cases)} daemon cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
