#!/usr/bin/env python3
"""Smoke test for the scenario service front-ends (DESIGN.md §12).

Drives the two serve entry points end to end against the shipped
what-if fixtures and a batch `whatif --scenarios` run:

  1. batch    — `faure whatif --scenarios FILE`: every scenario frame
                must report exit 0 and carry a non-empty body.
  2. stdin    — `faure serve` line protocol over a pipe: READY
                handshake, PING/PONG, EVAL + GO round-trip with a
                byte-counted RESULT payload, graceful drain on QUIT.
  3. long     — a 2 MiB request line over stdin: the server answers
                `ERR line too long`, skips the line, and the same
                connection still answers PING with PONG.
  4. batch-full — 65 EVALs before one GO: the server queues 64
                (kMaxServeBatch), answers the 65th with `ERR batch
                full`, still answers PING, and on GO returns all 64
                queued requests in order.
  5. socket   — `faure serve --socket PATH`: same protocol over an
                AF_UNIX socket, then SHUTDOWN stops the server with
                exit 0 and unlinks the socket path.

Shared by the `serve` CI job and the serve stage of tools/ci.sh so the
workflow and the local script cannot drift. Exits non-zero with a
one-line reason on the first failed check.
"""

import argparse
import os
import re
import socket
import subprocess
import sys
import tempfile
import time

FRAME = re.compile(rb"^=== scenario (\S+) exit (\d+) ===$")
RESULT = re.compile(rb"RESULT (\S+) (\d+) (\d+)(?: [^\n]*)?\n")


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_batch(faure, db, prog, scenarios):
    proc = subprocess.run(
        [faure, "whatif", db, prog, "--scenarios", scenarios],
        capture_output=True, timeout=600,
    )
    if proc.returncode != 0:
        fail(f"batch whatif exited {proc.returncode}: {proc.stderr[:200]!r}")
    frames = re.findall(
        rb"^=== scenario (\S+): exit (\d+) ===$", proc.stdout, re.M
    )
    if not frames:
        fail("batch whatif printed no scenario frames")
    for sid, code in frames:
        if code != b"0":
            fail(f"batch scenario {sid.decode()} reported exit {code.decode()}")
    print(f"serve_smoke: batch ok ({len(frames)} scenarios, all exit 0)")


def parse_result(buf, where):
    m = RESULT.match(buf)
    if not m:
        fail(f"{where}: expected a RESULT frame, got {buf[:80]!r}")
    sid, code, nbytes = m.group(1), int(m.group(2)), int(m.group(3))
    body = buf[m.end():m.end() + nbytes]
    if len(body) != nbytes:
        fail(f"{where}: RESULT payload truncated ({len(body)}/{nbytes})")
    return sid, code, body, buf[m.end() + nbytes:]


def check_stdin(faure, db, prog):
    script = "+Acl(web, 8443);-Acl(legacy, 23)"
    conversation = f"PING\nEVAL q1 {script}\nGO\nQUIT\n"
    proc = subprocess.run(
        [faure, "serve", db, prog],
        input=conversation.encode(), capture_output=True, timeout=600,
    )
    if proc.returncode != 0:
        fail(f"stdin serve exited {proc.returncode}: {proc.stderr[:200]!r}")
    out = proc.stdout
    for prefix in (b"READY\n", b"PONG\n"):
        if not out.startswith(prefix):
            fail(f"stdin serve: expected {prefix!r}, got {out[:40]!r}")
        out = out[len(prefix):]
    sid, code, body, out = parse_result(out, "stdin serve")
    if sid != b"q1" or code != 0 or not body:
        fail(f"stdin serve: bad RESULT (id={sid!r} exit={code} "
             f"{len(body)} bytes)")
    print(f"serve_smoke: stdin ok (RESULT q1 exit 0, {len(body)} bytes)")


def check_long_line(faure, db, prog):
    conversation = b"EVAL big " + b"a" * (2 << 20) + b"\nPING\nQUIT\n"
    proc = subprocess.run(
        [faure, "serve", db, prog],
        input=conversation, capture_output=True, timeout=600,
    )
    if proc.returncode != 0:
        fail(f"long-line serve exited {proc.returncode}: "
             f"{proc.stderr[:200]!r}")
    want = b"READY\nERR line too long\nPONG\n"
    if proc.stdout != want:
        fail(f"long-line serve: expected {want!r}, got {proc.stdout[:80]!r}")
    print("serve_smoke: long line ok (ERR line too long, then PONG)")


def check_batch_full(faure, db, prog):
    bound = 64  # kMaxServeBatch in tools/faure_cli.cpp
    evals = "".join(f"EVAL b{i} +Acl(web, 8443)\n" for i in range(bound + 1))
    proc = subprocess.run(
        [faure, "serve", db, prog],
        input=(evals + "PING\nGO\nQUIT\n").encode(), capture_output=True,
        timeout=600,
    )
    if proc.returncode != 0:
        fail(f"batch-full serve exited {proc.returncode}: "
             f"{proc.stderr[:200]!r}")
    want = b"READY\nERR batch full\nPONG\n"
    if not proc.stdout.startswith(want):
        fail(f"batch-full serve: expected {want!r}, "
             f"got {proc.stdout[:80]!r}")
    out = proc.stdout[len(want):]
    for i in range(bound):
        sid, code, body, out = parse_result(out, "batch-full serve")
        if sid != f"b{i}".encode() or code != 0 or not body:
            fail(f"batch-full serve: bad RESULT {i} (id={sid!r} "
                 f"exit={code} {len(body)} bytes)")
    if out:
        fail(f"batch-full serve: {len(out)} bytes after the last RESULT")
    print(f"serve_smoke: batch-full ok (ERR batch full, then {bound} "
          "RESULTs)")


def check_socket(faure, db, prog):
    path = os.path.join(tempfile.mkdtemp(prefix="faure_serve_"), "sock")
    server = subprocess.Popen(
        [faure, "serve", db, prog, "--socket", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        ready = server.stdout.readline()
        if not ready.startswith(b"READY "):
            fail(f"socket serve: bad handshake {ready!r}")
        deadline = time.monotonic() + 30
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        while True:
            try:
                client.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    fail("socket serve: socket never became connectable")
                time.sleep(0.05)
        client.sendall(b"PING\nEVAL s1 -F(f0, 2, 3)\nGO\nSHUTDOWN\n")
        buf = b""
        while True:
            chunk = client.recv(65536)
            if not chunk:
                break
            buf += chunk
        client.close()
        if not buf.startswith(b"PONG\n"):
            fail(f"socket serve: expected PONG, got {buf[:40]!r}")
        sid, code, body, _ = parse_result(buf[len(b"PONG\n"):], "socket serve")
        if sid != b"s1" or code != 0 or not body:
            fail(f"socket serve: bad RESULT (id={sid!r} exit={code} "
                 f"{len(body)} bytes)")
        if server.wait(timeout=30) != 0:
            fail(f"socket serve: server exited {server.returncode} "
                 f"after SHUTDOWN: {server.stderr.read()[:200]!r}")
        if os.path.exists(path):
            fail("socket serve: socket path not unlinked on shutdown")
        print(f"serve_smoke: socket ok (RESULT s1 exit 0, {len(body)} bytes, "
              "clean shutdown)")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--faure", default="build/tools/faure")
    ap.add_argument("db", nargs="?", default="data/whatif_net.fdb")
    ap.add_argument("prog", nargs="?", default="data/whatif_reach.fl")
    ap.add_argument("--scenarios", default="data/whatif_scenarios.fl")
    opts = ap.parse_args()
    check_batch(opts.faure, opts.db, opts.prog, opts.scenarios)
    check_stdin(opts.faure, opts.db, opts.prog)
    check_long_line(opts.faure, opts.db, opts.prog)
    check_batch_full(opts.faure, opts.db, opts.prog)
    check_socket(opts.faure, opts.db, opts.prog)
    print("serve_smoke: all front-ends ok")


if __name__ == "__main__":
    main()
