"""The serve-rw load process: one ``repro serve`` subprocess, two connections.

Phase by phase:

1. spawn the server on the rendered ``-m/-d`` files (``--jobs 1``) and
   poll ``/healthz`` until it answers (``ready``);
2. send each of the 22 request bodies once, one at a time (the warm-up;
   ``pipeline`` ends when the last one answers); untraced, steps 1 and 2
   run on ``READY_SPAWNS`` fresh servers, and only the last goes on;
3. run the open loop of :func:`perfbench.workloads.serve_schedule`: each
   operation is sent when due on whichever of the two keep-alive
   connections is free, and timed from its *scheduled* send time, so a
   stall also delays what was due behind it;
4. send ``UPDATE_BURST`` more updates, one at a time, with no reads;
5. read the server's ``VmHWM`` and ``/metrics``, then SIGTERM it and wait.

Every 200 answer is checked against the digest of the database state it
ran in; a query that overlapped an update may match either adjacent state.
"""

from __future__ import annotations

import http.client
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench.digests import serialized_digest
from perfbench.workloads import (
    serve_bodies,
    serve_schedule,
    state_after,
    update_body,
)

clock = time.monotonic
STARTUP_TIMEOUT_S = 90.0
READY_SPAWNS = 3
#: Updates sent one at a time after the open loop; update_p50_ms is taken
#: from them.  The loop's own few updates wait, at random, for reads that
#: re-solve after the previous one: their median spread 0.31 over ten
#: seeds.
UPDATE_BURST = 15


class _Server:
    """A spawned server process and the lines it prints."""

    def __init__(self, command: list[str], root: Path, env: dict, traced: bool):
        self.spawned = clock()
        self.process = subprocess.Popen(
            command, cwd=root, env={**env, "PYTHONUNBUFFERED": "1"},
            stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_for_line(self, prefix: str) -> str:
        deadline = clock() + STARTUP_TIMEOUT_S
        while True:
            line = self.lines.get(timeout=max(0.1, deadline - clock()))
            if line is None:
                raise RuntimeError(f"server exited before printing {prefix!r}")
            if line.startswith(prefix):
                return line

    def wait_ready(self) -> tuple[str, int, float]:
        """``(host, port, seconds from spawn)`` once ``/healthz`` answers."""
        line = self.wait_for_line("% serving on http://")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        probe = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            while True:
                try:
                    status, _ = _request(probe, "GET", "/healthz")
                except OSError:
                    probe.close()
                    status = None
                if status == 200:
                    return host, int(port), clock() - self.spawned
                if clock() - self.spawned > STARTUP_TIMEOUT_S:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.01)
        finally:
            probe.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdin is not None:
            self.process.stdin.close()
        self._reader.join(timeout=10)
        self.process.stdout.close()


def _request(connection, method: str, path: str, body: bytes | None = None):
    connection.request(
        method, path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, response.read()


def _rows_digest(payload: bytes) -> str:
    return serialized_digest(json.loads(payload)["rows"])


def run_phase(root, work, inputs, expected, seconds, traced, env) -> dict:
    """One server lifetime: start-up, warm-up, ``seconds`` of open loop."""
    bodies = serve_bodies(inputs)
    serve_args = [
        "serve", "-m", str(work / "mapping.txt"), "-d", str(work / "data.txt"),
        "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
    ]
    totals = work / "serve-totals.json"
    if traced:
        command = [sys.executable, str(root / "perfbench" / "launcher.py"),
                   str(totals), *serve_args]
    else:
        command = [sys.executable, "-m", "repro", *serve_args]
    ready, pipeline = [], []
    first_spawn = clock()
    warm = {"attempted": 0, "failed": 0, "mismatched": 0}
    if not traced:
        # Extra spawns only time start-up and warm-up, so ready_s and
        # pipeline_s are medians.
        for _ in range(READY_SPAWNS - 1):
            server = _Server(command, root, env, traced)
            try:
                _start(server, bodies, expected, ready, pipeline, warm)
            finally:
                server.stop()
    server = _Server(command, root, env, traced)
    try:
        host, port = _start(server, bodies, expected, ready, pipeline, warm)
        warmed = clock()
        probe = http.client.HTTPConnection(host, port, timeout=60)
        if traced:
            server.process.stdin.write("mark\n")
            server.process.stdin.flush()
            server.wait_for_line("% marked")
        loop_start = clock()
        ops = _open_loop(host, port, inputs, bodies, seconds)
        done = sum(op["kind"] == "update" for op in ops)
        burst = [_update(probe, inputs, done + k) for k in range(1, UPDATE_BURST + 1)]
        loop_end = clock()
        peak = server.peak_rss_mb()
        _status, metrics_text = _request(probe, "GET", "/metrics")
        probe.close()
    finally:
        server.stop()
    outcome = {
        "traced": traced,
        "ready_s": ready,
        "pipeline_s": pipeline,
        "peak_rss_mb": peak,
        "warmup": warm,
        "ops": _check(ops, bodies, expected),
        "burst": burst,
        "server_metrics": _counters(metrics_text.decode("utf-8")),
        "windows": {"start": (first_spawn, warmed), "load": (loop_start, loop_end)},
    }
    if traced:
        outcome["totals"] = json.loads(totals.read_text())
    return outcome


def _update(probe, inputs, number: int) -> dict:
    """Send the ``number``-th update and wait for its answer."""
    sent = clock()
    status, _payload = _request(probe, "POST", "/update", update_body(inputs, number))
    return {"sent": sent, "received": clock(), "status": status}


def _start(server, bodies, expected, ready, pipeline, warm) -> tuple[str, int]:
    """Wait for ``/healthz``, then send each body once, one at a time,
    checking every answer; append the two times and return the address."""
    host, port, seconds_to_ready = server.wait_ready()
    ready.append(seconds_to_ready)
    probe = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for name, mode, body in bodies:
            warm["attempted"] += 1
            status, payload = _request(probe, "POST", "/query", body)
            if status != 200:
                warm["failed"] += 1
            elif _rows_digest(payload) != expected[f"{mode}/{name}/0"]:
                warm["failed"] += 1
                warm["mismatched"] += 1
    finally:
        probe.close()
    pipeline.append(clock() - server.spawned)
    return host, port


def _open_loop(host, port, inputs, bodies, seconds) -> list[dict]:
    events = serve_schedule(inputs.seed, seconds, len(bodies))
    ops: list[dict] = [{} for _ in events]
    cursor = iter(range(len(events)))
    lock = threading.Lock()
    start = clock() + 0.05

    def sender() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            while True:
                with lock:
                    position = next(cursor, None)
                if position is None:
                    return
                event = events[position]
                due = start + event.at
                pause = due - clock()
                if pause > 0:
                    time.sleep(pause)
                if event.kind == "query":
                    path, body = "/query", bodies[event.index][2]
                else:
                    path, body = "/update", update_body(inputs, event.index)
                sent = clock()
                try:
                    status, payload = _request(connection, "POST", path, body)
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(host, port, timeout=60)
                    status, payload = None, b""
                ops[position] = {
                    "kind": event.kind, "index": event.index,
                    "scheduled": due, "sent": sent, "received": clock(),
                    "status": status, "payload": payload,
                }
        finally:
            connection.close()

    threads = [threading.Thread(target=sender) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops


def _check(ops: list[dict], bodies, expected) -> list[dict]:
    """Mark each operation ok or not; drop payloads."""
    updates = [op for op in ops if op["kind"] == "update"]
    for op in ops:
        payload = op.pop("payload")
        op["ok"] = op["status"] == 200
        if not op["ok"] or op["kind"] == "update":
            continue
        # Updates acknowledged before this query was sent are applied;
        # ones sent after it was answered are not; the rest may be.
        applied = max(
            (u["index"] for u in updates
             if u["status"] == 200 and u["received"] <= op["sent"]),
            default=0,
        )
        maybe = max(
            (u["index"] for u in updates if u["sent"] <= op["received"]),
            default=0,
        )
        name, mode, _body = bodies[op["index"]]
        digest = _rows_digest(payload)
        op["ok"] = any(
            digest == expected[f"{mode}/{name}/{state_after(n)}"]
            for n in range(applied, maybe + 1)
        )
        op["mismatch"] = not op["ok"]
    return ops


def _counters(text: str) -> dict[str, float]:
    counters = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.rpartition(" ")
            try:
                counters[name] = float(value)
            except ValueError:
                continue
    return counters


def run(root: Path, work: Path, inputs, expected, seconds: float, trace: int,
        env: dict) -> list[dict]:
    """The run's server phases: untraced, then (``trace``) traced, each
    given an equal share of the window."""
    phases = [False, True] if trace else [False]
    return [
        run_phase(root, work, inputs, expected, seconds / len(phases), traced, env)
        for traced in phases
    ]


def write_inputs(work: Path, inputs) -> None:
    (work / "mapping.txt").write_text(inputs.mapping + "\n")
    (work / "data.txt").write_text(inputs.data + "\n")

