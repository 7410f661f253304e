"""The ``serve-open`` workload: an open loop against the solver service.

The service runs as its own process, started the way a user starts it
(``python -m repro.cli serve --port 0 --jobs 2 --cache-dir DIR``), and the
benchmark process is its one client over one connection.  Jobs are due
on a seeded schedule whatever the server is doing; each job's latency
runs from its due time, so a stall is charged to every job due while it
lasts.  The schedule is cut into segments; between segments the server
has drained and the benchmark takes a set-up probe and host readings.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import pb_inputs
import pb_probe
from pb_check import anf_satisfied, cnf_satisfied

#: Worker processes of the served pool (= nproc of the calibration host).
WORKERS = 2
#: Offered load in jobs/s.  On a 2-CPU host the server process and the
#: client share the CPUs with the two workers: at 8 jobs/s queueing
#: already doubled the p95 latency, and at 12 jobs/s a backlog grew.  At
#: 4 jobs/s queueing still magnified every slowdown of the host, so the
#: median of six seeds spread 0.19 against 0.03 at 3 jobs/s.
RATE = 3.0
#: Jobs still without a result this long after their segment's last send
#: fail the run.
SAFETY_CAP_S = 60.0
BANNER = re.compile(r"serving on [^:]+:(\d+)")


class ServerProcess:
    """``repro.cli serve`` in its own process group; :attr:`ready_s` is the
    set-up time, from spawn until the server answers a ``ping``."""

    def __init__(self, cache_dir: str):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", str(WORKERS), "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, text=True, env=pb_probe.program_env(),
            start_new_session=True,
        )
        try:
            match = BANNER.search(self.proc.stdout.readline())
            if match is None:
                raise RuntimeError("server printed no banner")
            self.port = int(match.group(1))
            _ping(self.port)
        except BaseException:
            self.close()
            raise
        self.ready_s = time.perf_counter() - t0

    def close(self) -> None:
        """Interrupt the server (it closes its pool), then stop whatever
        is left of its process group."""
        pb_probe.stop_group(self.proc, signal.SIGINT)
        self.proc.stdout.close()


def _ping(port: int) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(b'{"op": "ping"}\n')
        with sock.makefile("rb") as f:
            reply = json.loads(f.readline())
    if reply.get("event") != "pong":
        raise RuntimeError("server answered {!r}".format(reply))


def serve_probe(scratch: str) -> float:
    """Set-up seconds of one fresh server on a fresh cache directory."""
    cache_dir = tempfile.mkdtemp(prefix="probe-", dir=scratch)
    try:
        server = ServerProcess(cache_dir)
        server.close()
        return server.ready_s
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


async def send_on_schedule(dues: List[float], send):
    """Call ``send(i)`` for each job at ``start + dues[i]`` (or as soon
    after as the loop allows); returns ``(start, sent times)``.

    Latency is measured from ``start + dues[i]``, never from the send, so
    a stall anywhere -- in the server or in this sender -- is charged to
    every job due while it lasts.
    """
    start = time.perf_counter()
    sent: List[float] = []
    for i, due in enumerate(dues):
        delay = start + due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent.append(time.perf_counter())
        await send(i)
    return start, sent


def due_latencies(start: float, dues: List[float],
                  finished: List[Optional[float]]) -> List[Optional[float]]:
    """Each job's latency from its due time (None if it never finished)."""
    return [None if f is None else f - (start + d)
            for d, f in zip(dues, finished)]


class Client:
    """One connection; submits jobs and matches results to them."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.index_of_job: Dict[int, int] = {}
        self.results: Dict[int, tuple] = {}  # index -> (event, time)
        self.stats: Dict[str, object] = {}
        self.protocol_errors: List[str] = []
        self.waiting = 0
        self.drained = asyncio.Event()

    async def read_events(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = time.perf_counter()
            event = json.loads(line)
            kind = event.get("event")
            if kind == "accepted":
                self.index_of_job[event["job"]] = event["req"]
            elif kind in ("result", "error") and "job" in event:
                # The server posts "accepted" before it dispatches the job.
                self._record(self.index_of_job[event["job"]], event, now)
            elif kind == "stats":
                self.stats.update(event)
            elif kind == "error":
                self.protocol_errors.append(str(event.get("error")))

    def _record(self, i: int, event: dict, when: float) -> None:
        self.results[i] = (event, when)
        self.waiting -= 1
        if self.waiting == 0:
            self.drained.set()

    async def submit(self, i: int, job: pb_inputs.Job, text: str) -> None:
        fmt = "anf" if job.instance.fmt == "anf" else "dimacs"
        message = {"op": "submit", "req": i, "fmt": fmt, "text": text}
        self.writer.write((json.dumps(message) + "\n").encode())
        await self.writer.drain()

    async def request_stats(self) -> None:
        self.writer.write(b'{"op": "stats"}\n')
        await self.writer.drain()
        for _ in range(200):
            if self.stats:
                return
            await asyncio.sleep(0.01)


def judge_served(job: pb_inputs.Job, event: dict) -> Optional[str]:
    """None if the served verdict is right, else why it is wrong."""
    inst = job.instance
    verdict = event.get("verdict")
    if event.get("event") == "error" or verdict not in ("sat", "unsat", "unknown"):
        return "{}: {} {}".format(inst.name, verdict, event.get("error"))
    if verdict == "unsat":
        return "{}: UNSAT on a satisfiable instance".format(inst.name)
    if verdict == "sat":
        model = (event.get("model") or [])[: inst.n_vars]
        ok = (anf_satisfied if inst.fmt == "anf" else cnf_satisfied)(
            inst.check, model)
        if not ok:
            return "{}: model fails the check".format(inst.name)
    return None


async def run_segments(port: int, jobs: List[pb_inputs.Job],
                       between) -> dict:
    """Offer every segment of ``jobs`` in turn, each after the previous
    one has drained; ``between(segment)`` runs before each segment, and
    once more after the last.

    Returns each job's result event, latency from its due time (None if
    it never finished) and send lag, the summed segment run time and the
    server's final ``stats``.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    client = Client(reader, writer)
    reader_task = asyncio.ensure_future(client.read_events())
    texts = [job.instance.text() for job in jobs]
    latency: List[Optional[float]] = [None] * len(jobs)
    lag: List[float] = [0.0] * len(jobs)
    run_s = 0.0
    try:
        for seg in sorted({job.segment for job in jobs}):
            between(seg)
            members = [i for i, job in enumerate(jobs) if job.segment == seg]
            dues = [jobs[i].due for i in members]
            client.waiting = len(members)
            client.drained.clear()

            async def send(k: int) -> None:
                i = members[k]
                await client.submit(i, jobs[i], texts[i])

            start, sent = await send_on_schedule(dues, send)
            try:
                await asyncio.wait_for(client.drained.wait(), SAFETY_CAP_S)
            except asyncio.TimeoutError:
                pass
            finished = [client.results[i][1] if i in client.results else None
                        for i in members]
            for k, (i, late) in enumerate(zip(
                    members, due_latencies(start, dues, finished))):
                latency[i] = late
                lag[i] = sent[k] - (start + dues[k])
            run_s += max((f for f in finished if f is not None),
                         default=time.perf_counter()) - start
        between(seg + 1)
        await client.request_stats()
    finally:
        reader_task.cancel()
        try:
            await reader_task
        except asyncio.CancelledError:
            pass
        writer.close()
        await writer.wait_closed()
    return {"events": {i: event for i, (event, _) in client.results.items()},
            "latency": latency, "lag": lag, "run_s": run_s,
            "stats": client.stats, "protocol_errors": client.protocol_errors}
