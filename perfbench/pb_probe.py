"""Readings the benchmark takes between instances, and process hygiene.

* The host reading: a fixed pure-Python loop, timed.  The machine's
  speed drifts by itself (other tenants slow every instruction), in
  bursts of a tenth of a second and phases of minutes.  Each latency and
  set-up probe is paired with the reading taken around it and reported at
  the reference speed (:func:`adjusted`); each run also prints the median
  reading.
* The set-up probe: a fresh process that imports the program and gets
  it ready for a first input, timed from spawn to its ``ready`` line.
  Run as a script, this module is that process::

      python3 perfbench/pb_probe.py --workload simon-cdcl

* :func:`stop_group`: every process the benchmark starts leads its own
  process group, and is stopped together with whatever it started.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: The host loop is unit propagation over a fixed random 3-SAT formula
#: of HOST_VARS variables and HOST_CLAUSES clauses: HOST_ROUNDS sweeps,
#: each deciding HOST_DECISIONS variables and propagating to a fixed
#: point, about 5 ms on a 2-CPU x86-64 host.  The program's time follows
#: it one for one as the host drifts (PROVENANCE.md), closer than it
#: follows a plain arithmetic loop.
HOST_VARS, HOST_CLAUSES, HOST_DECISIONS, HOST_ROUNDS = 300, 1260, 40, 60
#: The host loop's typical reading (ms) on the 2-CPU x86-64 calibration
#: host.  Adjusted times are seconds at the speed it stands for.
HOST_REF_MS = 5.0
#: Seconds a stopped process group gets before it is killed.
STOP_GRACE_S = 20.0


def _host_formula():
    rng = random.Random(7)
    clauses = [[2 * v + rng.getrandbits(1) for v in rng.sample(range(HOST_VARS), 3)]
               for _ in range(HOST_CLAUSES)]
    watches = [[] for _ in range(2 * HOST_VARS)]
    for index, clause in enumerate(clauses):
        watches[clause[0] ^ 1].append(index)
        watches[clause[1] ^ 1].append(index)
    order = list(range(HOST_VARS))
    rng.shuffle(order)
    return clauses, watches, order[:HOST_DECISIONS]


_CLAUSES, _WATCHES, _DECISIONS = _host_formula()


def host_loop_ms() -> float:
    """Milliseconds the fixed host loop takes right now."""
    t0 = time.perf_counter()
    for sweep in range(HOST_ROUNDS):
        value = [-1] * (2 * HOST_VARS)
        for var in _DECISIONS:
            lit = 2 * var + (sweep & 1)
            if value[lit] != -1:
                continue
            value[lit], value[lit ^ 1] = 1, 0
            queue = [lit]
            while queue:
                for index in _WATCHES[queue.pop()]:
                    free = None
                    for q in _CLAUSES[index]:
                        if value[q] == 1:
                            break
                        if value[q] == -1:
                            if free is not None:
                                break
                            free = q
                    else:
                        if free is not None:
                            value[free], value[free ^ 1] = 1, 0
                            queue.append(free)
    return (time.perf_counter() - t0) * 1000.0


def adjusted(seconds: float, host_ms: float) -> float:
    """``seconds`` measured while the host loop read ``host_ms``, scaled
    to the speed at which it reads ``HOST_REF_MS``.

    The program slows with the host about as much as the loop does
    (PROVENANCE.md), so the scaled time keeps what the program did and
    drops most of what the other tenants did.
    """
    return seconds * HOST_REF_MS / host_ms


def program_env() -> dict:
    """The environment for a child that imports the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def group_members(pgid: int) -> list:
    """Live (non-zombie) processes in process group ``pgid`` (Linux)."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(name)) as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(name))
    return members


def stop_group(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    """Send ``sig`` to ``proc``, wait for it, then make sure nothing it
    started outlives it: the rest of its process group is killed and
    waited for.  ``proc`` must have been started with
    ``start_new_session=True``."""
    pgid = proc.pid
    if proc.poll() is None:
        try:
            proc.send_signal(sig)
            proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    # Helpers the child started (multiprocessing's forkserver and
    # resource tracker) end once the child has; give them a moment,
    # then kill whatever is left.
    deadline = time.monotonic() + STOP_GRACE_S
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)
    if group_members(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + STOP_GRACE_S
        while group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)


def closed_probe(workload: str) -> float:
    """Seconds from spawning a fresh process until it has imported the
    program and built the solver a closed-loop workload calls."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload],
        stdout=subprocess.PIPE, text=True, env=program_env(),
        start_new_session=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        stop_group(proc)
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("setup probe failed (exit {})".format(code))
    return ready


def _ready(workload: str) -> None:
    """Import what ``workload`` calls and build its solver object."""
    from repro.core.bosphorus import Bosphorus
    from repro.core.config import Config

    if workload == "cnf-fanout":
        import repro.cube.conquer  # noqa: F401
        import repro.portfolio.engine  # noqa: F401
    Bosphorus(Config())
    print("ready", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="set-up probe")
    parser.add_argument("--workload", required=True)
    _ready(parser.parse_args().workload)
