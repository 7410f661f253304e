"""Tests of the benchmark harness itself (not of the program).

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import asyncio
import os
import random
import signal
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pb_check  # noqa: E402
import pb_inputs  # noqa: E402
import pb_probe  # noqa: E402
import pb_serve  # noqa: E402
import pb_stats  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="needs /proc")


def test_tail_keeps_ten_samples_beyond():
    t = pb_stats.tail(list(range(1, 101)))
    assert (t["value"], t["percentile"], t["beyond"], t["n"]) == (90, 90.0, 10, 100)
    t = pb_stats.tail([5.0] * 3 + list(range(1, 9)))  # 11 samples
    assert t["beyond"] == 10 and t["percentile"] == pytest.approx(100 / 11)
    assert t["value"] == 1


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        pb_stats.tail(list(range(10)))


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 5] (which holds c [2, 4]) and b [6, 7];
    # the hot span h [7.5, 8] is aggregated but still a child of a.
    rec = pb_trace.Recorder(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 7.5, 8, 10]))
    rec.enter("a")
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.enter("b")
    rec.exit()
    rec.enter("sat.propagate")
    rec.exit()
    rec.exit()
    assert rec.self_time["c"] == 2
    assert rec.self_time["b"] == 3
    assert rec.self_time["sat.propagate"] == 0.5
    assert rec.self_time["a"] == pytest.approx(10 - 4 - 1 - 0.5)
    assert rec.calls["b"] == 2
    stored = {s["name"]: s for s in rec.spans}
    assert "sat.propagate" not in stored
    assert stored["c"]["parent"] == rec.spans[1]["id"]  # c's parent is b
    assert stored["a"]["parent"] == 0


def test_patches_restore_originals():
    module = types.ModuleType("repro._perfbench_probe")
    sys.modules[module.__name__] = module

    def f():
        return 1

    module.f = f
    patches = pb_trace.Patches()
    rec = pb_trace.Recorder()
    try:
        patches.everywhere(f, pb_trace.timed(rec, "f", f))
        assert module.f is not f and module.f() == 1
        assert rec.calls["f"] == 1
        patches.restore()
        assert module.f is f
    finally:
        del sys.modules[module.__name__]


def test_every_layer_is_wrapped_and_restored():
    from repro.cube.conquer import CubeConqueror
    from repro.portfolio.batch import BatchScheduler
    from repro.portfolio.engine import PortfolioRunner
    from repro.sat.solver import Solver

    owners = ((Solver, "solve"), (Solver, "propagate"), (Solver, "analyze"),
              (PortfolioRunner, "run"), (CubeConqueror, "run"),
              (BatchScheduler, "map"))
    before = [owner.__dict__[attr] for owner, attr in owners]
    with pb_trace.installed(pb_trace.Recorder()):
        during = [owner.__dict__[attr] for owner, attr in owners]
    after = [owner.__dict__[attr] for owner, attr in owners]
    assert all(d is not b for d, b in zip(during, before))
    assert after == before


def _run_fifo(dues, service, block_sender=None):
    """Drive a one-worker FIFO fake service on the open-loop schedule."""

    async def main():
        queue = asyncio.Queue()
        finished = [None] * len(dues)

        async def worker():
            while True:
                i = await queue.get()
                await asyncio.sleep(service[i])
                finished[i] = time.perf_counter()

        async def send(i):
            if block_sender is not None and i == block_sender[0]:
                time.sleep(block_sender[1])  # the sender itself stalls
            queue.put_nowait(i)

        task = asyncio.ensure_future(worker())
        start, sent = await pb_serve.send_on_schedule(dues, send)
        while None in finished:
            await asyncio.sleep(0.005)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        return start, sent, finished

    start, sent, finished = asyncio.run(main())
    return pb_serve.due_latencies(start, dues, finished), sent, start


def test_stalled_reply_raises_latency_of_later_jobs():
    dues = [0.05 * i for i in range(6)]
    service = [0.01, 0.3, 0.01, 0.01, 0.01, 0.01]
    latency, _, _ = _run_fifo(dues, service)
    assert latency[0] < 0.1
    # Jobs 2..5 were due while job 1 held the worker.
    for i in (2, 3, 4, 5):
        assert latency[i] > 0.3 - (dues[i] - dues[1]) - 0.01


def test_stalled_sender_is_charged_from_due_time():
    dues = [0.05 * i for i in range(5)]
    service = [0.01] * 5
    latency, sent, start = _run_fifo(dues, service, block_sender=(1, 0.3))
    # Job 2 was due at 0.10 but could only be sent after the 0.3 s stall;
    # its latency counts that lateness, not just its own service time.
    late = sent[2] - (start + dues[2])
    assert late > 0.15
    assert latency[2] >= late


def _fixed_work_run(monkeypatch, clock_rate, solve_s):
    """A cnf-fanout closed loop with a fake solver and a scaled clock."""
    fake_time = types.SimpleNamespace(
        perf_counter=lambda: time.perf_counter() * clock_rate)

    def fake_solve(inst, index):
        time.sleep(solve_s)
        return types.SimpleNamespace(status="unknown", solution=None)

    monkeypatch.setattr(pb_workloads, "time", fake_time)
    monkeypatch.setattr(pb_workloads, "solve_in_process", fake_solve)
    monkeypatch.setattr(pb_probe, "closed_probe", lambda workload: 0.1)
    seconds = 1.0  # a run length, not a clock limit
    count = pb_workloads.instance_count("cnf-fanout", seconds)
    return pb_workloads.closed_loop("cnf-fanout", 5, count)


def test_slowed_clock_does_the_same_instance_list(monkeypatch):
    fast = _fixed_work_run(monkeypatch, 1.0, 0.0)
    slow = _fixed_work_run(monkeypatch, 0.01, 0.02)
    expected = [i.name for i in pb_workloads.instance_list(
        "cnf-fanout", 5, pb_workloads.instance_count("cnf-fanout", 1.0))]
    assert fast.names == slow.names == expected
    warm = len(pb_workloads.WARM_UP["cnf-fanout"])
    assert fast.attempted == slow.attempted == len(expected) + warm
    assert len(fast.setup_s) == len(slow.setup_s) == pb_workloads.SETUP_PROBES
    # The slow run's clock read hundreds of times less time, and more
    # of it passed: neither changed what was done.
    assert slow.run_s < fast.run_s + 1.0


def test_every_run_has_enough_samples_for_the_tail():
    for workload in ("simon-cdcl", "simon-algebra", "cnf-fanout", "serve-open"):
        for seconds in (1, 25):
            assert pb_workloads.instance_count(workload, seconds) > 2 * pb_stats.TAIL_BEYOND


def test_failed_attempts_take_run_time(monkeypatch):
    def failing_solve(inst, index):
        time.sleep(0.02)
        raise RuntimeError("solver error")

    monkeypatch.setattr(pb_workloads, "solve_in_process", failing_solve)
    out = pb_workloads.Outcome()
    pb_workloads.run_instance(pb_workloads.make_instance("cnf-fanout", 1, 0), 0, out)
    assert out.attempted == out.failed == 1
    assert out.latency_s == [] and out.solved == 0
    assert out.run_s >= 0.02


def test_adjusted_scales_to_the_reference_speed():
    ref = pb_probe.HOST_REF_MS
    assert pb_probe.adjusted(1.5, ref) == pytest.approx(1.5)
    # A host that reads twice as slow ran the program twice as slow.
    assert pb_probe.adjusted(1.5, 2 * ref) == pytest.approx(0.75)


def test_each_latency_and_probe_is_paired_with_the_readings_around_it(monkeypatch):
    reads = iter(range(1, 1000))
    monkeypatch.setattr(pb_probe, "host_loop_ms", lambda: float(next(reads)))
    monkeypatch.setattr(pb_probe, "closed_probe", lambda workload: 0.1)
    monkeypatch.setattr(pb_workloads, "solve_in_process", lambda inst, index:
                        types.SimpleNamespace(status="unknown", solution=None))
    monkeypatch.setattr(pb_workloads, "SETUP_PROBES", 2)
    out = pb_workloads.closed_loop("cnf-fanout", 1, 4)
    # Probes come before instances 0 and 2: reading 1, probe, 2,
    # instance 0, 3, instance 1, 4, probe, 5, instance 2, 6, instance 3, 7.
    assert out.host_ms == [1, 2, 3, 4, 5, 6, 7]
    assert out.setup_host_ms == [1.5, 4.5]
    assert out.latency_host_ms == [2.5, 3.5, 5.5, 6.5]


@pytest.mark.parametrize("workload", ["simon-cdcl", "simon-algebra", "cnf-fanout"])
def test_inputs_are_deterministic_per_seed(workload):
    def draw(seed):
        return [i.text() for i in pb_workloads.instance_list(workload, seed, 3)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_serve_schedule_is_deterministic_per_seed():
    def draw(seed):
        jobs = pb_inputs.serve_schedule(random.Random(seed), 24, 4.0, 3)
        return [(j.segment, j.due, j.repeat, j.instance.text()) for j in jobs]

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    jobs = pb_inputs.serve_schedule(random.Random(3), 24, 4.0, 3)
    assert [sum(j.segment == s for j in jobs) for s in range(3)] == [8, 8, 8]
    anf = [j for j in jobs if j.instance.fmt == "anf"]
    assert any(j.repeat for j in anf) and not all(j.repeat for j in anf)


def test_own_checks_accept_witness_and_reject_a_flipped_bit():
    from repro.ciphers import simon

    inst = pb_inputs.simon(random.Random(1), 2, 3, range(64))
    rng = random.Random(1)
    key = [rng.getrandbits(16) for _ in range(4)]
    witness = simon.encode_instance(
        simon.sp_rc_plaintexts(2, rng), key, 3).witness
    assert pb_check.anf_satisfied(inst.check, witness)
    flipped = list(witness)
    flipped[0] ^= 1
    assert not pb_check.anf_satisfied(inst.check, flipped)


def test_judge_rejects_unsat_and_bad_models():
    inst = pb_inputs.Instance(name="t", fmt="cnf", check=[[0], [1, 2]], n_vars=2)
    assert pb_workloads.judge(inst, "sat", [1, 1]) is None
    assert pb_workloads.judge(inst, "unknown", None) is None
    assert pb_workloads.judge(inst, "sat", [1, 0]) is not None
    assert pb_workloads.judge(inst, "unsat", None) is not None


def _live_processes():
    """``pid -> (parent pid, session id)`` of every live process (Linux)."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(name)) as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[0] != "Z":
            table[int(name)] = (int(fields[1]), int(fields[3]))
    return table


def _tree_sessions(root):
    """Session ids of ``root`` and every live process below it.  Each
    process the benchmark starts leads a session of its own."""
    table = _live_processes()
    tree, grew = {root}, True
    while grew:
        below = {pid for pid, (ppid, _) in table.items() if ppid in tree}
        grew = not below <= tree
        tree |= below
    return {table[pid][1] for pid in tree if pid in table}


def _session_members(sids):
    return [pid for pid, (_, sid) in _live_processes().items() if sid in sids]


@needs_proc
def test_stopped_server_leaves_no_process(tmp_path):
    server = pb_serve.ServerProcess(str(tmp_path))
    assert server.ready_s > 0
    pgid = server.proc.pid
    assert pb_probe.group_members(pgid)
    server.close()
    assert pb_probe.group_members(pgid) == []


@needs_proc
def test_sigterm_mid_run_leaves_no_process():
    # A serve-open run with its server up and a probe or two behind it:
    # SIGTERM must still stop every process the run started.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serve-open", "--seed", "1", "--seconds", "20", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        sessions = set()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and len(_session_members(sessions)) < 3:
            sessions |= _tree_sessions(proc.pid)
            time.sleep(0.05)
        # The run's own session and the server's: run, server, workers.
        assert len(sessions) >= 2
        assert len(_session_members(sessions)) >= 3
        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"correct"' not in stdout
    assert _session_members(sessions) == []
