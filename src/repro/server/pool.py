"""The long-lived daemon worker pool behind the solver service.

:class:`repro.portfolio.batch.BatchScheduler` ships a *fixed* batch by
fork inheritance and tears the pool down when the batch drains; a server
cannot work that way — jobs arrive over time and must be cancellable
individually.  :class:`WorkerPool` therefore generalises the batch
layer's machinery to a persistent pool:

* **submission by message** — the parent dispatches whole (picklable)
  :class:`~repro.server.jobs.JobSpec` objects over *per-worker* job
  queues, no fork-time state shipping.  One queue per worker (rather
  than one shared queue) is deliberate: a worker killed while blocked in
  ``get()`` dies holding the queue's read lock, which would wedge every
  future reader — a private queue is simply discarded with its worker
  and the respawned slot gets a fresh one;
* **per-job cooperative cancellation** — a shared flags array holds,
  per worker slot, the id of the job that slot should abandon; the
  worker-side :class:`_CancelToken` compares its slot against its
  current job id and plugs into the conflict-slice cancel checks of
  :func:`repro.portfolio.backends.sliced_solve`, so a cancel lands
  within one conflict slice;
* **per-job deadlines** — the watchdog thread sweeps running jobs and
  cancels any that outlive ``timeout_s`` (measured from job *start*);
  the pool reports those with a ``timeout`` verdict;
* **dead-worker respawn** — a worker that dies mid-job (OOM-kill,
  ``os._exit``) fails *that job only* with a ``worker-died`` error; a
  job dispatched to the dead slot but never started is requeued for the
  next free worker; the slot respawns and keeps serving.  This mirrors
  the batch scheduler's death-isolation semantics.

Events flow back over *per-worker* pipes too, for the same reason in
the other direction: a shared queue serialises its writers on one
cross-process write lock, and a worker killed before its queue's feeder
thread released that lock (even an idle worker, just after posting a
result) would silence every later worker.  Each worker writes its own
pipe synchronously, so an idle worker holds nothing; the parent keeps
reading a dead worker's pipe until end-of-file, so events it posted
before dying still arrive.  One reader thread multiplexes the pipes,
resolves waiters and forwards progress to per-job callbacks — the
asyncio front end (:mod:`repro.server.app`) bridges those callbacks onto
the event loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_readable
from typing import Callable, Deque, Dict, List, Optional

from ..obs import MetricsRegistry
from ..portfolio.batch import default_jobs, mp_context
from .jobs import VERDICT_TIMEOUT, JobSpec, execute_job

#: Flag-array value meaning "nothing to cancel on this slot".
_IDLE = 0

#: Watchdog sweep period (deadline resolution), seconds.
SWEEP_INTERVAL_S = 0.05

#: Longest the event reader blocks before re-reading its pipe list.
READ_POLL_S = 0.2

#: Dispatch attempts per job before a repeatedly-requeued job (its
#: workers keep dying before starting it) is failed outright.
MAX_JOB_ATTEMPTS = 3


class _CancelToken:
    """Worker-side cancel signal for one job: set exactly when the
    parent wrote this worker's slot in the shared flags array to this
    job's id.  Any object with ``is_set()`` satisfies the cooperative
    cancel protocol, so this token rides the same conflict-slice checks
    as the portfolio's shared Event."""

    __slots__ = ("_flags", "_slot", "_job_id")

    def __init__(self, flags, slot: int, job_id: int):
        self._flags = flags
        self._slot = slot
        self._job_id = job_id

    def is_set(self) -> bool:
        return self._flags[self._slot] == self._job_id


def _worker_main(slot, job_queue, events, cancel_flags, started_flags,
                 cache_dir):
    """Daemon worker loop: pull a spec, execute, post events; ``None``
    is the shutdown sentinel.  Runs until told to stop or killed —
    crash isolation is the parent watchdog's job, not ours.

    ``events`` is the write end of this worker's own event pipe; only
    this (main) thread writes it, and each ``send`` has returned before
    the next line runs, so no lock is held between events.

    ``started_flags[slot]`` is written (shared memory, instantly
    visible) before the job runs and cleared after its result is
    posted: the watchdog reads it to tell a job that died *mid-run*
    (fail it) from one still sitting unread in a dead worker's queue
    (requeue it) — the "started" event alone can lag in the event
    pipe past the moment the death is observed."""
    while True:
        spec = job_queue.get()
        if spec is None:
            return
        started_flags[slot] = spec.job_id
        events.send(("started", spec.job_id, slot))
        token = _CancelToken(cancel_flags, slot, spec.job_id)

        def emit_progress(stage, payload, _jid=spec.job_id):
            events.send(("progress", _jid, {"stage": stage, **payload}))

        try:
            result = execute_job(
                spec, cache_dir=cache_dir, cancel=token, progress=emit_progress
            )
            events.send(("result", spec.job_id, result))
        except Exception as exc:
            events.send(
                ("error", spec.job_id,
                 "{}: {}".format(type(exc).__name__, exc))
            )
        started_flags[slot] = _IDLE


@dataclass
class _JobState:
    """Parent-side bookkeeping for one submitted job.

    ``state`` walks ``queued`` (waiting for a free slot) →
    ``dispatched`` (in a worker's queue, not yet picked up) →
    ``running`` → ``done``; death handling keys off the distinction
    between ``dispatched`` (safe to requeue) and ``running`` (the
    casualty)."""

    spec: JobSpec
    on_event: Optional[Callable[[str, object], None]] = None
    state: str = "queued"
    worker: Optional[int] = None
    attempts: int = 0
    deadline: Optional[float] = None
    cancel_requested: bool = False
    timed_out: bool = False
    result: Optional[Dict[str, object]] = None
    done: threading.Event = field(default_factory=threading.Event)


class WorkerPool:
    """A persistent pool of daemon solver workers.

    ``jobs`` is the worker count (defaults to the CPU affinity mask via
    :func:`repro.portfolio.batch.default_jobs`); ``cache_dir`` is handed
    to every worker so all jobs share one persistent conversion cache;
    ``start_method`` overrides the multiprocessing context (the default
    follows :func:`repro.portfolio.batch.mp_context`, including its
    ``REPRO_MP_START`` env override).

    Use as a context manager, or call :meth:`close` — workers are
    daemonic either way, so a dying parent never leaks them.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        start_method: Optional[str] = None,
    ):
        import multiprocessing

        self._ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else mp_context()
        )
        self.n_workers = jobs if jobs is not None else default_jobs()
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        self.cache_dir = cache_dir
        # Read ends of the workers' event pipes, dead workers' included
        # until drained to end-of-file; guarded by the pool lock.  The
        # wake pipe interrupts the reader's wait when the list changes.
        self._event_readers: List[object] = []
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._stopping = False
        # Slot -> id of the job that slot must abandon (_IDLE = none).
        # Plain shared memory, no lock: single-writer per decision,
        # equality-compared on the worker side.
        self._flags = self._ctx.Array("q", self.n_workers, lock=False)
        # Slot -> id of the job that slot is currently executing
        # (written worker-side before user code runs; see _worker_main).
        self._started = self._ctx.Array("q", self.n_workers, lock=False)
        self._lock = threading.Lock()
        self._jobs: Dict[int, _JobState] = {}
        self._pending: Deque[int] = deque()
        self._busy: List[Optional[int]] = [None] * self.n_workers
        self._next_id = 1
        self._closed = False
        self._respawns = 0
        self._completed = 0
        self._failed = 0
        # Service-wide metrics: every finished job's worker-side
        # registry snapshot (riding the result dict across the pickle
        # boundary, like the rest of its payload) merges here — the
        # standing fork-boundary pattern.  Instance-threaded, guarded by
        # the pool lock.
        self.metrics = MetricsRegistry()
        self._worker_queues: List[object] = [None] * self.n_workers
        self._workers: List[object] = [None] * self.n_workers
        for slot in range(self.n_workers):
            self._spawn(slot)
        self._reader = threading.Thread(
            target=self._read_events, name="pool-reader", daemon=True
        )
        self._reader.start()
        self._watchdog = threading.Thread(
            target=self._watch, name="pool-watchdog", daemon=True
        )
        self._watchdog.start()

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, slot: int) -> None:
        """(Re)create the worker on a slot, with a fresh private job
        queue and event pipe."""
        self._flags[slot] = _IDLE
        self._started[slot] = _IDLE
        job_queue = self._ctx.Queue()
        event_r, event_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, job_queue, event_w, self._flags,
                  self._started, self.cache_dir),
            name="solver-worker-{}".format(slot),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only write end, so its death reads
        # as end-of-file; workers forked later do not inherit it.
        event_w.close()
        self._worker_queues[slot] = job_queue
        self._workers[slot] = proc
        self._event_readers.append(event_r)
        self._wake_w.send_bytes(b"")

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting jobs, shut workers down, join the threads.

        Jobs still running are abandoned (their workers are terminated
        after ``timeout``); waiters on them stay unresolved, so drain
        the pool first if their results matter.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for q in self._worker_queues:
                q.put(None)
        for proc in self._workers:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        # Every worker has exited, so its events are all in its pipe:
        # the reader drains what is ready and returns.
        with self._lock:
            self._stopping = True
        self._wake_w.send_bytes(b"")
        self._reader.join(timeout=timeout)
        self._watchdog.join(timeout=timeout)
        if not self._reader.is_alive():
            for conn in self._event_readers + [self._wake_r, self._wake_w]:
                conn.close()

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        on_event: Optional[Callable[[str, object], None]] = None,
    ) -> int:
        """Queue a job; returns its (pool-assigned, non-zero) job id.

        ``on_event(kind, payload)`` — called from the reader thread —
        receives ``("progress", dict)`` events then one terminal
        ``("result", dict)`` or ``("error", str)``.
        """
        spec.validate()
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            job_id = self._next_id
            self._next_id += 1
            spec.job_id = job_id
            self._jobs[job_id] = _JobState(spec=spec, on_event=on_event)
            self._pending.append(job_id)
            self._dispatch_locked()
        return job_id

    def cancel(self, job_id: int) -> bool:
        """Request cooperative cancellation of a job.

        Running jobs get their worker's flag set and stop within one
        conflict slice; jobs still waiting for a worker resolve to a
        ``cancelled`` verdict immediately.  Returns False for
        unknown/finished jobs.
        """
        with self._lock:
            st = self._jobs.get(job_id)
            if st is None or st.state == "done":
                return False
            st.cancel_requested = True
            if st.state == "queued":
                self._pending.remove(job_id)
            elif st.worker is not None:
                self._flags[st.worker] = job_id
                return True
        if st.state == "queued":
            self._finish(
                st,
                {"job_id": job_id, "verdict": "cancelled", "model": None,
                 "stats": {}, "seconds": 0.0},
            )
        return True

    def wait(
        self, job_id: int, timeout: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """Block until the job finishes; returns its result dict (an
        ``error`` verdict dict for failed jobs), or None on timeout."""
        with self._lock:
            st = self._jobs.get(job_id)
        if st is None:
            raise KeyError("unknown job id {}".format(job_id))
        if not st.done.wait(timeout=timeout):
            return None
        return st.result

    def stats(self) -> Dict[str, object]:
        with self._lock:
            states = [st.state for st in self._jobs.values()]
            return {
                "workers": self.n_workers,
                "alive": sum(1 for p in self._workers if p.is_alive()),
                "respawns": self._respawns,
                "queued": states.count("queued"),
                "dispatched": states.count("dispatched"),
                "running": states.count("running"),
                "done": states.count("done"),
                "completed": self._completed,
                "failed": self._failed,
                "metrics": self.metrics.snapshot(),
            }

    # -- parent-side machinery ------------------------------------------------

    def _dispatch_locked(self) -> None:
        """Hand pending jobs to idle slots; caller holds the lock."""
        if self._closed:
            return
        for slot in range(self.n_workers):
            if self._busy[slot] is not None:
                continue
            while self._pending:
                job_id = self._pending.popleft()
                st = self._jobs[job_id]
                if st.state != "queued":
                    # A stale requeue of a job that since resolved
                    # (e.g. a worker died after posting the result).
                    continue
                st.state = "dispatched"
                st.worker = slot
                st.attempts += 1
                self._busy[slot] = job_id
                self._worker_queues[slot].put(st.spec)
                break

    def _finish(self, st: _JobState, result: Dict[str, object]) -> None:
        """Record a terminal result; caller must hold no lock."""
        with self._lock:
            if st.state == "done":
                return
            st.state = "done"
            slot = st.worker
            if slot is not None and self._busy[slot] == st.spec.job_id:
                self._busy[slot] = None
                # Whatever cancel/deadline flag targeted this job is
                # stale now; clear it so the slot's next job starts
                # clean.
                if self._flags[slot] == st.spec.job_id:
                    self._flags[slot] = _IDLE
            st.result = result
            self.metrics.merge(result.get("metrics"))
            if result.get("verdict") == "error":
                self._failed += 1
            else:
                self._completed += 1
            on_event = st.on_event
            self._dispatch_locked()
        if on_event is not None:
            kind = "error" if result.get("verdict") == "error" else "result"
            payload = result.get("error") if kind == "error" else result
            try:
                on_event(kind, payload)
            except Exception:
                pass
        st.done.set()

    def _read_events(self) -> None:
        """Drain worker events from every live pipe until :meth:`close`
        has joined the workers; a pipe is dropped at end-of-file (its
        worker exited and everything it sent has been read)."""
        while True:
            with self._lock:
                readers = list(self._event_readers)
                stopping = self._stopping
            ready = wait_readable(
                readers + [self._wake_r],
                timeout=0 if stopping else READ_POLL_S,
            )
            drained = True
            for conn in ready:
                if conn is self._wake_r:
                    conn.recv_bytes()
                    continue
                drained = False
                try:
                    kind, job_id, payload = conn.recv()
                except (EOFError, OSError):
                    # End-of-file, or a message cut off by the death.
                    with self._lock:
                        self._event_readers.remove(conn)
                    conn.close()
                    continue
                self._handle_event(kind, job_id, payload)
            if stopping and drained:
                return

    def _handle_event(self, kind: str, job_id: int, payload) -> None:
        """Apply one worker event: job start, progress, result, error."""
        with self._lock:
            st = self._jobs.get(job_id)
        if st is None:
            return
        if kind == "started":
            with self._lock:
                if st.state == "dispatched":
                    st.state = "running"
                    if st.spec.timeout_s is not None:
                        st.deadline = time.monotonic() + st.spec.timeout_s
                    if st.cancel_requested:
                        self._flags[payload] = job_id
        elif kind == "progress":
            if st.on_event is not None:
                try:
                    st.on_event("progress", payload)
                except Exception:
                    pass
        elif kind == "result":
            if st.timed_out and payload.get("verdict") == "cancelled":
                payload["verdict"] = VERDICT_TIMEOUT
            self._finish(st, payload)
        elif kind == "error":
            self._finish(
                st,
                {"job_id": job_id, "verdict": "error", "error": payload},
            )

    def _watch(self) -> None:
        """Sweep deadlines and respawn dead workers."""
        while True:
            time.sleep(SWEEP_INTERVAL_S)
            dead_jobs: List[_JobState] = []
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                for st in self._jobs.values():
                    if (
                        st.state == "running"
                        and st.deadline is not None
                        and not st.timed_out
                        and now >= st.deadline
                    ):
                        st.timed_out = True
                        if st.worker is not None:
                            self._flags[st.worker] = st.spec.job_id
                for slot in range(self.n_workers):
                    proc = self._workers[slot]
                    if proc.is_alive():
                        continue
                    job_id = self._busy[slot]
                    if job_id is not None:
                        st = self._jobs[job_id]
                        # The shared started flag, not the (possibly
                        # lagging) "started" event, decides the job's
                        # fate: the worker wrote it before running.
                        if self._started[slot] == job_id:
                            # The casualty: it was executing when the
                            # worker died.
                            dead_jobs.append(st)
                        elif st.attempts >= MAX_JOB_ATTEMPTS:
                            # Requeued repeatedly and its worker died
                            # before starting it every time: stop
                            # burning workers on it.
                            dead_jobs.append(st)
                        elif st.state != "done":
                            # Never started — requeue it at the front
                            # for the next free worker.
                            st.state = "queued"
                            st.worker = None
                            self._pending.appendleft(job_id)
                        self._busy[slot] = None
                    self._spawn(slot)
                    self._respawns += 1
                    self._dispatch_locked()
            for st in dead_jobs:
                self._finish(
                    st,
                    {
                        "job_id": st.spec.job_id,
                        "verdict": "error",
                        "error": "worker-died: worker process died "
                                 "running job",
                    },
                )
