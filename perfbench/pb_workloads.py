"""The four workloads: what runs, how it is timed and how it is checked.

Every run works through a fixed instance list: its length comes from the
run length and a per-instance cost measured once (``COST_S``), never from
the clock during the run, so two runs of one seed on a fast and a slow
host time the same work.  Closed loops (``simon-cdcl``, ``simon-algebra``,
``cnf-fanout``) issue the next instance only after the previous verdict,
so an instance is due when it is issued.  ``serve-open`` is an open
loop (:mod:`pb_serve`).  Set-up probes and host readings are taken
between instances, spread across the run, and are not part of the run
time.  Every latency and set-up probe is paired with the host reading
taken around it (:func:`pb_probe.adjusted`).
"""

from __future__ import annotations

import asyncio
import random
import resource
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pb_inputs
import pb_probe
import pb_serve
import pb_trace
from pb_check import anf_satisfied, cnf_satisfied
from pb_stats import TAIL_BEYOND, median, tail

#: Mean seconds per instance, from untraced runs on a 2-CPU x86-64 host
#: (PROVENANCE.md).  Only sizes the lists; a later, faster program runs
#: the same list in less time.
COST_S = {"simon-cdcl": 1.05, "simon-algebra": 0.16, "cnf-fanout": 0.11}
#: Untimed warm-up instances, ``(family, index)``, solved before the
#: list and drawn outside it: a cheap Simon system loads every ANF layer,
#: and cnf-fanout warms both inner SAT modes (even index: race, odd: cube).
WARM_UP = {
    "simon-cdcl": (("simon-algebra", -1),),
    "simon-algebra": (("simon-algebra", -1),),
    "cnf-fanout": (("cnf-fanout", -2), ("cnf-fanout", -1)),
}
#: Fresh-process set-up probes per untraced run, spread across it.
SETUP_PROBES = 6
#: Host readings taken at each serve-open segment boundary.
SERVE_HOST_READS = 40
#: An instance running longer than this is abandoned and counted failed.
SAFETY_CAP_S = 60.0
#: Workers of the fan-out layers (the inner SAT step of cnf-fanout).
FANOUT_JOBS = 2
#: Workloads whose searches repeat exactly for a seed.  cnf-fanout is
#: not one: a race merges the level-0 facts of its cancelled legs too,
#: and how far a leg got before the cancel depends on timing.
DETERMINISTIC = ("simon-cdcl", "simon-algebra")
#: Counts two traced passes of one seed must reproduce exactly.
DETERMINISM_COUNTS = (
    "sat.conflicts", "sat.propagations", "bosphorus.iterations",
    "bosphorus.facts",
)
DRAW = {
    "simon-cdcl": pb_inputs.simon_cdcl,
    "simon-algebra": pb_inputs.simon_algebra,
    "cnf-fanout": pb_inputs.planted,
}


class SafetyCapExceeded(Exception):
    pass


@dataclass
class Outcome:
    """What one run measured."""

    names: List[str] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    #: The host reading taken around each latency sample.
    latency_host_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    solved: int = 0
    run_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    #: The host reading taken around each set-up probe.
    setup_host_ms: List[float] = field(default_factory=list)
    host_ms: List[float] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    determinism: Optional[Dict[str, float]] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def merge_attempts(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.solved += other.solved
        self.errors += other.errors


def instance_count(workload: str, seconds: float) -> int:
    """Length of a run's fixed list: enough for ``seconds`` at the
    calibrated cost, and never so few that the tail (``TAIL_BEYOND``
    samples beyond it) would read below the median."""
    per_s = pb_serve.RATE if workload == "serve-open" else 1 / COST_S[workload]
    return max(2 * TAIL_BEYOND + 1, round(seconds * per_s))


def instance_list(workload: str, seed: int, count: int) -> List[pb_inputs.Instance]:
    """The first ``count`` instances of a closed-loop workload's seed.

    Instance ``i`` comes from its own generator stream, so a shorter list
    is a prefix of a longer one.
    """
    return [make_instance(workload, seed, i) for i in range(count)]


def make_instance(workload: str, seed: int, index: int) -> pb_inputs.Instance:
    return DRAW[workload](random.Random("{}:{}:{}".format(workload, seed, index)))


def fanout_config(index: int):
    """cnf-fanout alternates the portfolio race and cube-and-conquer."""
    from repro.core.config import Config

    if index % 2 == 0:
        return Config(use_portfolio=True, portfolio_jobs=FANOUT_JOBS)
    return Config(use_cube=True, cube_jobs=FANOUT_JOBS)


def solve_in_process(inst: pb_inputs.Instance, index: int):
    """One call from the public API to a verdict."""
    from repro.core.bosphorus import Bosphorus
    from repro.core.config import Config

    if inst.fmt == "anf":
        return Bosphorus(Config()).preprocess_anf(inst.ring, inst.polys)
    return Bosphorus(fanout_config(index)).preprocess_cnf(inst.formula)


def judge(inst: pb_inputs.Instance, status: str, model) -> Optional[str]:
    """None if the answer is right (or undecided), else why it is wrong."""
    if status == "unsat":
        return "{}: UNSAT on a satisfiable instance".format(inst.name)
    if status == "sat":
        ok = (anf_satisfied if inst.fmt == "anf" else cnf_satisfied)(
            inst.check, model or [])
        return None if ok else "{}: model fails the check".format(inst.name)
    return None


def _on_alarm(signum, frame):
    raise SafetyCapExceeded()


def run_instance(inst: pb_inputs.Instance, index: int,
                 out: Outcome) -> Optional[float]:
    """Solve and check one instance; only the solve is timed.  Returns
    the seconds to the verdict, or None if the solve raised."""
    out.attempted += 1
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAFETY_CAP_S)
    t0 = time.perf_counter()
    try:
        result = solve_in_process(inst, index)
    except SafetyCapExceeded:
        out.fail("{}: over the {} s safety cap".format(inst.name, SAFETY_CAP_S))
        return None
    except Exception as exc:  # any error is a failed attempt, not a crash
        out.fail("{}: {}: {}".format(inst.name, type(exc).__name__, exc))
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        # Failed attempts take run time too.
        elapsed = time.perf_counter() - t0
        out.run_s += elapsed
    model = result.solution.values if result.solution is not None else None
    wrong = judge(inst, result.status, model)
    if wrong:
        out.fail(wrong)
    elif result.status == "sat":
        out.solved += 1
    return elapsed


def closed_loop(workload: str, seed: int, count: int) -> Outcome:
    """Work through the seed's first ``count`` instances, one at a time.

    The list is generated before timing starts, and the ``WARM_UP``
    instances run untimed first.  A host reading is taken between every
    two instances and on either side of each of the ``SETUP_PROBES``
    set-up probes, which are taken before evenly spaced instances; each
    latency and each probe is paired with the mean of the readings on
    either side of it.  None of it counts as run time.
    """
    instances = instance_list(workload, seed, count)
    out = Outcome(names=[inst.name for inst in instances])
    warm = Outcome()
    for family, index in WARM_UP[workload]:
        run_instance(make_instance(family, seed, index), index, warm)
    out.merge_attempts(warm)
    probe_at = {count * k // SETUP_PROBES for k in range(SETUP_PROBES)}
    out.host_ms.append(pb_probe.host_loop_ms())
    for index, inst in enumerate(instances):
        if index in probe_at:
            before = out.host_ms[-1]
            out.setup_s.append(pb_probe.closed_probe(workload))
            out.host_ms.append(pb_probe.host_loop_ms())
            out.setup_host_ms.append((before + out.host_ms[-1]) / 2)
        before = out.host_ms[-1]
        elapsed = run_instance(inst, index, out)
        out.host_ms.append(pb_probe.host_loop_ms())
        if elapsed is not None:
            out.latency_s.append(elapsed)
            out.latency_host_ms.append((before + out.host_ms[-1]) / 2)
    out.peak_rss_mb = peak_rss_mb()
    return out


# -- traced run -----------------------------------------------------------------


def traced_closed_loop(workload: str, seed: int, seconds: float,
                       span_path: str) -> Outcome:
    """Per-layer split of the first instances of the seed's list.

    Three passes, slowed by the wrappers, fit the run length.  The first
    runs traced and gives the per-layer numbers.  Then each instance runs
    once untraced and once
    traced, back to back in alternating order, so the median
    per-instance ratio is the wrapper overhead with drift in host speed
    paired out.  On the ``DETERMINISTIC`` workloads the second traced
    pass must reproduce the determinism counts exactly, or the timings
    would compare two different searches.
    """
    n = max(3, round(seconds / 4 / COST_S[workload]))
    rec = pb_trace.Recorder()
    out = Outcome()
    instances = instance_list(workload, seed, n)
    out.names = [inst.name for inst in instances]
    with pb_trace.installed(rec):
        for index, inst in enumerate(instances):
            rec.request = index
            out.host_ms.append(pb_probe.host_loop_ms())
            run_instance(inst, index, out)
    out.layers = layer_metrics(rec, out.run_s)

    rec2 = pb_trace.Recorder()
    base, again, ratios = Outcome(), Outcome(), []
    for index, inst in enumerate(instances):
        twin = make_instance(workload, seed, index)
        out.host_ms.append(pb_probe.host_loop_ms())
        seconds_by_mode = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                with pb_trace.installed(rec2):
                    seconds_by_mode[traced] = run_instance(twin, index, again)
            else:
                seconds_by_mode[traced] = run_instance(inst, index, base)
        if None not in seconds_by_mode.values():
            ratios.append(seconds_by_mode[True] / seconds_by_mode[False])
    out.merge_attempts(base)
    out.merge_attempts(again)
    out.layers["obs.wrap_overhead_frac"] = median(ratios) - 1.0 if ratios else 0.0
    if workload in DETERMINISTIC:
        second = layer_metrics(rec2, 0.0)
        out.determinism = {k: out.layers[k] for k in DETERMINISM_COUNTS}
        for key in DETERMINISM_COUNTS:
            if second[key] != out.layers[key]:
                out.fail("determinism: {} was {} then {}".format(
                    key, out.layers[key], second[key]))
    rec.write(span_path)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(rec, wall: float) -> Dict[str, float]:
    """Per-layer numbers from one traced pass (totals over the pass)."""
    s, c, calls = rec.self_time, rec.counts, rec.calls
    sat_s = s["sat"] + s["sat.propagate"] + s["sat.analyze"]
    algebra_s = (s["xl"] + s["elimlin"] + s["propagation"] + s["gf2"]
                 + s["convert"])
    kh, km = c["convert.karnaugh_hits"], c["convert.karnaugh_misses"]
    batch_wall = rec.total["batch"]
    jobs = _ratio(c["cube.jobs"], calls["batch"])
    return {
        "trace.wall_s": wall,
        "sat.self_s": sat_s,
        "sat.propagate_s": s["sat.propagate"],
        "sat.analyze_s": s["sat.analyze"],
        "sat.conflicts": c["sat.conflicts"],
        "sat.decisions": c["sat.decisions"],
        "sat.propagations": c["sat.propagations"],
        "sat.conflicts_per_s": _ratio(c["sat.conflicts"], sat_s),
        "sat.propagations_per_s": _ratio(c["sat.propagations"], sat_s),
        "sat.share": _ratio(sat_s, wall),
        "satlearn.calls": calls["satlearn"],
        "satlearn.self_s": s["satlearn"],
        "satlearn.facts_per_call": _ratio(c["satlearn.facts"], calls["satlearn"]),
        "bosphorus.iterations": c["bosphorus.iterations"],
        "bosphorus.facts": c["bosphorus.facts"],
        "bosphorus.facts_xl": c["bosphorus.facts_xl"],
        "bosphorus.facts_elimlin": c["bosphorus.facts_elimlin"],
        "bosphorus.facts_sat": c["bosphorus.facts_sat"],
        "xl.calls": calls["xl"],
        "xl.self_s": s["xl"],
        "xl.facts_per_call": _ratio(c["xl.facts"], calls["xl"]),
        "elimlin.calls": calls["elimlin"],
        "elimlin.self_s": s["elimlin"],
        "elimlin.facts_per_call": _ratio(c["elimlin.facts"], calls["elimlin"]),
        "gf2.calls": calls["gf2"],
        "gf2.self_s": s["gf2"],
        "gf2.cells": c["gf2.cells"],
        "propagation.calls": calls["propagation"],
        "propagation.self_s": s["propagation"],
        "algebra.share": _ratio(algebra_s, wall),
        "convert.calls": calls["convert"],
        "convert.self_s": s["convert"],
        "convert.clauses": c["convert.clauses"],
        "convert.karnaugh_hit_frac": _ratio(kh, kh + km),
        "cnf2anf.calls": calls["cnf2anf"],
        "cnf2anf.self_s": s["cnf2anf"],
        "portfolio.races": c["portfolio.races"],
        "portfolio.race_s": rec.total["portfolio"],
        "portfolio.overhead_s": rec.total["portfolio"] - c["portfolio.win_s"],
        "portfolio.useful_frac": _ratio(c["portfolio.win_s"], c["portfolio.legs_s"]),
        "cube.cubes": c["cube.cubes"],
        "cube.split_s": rec.total["cube.split"],
        "cube.conquer_s": batch_wall,
        "cube.overhead_s": batch_wall - _ratio(c["cube.cube_s"], jobs),
        "cube.busy_frac": _ratio(c["cube.cube_s"], jobs * batch_wall),
    }


# -- serve-open -------------------------------------------------------------------


def serve_open(seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    """Offer the seed's fixed job schedule to a fresh server.

    The server's own start is the first set-up sample; the untraced run
    takes one more probe before each later segment.  Host readings are
    taken at every segment boundary.  The jobs run in other processes, on
    either CPU, so one reading says little about one job; every latency
    and set-up sample is paired with the median of all the run's readings.
    """
    jobs = pb_inputs.serve_schedule(
        random.Random("serve-open:{}".format(seed)),
        instance_count("serve-open", seconds), pb_serve.RATE, SETUP_PROBES)
    out = Outcome()
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        server = pb_serve.ServerProcess(cache_dir)
        out.setup_s.append(server.ready_s)

        def between(segment: int) -> None:
            if 0 < segment < SETUP_PROBES and not trace:
                out.setup_s.append(pb_serve.serve_probe(scratch))
            out.host_ms.extend(pb_probe.host_loop_ms()
                               for _ in range(SERVE_HOST_READS))

        try:
            raw = asyncio.run(pb_serve.run_segments(server.port, jobs, between))
        finally:
            server.close()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    out.peak_rss_mb = peak_rss_mb()
    out.run_s = raw["run_s"]
    for error in raw["protocol_errors"]:
        out.fail("protocol error: {}".format(error))
    run_host_ms = median(out.host_ms)
    out.setup_host_ms = [run_host_ms] * len(out.setup_s)

    run_s, wait_s, hits, conversions = [], [], 0, 0
    for i, job in enumerate(jobs):
        out.names.append(job.instance.name)
        out.attempted += 1
        latency = raw["latency"][i]
        if latency is None:
            out.fail("{}: no result within the safety cap".format(job.instance.name))
            continue
        out.latency_s.append(latency)
        out.latency_host_ms.append(run_host_ms)
        event = raw["events"][i]
        wrong = pb_serve.judge_served(job, event)
        if wrong:
            out.fail(wrong)
            continue
        if event["verdict"] == "sat":
            out.solved += 1
        run_s.append(event["seconds"])
        wait_s.append(latency - event["seconds"])
        counters = event.get("metrics", {}).get("counters", {})
        hits += counters.get("conversion_disk_hits", 0)
        conversions += counters.get("conversions", 0)
    if trace and len(wait_s) > TAIL_BEYOND:
        out.layers = {
            "trace.wall_s": out.run_s,
            "server.run_s_p50": median(run_s),
            "server.wait_s_p50": median(wait_s),
            "server.wait_s_tail": tail(wait_s)["value"],
            "server.conversion_hit_frac": _ratio(hits, conversions),
            "server.respawns": float(raw["stats"].get("respawns", 0)),
            "client.lag_s_max": max(raw["lag"]),
        }
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
