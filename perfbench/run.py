"""The repository's benchmark: time to verdict on four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload simon-cdcl --seed 1 --seconds 16 --trace 0

Each run works through a fixed, seeded instance list sized for
``--seconds`` from a calibrated per-instance cost.  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` runs
the first instances with the program's public functions wrapped and
prints the per-layer split instead.  Metric names and units come from
``BENCHMARK.json``.

The time metrics are host-adjusted: each latency and each set-up probe
is scaled by the host reading taken around it to the reference host
speed (``pb_probe.adjusted``), because the shared host drifts by more
than the bounds in phases longer than a run.  The unadjusted latencies
and probes and the host reading are printed beside them.  Human-readable lines come
first; the last line of standard output is one JSON object.  Any
failed attempt -- an error, a run past the safety cap, a wrong verdict,
a model the benchmark's own check rejects or a determinism mismatch --
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("simon-cdcl", "simon-algebra", "cnf-fanout", "serve-open")


def load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def end_to_end(out, notes: dict) -> dict:
    from pb_probe import adjusted
    from pb_stats import median, tail

    adj = [adjusted(t, h) for t, h in zip(out.latency_s, out.latency_host_ms)]
    adj_tail = tail(adj)
    wall_tail = tail(out.latency_s)
    notes["adj_latency_s_tail"] = "p{:.1f} of n={}".format(
        adj_tail["percentile"], adj_tail["n"])
    notes["wall_latency_s"] = "p50 {:.4g}, tail {:.4g} (unadjusted)".format(
        median(out.latency_s), wall_tail["value"])
    notes["setup_s"] = "median of {} probes, unadjusted: {}".format(
        len(out.setup_s), " ".join("{:.3f}".format(s) for s in out.setup_s))
    return {
        "setup_s": median([adjusted(s, h) for s, h in
                           zip(out.setup_s, out.setup_host_ms)]),
        "adj_latency_s_p50": median(adj),
        "adj_latency_s_tail": adj_tail["value"],
        "solved_frac": out.solved / out.attempted,
        "peak_rss_mb": out.peak_rss_mb,
    }


def host_note(host_ms) -> str:
    q1, q2, q3 = statistics.quantiles(host_ms, n=4)
    return "p50 {:.3f} ms (q1 {:.3f}, q3 {:.3f}, n={})".format(
        q2, q1, q3, len(host_ms))


def stop_helper_processes() -> None:
    """Stop the helper processes multiprocessing starts on its own and
    would leave running past this process's exit -- the forkserver and
    the resource tracker -- and wait for each to end."""
    from multiprocessing import forkserver, resource_tracker, util

    # Finalizers first: releasing a semaphore unregisters it, and that
    # would start a fresh resource tracker after this one has stopped.
    gc.collect()
    util._run_finalizers(0)
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    # A SIGTERM unwinds like an error, so every started process stops.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run()
    finally:
        stop_helper_processes()


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: program sources not found at {}".format(SRC),
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Keep temporary files, the program's and its children's, inside the
    # checkout.
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp

    import pb_workloads

    e2e_units, layer_units = load_metric_units()
    tag = "{}-seed{}".format(args.workload, args.seed)
    notes: dict = {}
    if args.workload == "serve-open":
        out = pb_workloads.serve_open(args.seed, args.seconds, bool(args.trace),
                                      OUT_DIR)
    elif args.trace:
        out = pb_workloads.traced_closed_loop(
            args.workload, args.seed, args.seconds,
            os.path.join(OUT_DIR, tag + ".spans.jsonl"))
    else:
        out = pb_workloads.closed_loop(
            args.workload, args.seed,
            pb_workloads.instance_count(args.workload, args.seconds))
    if args.trace:
        values = {name: float(out.layers.get(name, 0.0)) for name in layer_units}
        units = layer_units
        if out.determinism is not None:
            notes["determinism"] = out.determinism
    else:
        values = end_to_end(out, notes) if out.latency_s else {}
        units = e2e_units

    print("# {} seed={} trace={} instances={} attempted={} failed={}".format(
        args.workload, args.seed, args.trace, len(out.names), out.attempted,
        out.failed))
    for name, value in values.items():
        print("{:<28} {:>14.6g} {}".format(name, value, units[name]))
    notes["host_loop_ms"] = host_note(out.host_ms)
    for key, note in notes.items():
        print("# {}: {}".format(key, note))
    for error in out.errors:
        print("# FAILED: {}".format(error))

    correct = out.failed == 0 and len(values) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
