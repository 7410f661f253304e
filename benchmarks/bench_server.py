"""Solver-service benchmarks: worker scaling and the persistent cache.

Two claims behind ``make bench-server``:

* **throughput scales with workers** — a batch of jobs submitted over
  the JSON-lines protocol completes faster on a 2-worker pool than on a
  1-worker pool.  The jobs are distinct Simon-[4,5] key recoveries of
  about 0.2 s each, so compute, not dispatch, sets the wall time; the
  per-job dispatch overhead is recorded beside the speedup.  Each pool
  first runs one untimed warm-up job per worker, so worker start-up and
  first imports stay out of the timing.  The speedup assertion arms
  only when the machine can actually parallelise (>= 2 CPUs) and the
  run is big enough to measure (``REPRO_BENCH_COUNT >= 2``); otherwise
  the bench still runs both pools and checks the verdicts agree.
* **a warm cache beats a cold one** — the same ANF jobs against a
  server restarted on the same cache directory take strictly fewer
  Karnaugh minimisations (zero reconversions: every conversion loads
  from disk) and reproduce the CNF bit-for-bit.  This one asserts
  unconditionally: it is determinism, not timing.
"""

import asyncio
import io
import os
import time

from repro.anf import write_anf
from repro.ciphers import simon
from repro.server.app import ServerClient, SolverServer

from .conftest import bench_count

#: A small family of distinct ANF systems; distinct so the cold run
#: cannot serve one job from another's in-run cache entries.
def _anf_family(count):
    systems = []
    for k in range(count):
        lines = []
        n = 6
        for i in range(n):
            j = (i + 1) % n
            h = (i + 2 + k) % n
            lines.append(
                "x{i}*x{j} + x{h} + {c}".format(
                    i=i, j=j, h=h, c=(i + k) % 2
                )
            )
        systems.append("\n".join(lines) + "\n")
    return systems


def _simon_family(count):
    """Distinct Simon-[4,5] key-recovery systems (one seed each), about
    0.2 s of preprocessing and solving per job on a 2-CPU x86-64 host."""
    texts = []
    for seed in range(count):
        out = io.StringIO()
        write_anf(out, simon.generate_instance(4, 5, seed=seed).polynomials)
        texts.append(out.getvalue())
    return texts


def _run_batch(jobs, cache_dir, texts, repeat=1, warm_up=()):
    """Submit every system `repeat` times over the protocol; returns
    (wall seconds, results).  The `warm_up` systems are submitted
    together and waited for before the clock starts."""

    async def run():
        async with SolverServer(jobs=jobs, cache_dir=cache_dir) as server:
            async with await ServerClient.connect(
                server.host, server.port
            ) as client:
                warm_ids = [await client.submit("anf", t) for t in warm_up]
                for job in warm_ids:
                    await client.wait_result(job, timeout=300)
                t0 = time.monotonic()
                ids = []
                for _ in range(repeat):
                    for text in texts:
                        ids.append(await client.submit("anf", text))
                results = [
                    await client.wait_result(job, timeout=300) for job in ids
                ]
                return time.monotonic() - t0, results

    return asyncio.run(run())


def test_server_throughput_scales_with_workers(benchmark, table_printer,
                                               tmp_path):
    texts = _simon_family(max(2, bench_count() * 6))
    cpus = os.cpu_count() or 1

    # Separate cache dirs: the scaling comparison must not let run two
    # ride run one's disk entries.  One toy warm-up job per worker.
    one_s, one_results = _run_batch(
        1, str(tmp_path / "one"), texts, warm_up=_anf_family(1)
    )
    two_s, two_results = benchmark.pedantic(
        lambda: _run_batch(
            2, str(tmp_path / "two"), texts, warm_up=_anf_family(2)
        ),
        rounds=1,
        iterations=1,
    )

    verdicts_one = [r["verdict"] for r in one_results]
    verdicts_two = [r["verdict"] for r in two_results]
    assert verdicts_one == verdicts_two
    assert all(v in ("sat", "unsat", "unknown") for v in verdicts_one)

    speedup = one_s / two_s if two_s > 0 else float("inf")
    # What the 1-worker pool spent per job beyond the job itself
    # (protocol, queueing, pickling): the serial cost no worker count
    # can hide.
    job_s = sum(r["seconds"] for r in one_results) / len(texts)
    dispatch_s = one_s / len(texts) - job_s
    benchmark.extra_info["one_worker_s"] = round(one_s, 2)
    benchmark.extra_info["two_worker_s"] = round(two_s, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["job_s"] = round(job_s, 3)
    benchmark.extra_info["dispatch_s_per_job"] = round(dispatch_s, 4)
    table_printer(
        "Solver service throughput ({} jobs)".format(len(texts)),
        "1 worker {:.2f}s  2 workers {:.2f}s  speedup {:.2f}x  "
        "(job {:.3f}s, dispatch {:.4f}s per job)".format(
            one_s, two_s, speedup, job_s, dispatch_s
        ),
    )

    armed = cpus >= 2 and bench_count() >= 2
    if armed:
        assert speedup >= 1.15, (
            "2-worker pool only {:.2f}x faster".format(speedup)
        )


def test_warm_cache_beats_cold_with_zero_reconversions(benchmark,
                                                       table_printer,
                                                       tmp_path):
    texts = _anf_family(max(2, bench_count()))
    cache_dir = str(tmp_path / "cache")

    cold_s, cold_results = _run_batch(1, cache_dir, texts)
    warm_s, warm_results = benchmark.pedantic(
        lambda: _run_batch(1, cache_dir, texts),
        rounds=1,
        iterations=1,
    )

    assert [r["verdict"] for r in warm_results] == [
        r["verdict"] for r in cold_results
    ]
    # Bit-for-bit identical CNF wherever one was produced.
    for cold_r, warm_r in zip(cold_results, warm_results):
        if "cnf_sha256" in cold_r:
            assert warm_r["cnf_sha256"] == cold_r["cnf_sha256"]
    # Zero reconversions: every warm conversion was a disk hit, so no
    # warm job ran a single Karnaugh minimisation.
    for warm_r in warm_results:
        stats = warm_r["stats"]
        assert stats.get("conversion_disk_hits", 0) > 0
        assert stats.get("karnaugh_cache_misses", 0) == 0

    benchmark.extra_info["cold_s"] = round(cold_s, 2)
    benchmark.extra_info["warm_s"] = round(warm_s, 2)
    table_printer(
        "Persistent conversion cache ({} jobs)".format(len(texts)),
        "cold {:.2f}s  warm {:.2f}s  (warm: zero reconversions,"
        " CNF bit-for-bit)".format(cold_s, warm_s),
    )
