"""Span recording around the program's public functions.

The traced run replaces public functions with thin wrappers at the place
their callers look them up, records one span per call into an in-memory
:class:`Recorder` and restores the originals afterwards.  Nothing inside
``src/`` is instrumented, and nothing is read from worker processes: a
forked worker inherits the wrappers, but what it records stays in its
own copy of the recorder and is lost with it.  Fan-out layers are timed
at the parent-side call and their per-leg seconds are read from the
results the program already returns.

A span's self time is its duration minus the time its child spans cover;
the recorder computes it when the span closes, so nested layers (XL
calling the GF(2) kernel, the SAT step calling the converter) never
count the same second twice.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Spans aggregated without being stored one by one: they fire once per
#: CDCL decision or conflict, far too often to keep individually.
HOT_SPANS = frozenset({"sat.propagate", "sat.analyze"})


class Recorder:
    """Nested spans with online self-time accounting.

    ``request`` tags every stored span with the instance or job it
    belongs to, so the spans of one request share an identifier.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[dict] = []
        self.request: Optional[int] = None
        # Open spans: [name, start, child seconds, span id].
        self._stack: List[list] = []
        self._next_id = 1

    def enter(self, name: str) -> None:
        span_id = 0
        if name not in HOT_SPANS:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self) -> None:
        name, start, child, span_id = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_id:
            parent = next(
                (frame[3] for frame in reversed(self._stack) if frame[3]), 0
            )
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "request": self.request,
            })

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def write(self, path: str) -> None:
        """Write the stored spans as JSON lines."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def timed(rec: Recorder, name: str, fn, after=None):
    """``fn`` wrapped in a span; ``after(rec, args, result)`` adds counts."""

    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self):
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Rebind ``original`` in every loaded module of the program."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- the program's layers ---------------------------------------------------


def _facts_after(key):
    def after(rec, args, result):
        rec.add(key + ".facts", len(result.facts))
    return after


def _bosphorus_after(rec, args, result):
    rec.add("bosphorus.iterations", result.iterations)
    summary = result.facts.summary()
    for source in ("xl", "elimlin", "sat"):
        rec.add("bosphorus.facts_" + source, summary.get(source, 0))
    rec.add("bosphorus.facts", len(result.facts))


def _convert_after(rec, args, result):
    rec.add("convert.clauses", len(result.formula.clauses))
    rec.add("convert.karnaugh_hits", result.stats.karnaugh_cache_hits)
    rec.add("convert.karnaugh_misses", result.stats.karnaugh_cache_misses)


def _portfolio_after(rec, args, result):
    rec.add("portfolio.races")
    rec.add("portfolio.legs_s", sum(s.seconds for s in result.stats))
    rec.add("portfolio.win_s", sum(s.seconds for s in result.stats if s.won))


def _cube_after(rec, args, result):
    rec.add("cube.runs")
    rec.add("cube.cubes", result.n_cubes)
    rec.add("cube.cube_s", sum(s.seconds for s in result.stats))


def _install_algebra(rec: Recorder, patches: Patches) -> None:
    """Wrap the learning loop, the ANF layers, conversion and GF(2)."""
    from repro.core.anf_to_cnf import AnfToCnf
    from repro.core.bosphorus import Bosphorus
    from repro.core.cnf_to_anf import cnf_to_anf
    from repro.core.elimlin import run_elimlin
    from repro.core.propagation import propagate
    from repro.core.satlearn import run_sat
    from repro.core.xl import run_xl
    from repro.gf2.elimination import eliminate as original_eliminate

    patches.set(Bosphorus, "preprocess_anf", timed(
        rec, "bosphorus", Bosphorus.preprocess_anf, _bosphorus_after))
    patches.set(Bosphorus, "preprocess_cnf", timed(
        rec, "bosphorus", Bosphorus.preprocess_cnf))
    for fn, name, after in (
        (run_xl, "xl", _facts_after("xl")),
        (run_elimlin, "elimlin", _facts_after("elimlin")),
        (propagate, "propagation", None),
        (run_sat, "satlearn", _facts_after("satlearn")),
        (cnf_to_anf, "cnf2anf", None),
    ):
        patches.everywhere(fn, timed(rec, name, fn, after))

    def eliminate(matrix, *args, **kwargs):
        rec.add("gf2.cells", matrix.n_rows * matrix.n_cols)
        return original_eliminate(matrix, *args, **kwargs)

    patches.everywhere(original_eliminate, timed(rec, "gf2", eliminate))

    for attr in ("convert", "convert_polynomials"):
        patches.set(AnfToCnf, attr, timed(
            rec, "convert", getattr(AnfToCnf, attr), _convert_after))


def _install_solver(rec: Recorder, patches: Patches) -> None:
    """Wrap the CDCL solver; only its calls in this process are seen."""
    from repro.sat.solver import Solver

    solve = Solver.solve

    def traced_solve(self, *args, **kwargs):
        before = (self.num_conflicts, self.num_decisions, self.num_propagations)
        rec.enter("sat")
        try:
            return solve(self, *args, **kwargs)
        finally:
            rec.exit()
            rec.add("sat.conflicts", self.num_conflicts - before[0])
            rec.add("sat.decisions", self.num_decisions - before[1])
            rec.add("sat.propagations", self.num_propagations - before[2])

    patches.set(Solver, "solve", traced_solve)
    patches.set(Solver, "propagate", timed(rec, "sat.propagate", Solver.propagate))
    patches.set(Solver, "analyze", timed(rec, "sat.analyze", Solver.analyze))


def _install_fanout(rec: Recorder, patches: Patches) -> None:
    """Time the portfolio race, the cube split/conquer and the batch map
    at their parent-side calls."""
    from repro.cube import conquer
    from repro.portfolio import batch, engine

    patches.set(engine.PortfolioRunner, "run", timed(
        rec, "portfolio", engine.PortfolioRunner.run, _portfolio_after))
    patches.set(conquer.CubeConqueror, "run", timed(
        rec, "cube", conquer.CubeConqueror.run, _cube_after))
    patches.set(conquer, "split_formula", timed(
        rec, "cube.split", conquer.split_formula))

    def batch_after(rec, args, result):
        rec.add("cube.jobs", args[0].jobs)

    patches.set(batch.BatchScheduler, "map", timed(
        rec, "batch", batch.BatchScheduler.map, batch_after))


@contextmanager
def installed(rec: Recorder):
    """Every wrapper in place for the ``with`` body.

    All layers are wrapped on every in-process workload; a wrapper that
    is never called records nothing, so a layer a workload bypasses
    reads 0 because it did not run in this process, not because it went
    unwatched.
    """
    patches = Patches()
    try:
        _install_algebra(rec, patches)
        _install_solver(rec, patches)
        _install_fanout(rec, patches)
        yield rec
    finally:
        patches.restore()
