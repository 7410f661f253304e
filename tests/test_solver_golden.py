"""Golden search traces for the CDCL solver.

The solver's hot loops may be tuned for speed, but a tuning must leave
the search itself unchanged: the same decisions, the same conflicts, the
same learnt clauses in the same order.  This module replays a fixed set
of solves for each in-process personality's :class:`SolverConfig` and
compares what the search did against ``tests/solver_golden.json``:

* status, conflicts, decisions, propagations, restarts, reductions,
* the sha256 of the learnt-clause sequence (every clause the solver
  learnt, in order, as logged through the proof hook),
* the level-0 literals and :meth:`Solver.learnt_binary_clauses`.

The fixed set: ten random 3-SAT formulas near the threshold, one
Simon-[3,6] CNF from :class:`AnfToCnf` under a conflict budget, one
assumption cube, one :class:`XorEngine` run and one ``seed=3`` run.
A twelfth 3-SAT formula runs with a small learnt database so that
``reduce_db`` is exercised, and the Simon budget is large enough that
``lingeling``'s faster activity decay rescales the VSIDS activities.
The ``lingeling`` personality is replayed without its SatELite
preprocessing: the golden file pins the solver, not the preprocessor.

Regenerate only for a change that is meant to alter the search::

    PYTHONPATH=src python tests/test_solver_golden.py --update
"""

import hashlib
import json
import os
import random
import sys
from dataclasses import replace

import pytest

from repro.sat import (
    Solver,
    XorEngine,
    cms_config,
    lingeling_config,
    minisat_config,
    mk_lit,
)
from repro.satcomp.generators import planted_ksat, random_ksat

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "solver_golden.json")

PERSONALITIES = {
    "minisat": minisat_config,
    "lingeling": lingeling_config,
    "cms": cms_config,
}

STATUS = {True: "sat", False: "unsat", None: "unknown"}


class LearntLog:
    """Proof sink that keeps the order of learnt clauses (DratProof API)."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.count = 0
        self.deleted = 0

    def add(self, lits):
        self.digest.update(" ".join(map(str, lits)).encode() + b";")
        self.count += 1

    def delete(self, lits):
        self.deleted += 1

    def add_empty(self):
        pass


def _random_3sat(i):
    n = 40 + 2 * i
    return random_ksat(n, round(4.26 * n), 3, seed=i)


def _simon_cnf():
    from repro.ciphers.simon import generate_instance
    from repro.core.anf_to_cnf import AnfToCnf

    inst = generate_instance(3, 6, seed=0)
    return AnfToCnf().convert_polynomials(
        inst.polynomials, n_vars=inst.n_vars
    ).formula


def _xor_formula():
    formula, solution = planted_ksat(40, 150, 3, seed=5)
    rng = random.Random(5)
    for _ in range(15):
        variables = rng.sample(range(40), 5)
        formula.add_xor(variables, sum(solution[v] for v in variables))
    return formula


def _cube_formula():
    formula, solution = planted_ksat(60, 250, 3, seed=7)
    # Each assumed literal contradicts the planted model.
    assumptions = [mk_lit(v, solution[v] == 1) for v in (3, 17, 29, 41)]
    return formula, assumptions


def cases():
    """(name, formula, assumptions, conflict_budget, seed) tuples."""
    out = [
        ("3sat-{}".format(i), _random_3sat(i), (), None, None)
        for i in range(10)
    ]
    out.append(("simon-3-6", _simon_cnf(), (), 1500, None))
    formula, assumptions = _cube_formula()
    out.append(("cube", formula, assumptions, None, None))
    out.append(("xor", _xor_formula(), (), None, None))
    out.append(("seed3", random_ksat(50, 213, 3, seed=42), (), None, 3))
    out.append(("reduce", _random_3sat(12), (), None, None))
    return out


def trace(config, formula, assumptions, budget):
    """Solve once and summarise the search it ran."""
    solver = Solver(config)
    solver.ensure_vars(formula.n_vars)
    loaded = all(solver.add_clause(list(c)) for c in formula.clauses)
    if loaded and formula.xors:
        engine = XorEngine()
        for variables, rhs in formula.xors:
            engine.add_xor(variables, rhs)
        solver.attach_xor_engine(engine)
    log = LearntLog()
    solver.proof = log
    verdict = solver.solve(assumptions=assumptions, conflict_budget=budget)
    return {
        "status": STATUS[verdict],
        "assumptions_failed": solver.assumptions_failed,
        "conflicts": solver.num_conflicts,
        "decisions": solver.num_decisions,
        "propagations": solver.num_propagations,
        "restarts": solver.num_restarts,
        "reductions": solver.num_reductions,
        "learnts": log.count,
        "deleted": log.deleted,
        "learnt_sha256": log.digest.hexdigest(),
        "level0": solver.level0_literals(),
        "learnt_binaries": [list(b) for b in solver.learnt_binary_clauses()],
    }


def compute():
    table = {}
    for personality, factory in PERSONALITIES.items():
        rows = {}
        for name, formula, assumptions, budget, seed in cases():
            config = factory()
            if seed is not None:
                config = replace(config, seed=seed)
            if name == "reduce":
                # A small learnt database, so reduce_db runs often.
                config = replace(
                    config, learnt_keep_base=40, learnt_keep_step=10
                )
            rows[name] = trace(config, formula, assumptions, budget)
        table[personality] = rows
    return table


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def actual():
    return compute()


@pytest.mark.parametrize("personality", sorted(PERSONALITIES))
def test_search_matches_golden(golden, actual, personality):
    want, got = golden[personality], actual[personality]
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], "{}/{} diverged".format(
            personality, name
        )


def test_golden_set_covers_every_outcome(golden):
    """The fixed set must exercise SAT, UNSAT, a budget interrupt, a
    failed cube and learnt-database reduction, or a search change could
    hide in an unexercised path."""
    rows = [r for table in golden.values() for r in table.values()]
    statuses = {r["status"] for r in rows}
    assert statuses == {"sat", "unsat", "unknown"}
    assert any(r["assumptions_failed"] for r in rows)
    assert any(r["reductions"] and r["deleted"] for r in rows)
    assert all(r["conflicts"] > 0 for r in rows)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_solver_golden.py --update")
    with open(GOLDEN, "w") as f:
        json.dump(compute(), f, indent=1, sort_keys=True)
        f.write("\n")
