"""White-box invariant checks on the CDCL solver's internal state."""

import random

import pytest

from repro.sat import Solver, mk_lit
from repro.sat.types import FALSE, TRUE, UNDEF, lit_neg


def random_3sat(n, m, rng):
    return [
        [mk_lit(v, rng.random() < 0.5) for v in rng.sample(range(n), 3)]
        for _ in range(m)
    ]


def check_watch_invariants(solver):
    """Every clause of length >= 2 is watched by exactly its first two
    literals, and watch lists point back at real clauses."""
    watched = {}
    for lit in range(2 * solver.n_vars):
        for clause in solver.watches[lit]:
            watched.setdefault(id(clause), []).append(lit)
    for clause in solver.clauses + solver.learnts:
        key = id(clause)
        lits = clause.lits
        assert key in watched, "clause not watched: {}".format(clause)
        expected = sorted([lit_neg(lits[0]), lit_neg(lits[1])])
        assert sorted(watched[key]) == expected


def check_trail_invariants(solver):
    """Trail literals are all TRUE, levels are monotone, reasons valid."""
    for i, lit in enumerate(solver.trail):
        assert solver.value_lit(lit) == TRUE
    for lim in solver.trail_lim:
        assert 0 <= lim <= len(solver.trail)
    assert solver.trail_lim == sorted(solver.trail_lim)


@pytest.mark.parametrize("seed", range(10))
def test_invariants_after_solving(seed):
    rng = random.Random(seed)
    n = rng.randint(10, 25)
    solver = Solver()
    solver.ensure_vars(n)
    ok = True
    for c in random_3sat(n, rng.randint(2 * n, 5 * n), rng):
        ok = solver.add_clause(c) and ok
    if not ok:
        return
    solver.solve(conflict_budget=3000)
    check_watch_invariants(solver)
    check_trail_invariants(solver)


@pytest.mark.parametrize("seed", range(5))
def test_invariants_after_budget_interrupt(seed):
    rng = random.Random(100 + seed)
    from repro.satcomp.generators import pigeonhole

    solver = Solver()
    f = pigeonhole(6)
    for c in f.clauses:
        solver.add_clause(c)
    verdict = solver.solve(conflict_budget=25)
    assert verdict is None
    assert solver.decision_level == 0
    check_watch_invariants(solver)
    check_trail_invariants(solver)
    # Resume and finish: state must still be coherent.
    assert solver.solve(conflict_budget=100000) is False


def test_incremental_clause_addition_between_solves():
    solver = Solver()
    solver.ensure_vars(3)
    solver.add_clause([mk_lit(0), mk_lit(1)])
    assert solver.solve() is True
    # Add more constraints and re-solve (incremental usage).
    solver.add_clause([mk_lit(0, True)])
    solver.add_clause([mk_lit(1, True), mk_lit(2)])
    assert solver.solve() is True
    assert solver.model[0] == FALSE
    assert solver.model[1] == TRUE
    assert solver.model[2] == TRUE
    solver.add_clause([mk_lit(2, True), mk_lit(1, True)])
    solver.add_clause([mk_lit(1)])
    assert solver.solve() is False


def test_model_snapshot_survives_backtrack():
    solver = Solver()
    solver.ensure_vars(2)
    solver.add_clause([mk_lit(0), mk_lit(1)])
    assert solver.solve() is True
    model = list(solver.model)
    # The solver returns at level 0; the model snapshot must be intact.
    assert solver.decision_level == 0
    assert model[0] in (TRUE, FALSE)
    assert any(v == TRUE for v in model)


def check_value_invariants(solver):
    """The literal-indexed values mirror ``assign`` for both literals of
    every variable."""
    assert len(solver.litval) == 2 * solver.n_vars
    for v in range(solver.n_vars):
        a = solver.assign[v]
        pos, neg = solver.litval[2 * v], solver.litval[2 * v + 1]
        if a == UNDEF:
            assert (pos, neg) == (UNDEF, UNDEF), v
        else:
            assert (pos, neg) == (a, a ^ 1), v


def check_heap_invariants(solver):
    """Every unassigned variable has exactly one live VSIDS heap entry,
    keyed by its current activity, and ``_heap_key`` records it."""
    live = {}
    for neg_act, v in solver._heap:
        if -neg_act == solver.activity[v]:
            live[v] = live.get(v, 0) + 1
    for v in range(solver.n_vars):
        if solver.assign[v] == UNDEF:
            assert live.get(v) == 1, v
            assert solver._heap_key[v] == solver.activity[v], v
        else:
            assert live.get(v, 0) <= 1, v
    assert not any(solver._seen)


def _solved_3sat(seed, config=None):
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    solver = Solver(config)
    solver.ensure_vars(n)
    for c in random_3sat(n, round(4.3 * n), rng):
        if not solver.add_clause(c):
            break
    return solver


@pytest.mark.parametrize("seed", range(8))
def test_values_and_heap_after_solving(seed):
    solver = _solved_3sat(seed)
    check_value_invariants(solver)
    check_heap_invariants(solver)
    solver.solve(conflict_budget=3000)
    check_value_invariants(solver)
    check_heap_invariants(solver)


@pytest.mark.parametrize("budget", [1, 7, 25, 60])
def test_values_and_heap_after_budget_interrupt(budget):
    from repro.satcomp.generators import pigeonhole

    solver = Solver()
    for c in pigeonhole(6).clauses:
        solver.add_clause(c)
    assert solver.solve(conflict_budget=budget) is None
    check_value_invariants(solver)
    check_heap_invariants(solver)
    # Mid-search state too: one decision and its propagation.
    solver.trail_lim.append(len(solver.trail))
    v = solver._pick_branch_var()
    solver._unchecked_enqueue(mk_lit(v), None)
    assert solver.propagate() is None
    check_value_invariants(solver)
    solver.cancel_until(0)
    check_value_invariants(solver)
    check_heap_invariants(solver)


def test_heap_invariant_survives_activity_rescale():
    """A fast activity decay overflows 1e100 within a few hundred
    conflicts; the rescale rebuilds the heap one live entry per
    unassigned variable."""
    from repro.sat import SolverConfig
    from repro.satcomp.generators import pigeonhole

    solver = Solver(SolverConfig(var_decay=0.5))
    for c in pigeonhole(6).clauses:
        solver.add_clause(c)
    solver.solve(conflict_budget=400)
    # Without a rescale var_inc would be 2 ** conflicts.
    assert solver.var_inc < 2.0 ** solver.num_conflicts * 1e-99
    check_value_invariants(solver)
    check_heap_invariants(solver)


def test_values_and_heap_with_xor_engine_and_seed():
    from repro.sat import SolverConfig, XorEngine

    solver = _solved_3sat(3, SolverConfig(seed=5))
    engine = XorEngine()
    rng = random.Random(9)
    for _ in range(6):
        engine.add_xor(rng.sample(range(solver.n_vars), 4), rng.getrandbits(1))
    solver.attach_xor_engine(engine)
    solver.solve(conflict_budget=500)
    check_value_invariants(solver)
    check_heap_invariants(solver)
