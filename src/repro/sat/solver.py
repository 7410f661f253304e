"""A conflict-driven clause-learning (CDCL) SAT solver.

This is the reproduction's stand-in for MiniSat / Lingeling /
CryptoMiniSat5.  It implements the standard modern architecture the paper
relies on:

* two-literal watching for unit propagation over a literal-indexed value
  array (one list index per watch check),
* VSIDS variable activities with phase saving, picked from a binary heap
  that holds at most one live entry per variable,
* first-UIP conflict analysis with clause minimisation,
* Luby restarts and activity-based learnt-database reduction,
* **conflict budgets** (the paper bounds the solver by conflicts, not time,
  for replicability — section II-D), and
* an API to harvest learnt facts: level-0 units and learnt binary clauses,
  which Bosphorus converts back into ANF linear equations.

An optional :class:`repro.sat.xorengine.XorEngine` can be attached to give
the solver native XOR reasoning (our CryptoMiniSat personality).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .clause import Clause
from .types import FALSE, TRUE, UNDEF, lit_neg

#: ``Solver._heap_key`` value of a variable with no live heap entry
#: (activities are never negative).
NO_ENTRY = -1.0

#: Result of :meth:`Solver.solve`.
SAT = True
UNSAT = False
UNKNOWN = None


@dataclass
class SolverConfig:
    """Tunables defining a solver personality.

    ``seed`` switches on *diversification* for portfolio solving: initial
    polarities are drawn at random and branch decisions occasionally pick
    a random unassigned variable instead of the VSIDS maximum
    (``random_branch_freq``, MiniSat's ``random_var_freq`` idea).  The
    randomness is a private ``random.Random(seed)``, so a given seed is
    bit-for-bit reproducible; ``seed=None`` (the default) consults no RNG
    at all and preserves the undiversified search exactly.
    """

    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_base: int = 100
    use_luby: bool = True
    phase_saving: bool = True
    default_phase: bool = False
    learnt_keep_base: int = 4000
    learnt_keep_step: int = 300
    minimize_learnts: bool = True
    seed: Optional[int] = None
    random_branch_freq: float = 0.02


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Uses MiniSat's iterative formulation: find the subsequence containing
    index ``i`` and the position within it.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


class Solver:
    """CDCL SAT solver over literals encoded as in :mod:`repro.sat.types`."""

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self._rng = (
            random.Random(self.config.seed)
            if self.config.seed is not None
            else None
        )
        self.n_vars = 0
        self.clauses: List[Clause] = []
        self.learnts: List[Clause] = []
        self.watches: List[List[Clause]] = []
        #: Per-variable TRUE/FALSE/UNDEF: the public view of the trail.
        self.assign: List[int] = []
        #: Per-literal TRUE/FALSE/UNDEF, written beside ``assign`` so the
        #: hot loops read a literal's value with one index.
        self.litval: List[int] = []
        self.level: List[int] = []
        self.reason: List[Optional[Clause]] = []
        self.activity: List[float] = []
        self.polarity: List[bool] = []
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.cla_inc = 1.0
        # VSIDS order: (-activity, var) entries.  Bumps leave stale
        # entries behind; _heap_key[v] is the activity of v's one live
        # entry, or NO_ENTRY, so no variable is pushed twice at one key.
        self._heap: List[Tuple[float, int]] = []
        self._heap_key: List[float] = []
        # analyze() scratch, all False between calls.
        self._seen: List[bool] = []
        self.ok = True
        self.model: List[int] = []
        # Statistics.
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_restarts = 0
        self.num_reductions = 0
        # Assumption-failure signal: set by solve() when UNSAT was only
        # proven *under the given assumptions* (a cube), not globally.
        self.assumptions_failed = False
        self.failed_assumption: Optional[int] = None
        # Learnt-fact bookkeeping for Bosphorus.
        self.learnt_binaries: Set[Tuple[int, int]] = set()
        self.xor_engine = None  # set via attach_xor_engine
        # Optional DRAT proof logging (pure-CNF solving only).
        self.proof = None  # assign a repro.sat.drat.DratProof before solving

    # -- variables -----------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its index."""
        v = self.n_vars
        self.n_vars += 1
        self.watches.append([])
        self.watches.append([])
        self.assign.append(UNDEF)
        self.litval.append(UNDEF)
        self.litval.append(UNDEF)
        self._seen.append(False)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        if self._rng is not None:
            self.polarity.append(self._rng.random() < 0.5)
        else:
            self.polarity.append(self.config.default_phase)
        heapq.heappush(self._heap, (0.0, v))
        self._heap_key.append(0.0)
        return v

    def ensure_vars(self, n: int) -> None:
        """Grow the variable pool to at least ``n`` variables."""
        while self.n_vars < n:
            self.new_var()

    def value_lit(self, lit: int) -> int:
        """TRUE/FALSE/UNDEF value of a literal under the current trail."""
        return self.litval[lit]

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    # -- clause management -----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a problem clause.  Returns False if the solver became UNSAT.

        Must be called at decision level 0.  Duplicate literals collapse;
        tautologies are dropped; false literals (level-0) are removed.
        """
        if not self.ok:
            return False
        assert self.decision_level == 0
        seen: Set[int] = set()
        out: List[int] = []
        for l in lits:
            self.ensure_vars((l >> 1) + 1)
            if lit_neg(l) in seen:
                return True  # tautology
            if l in seen:
                continue
            val = self.value_lit(l)
            if val == TRUE:
                return True  # already satisfied at level 0
            if val == FALSE:
                continue  # falsified at level 0: drop the literal
            seen.add(l)
            out.append(l)
        if not out:
            self.ok = False
            if self.proof is not None:
                self.proof.add_empty()
            return False
        if len(out) == 1:
            self._unchecked_enqueue(out[0], None)
            self.ok = self.propagate() is None
            if not self.ok and self.proof is not None:
                self.proof.add_empty()
            return self.ok
        c = Clause(out, learnt=False)
        self.clauses.append(c)
        self._attach(c)
        return True

    def _attach(self, c: Clause) -> None:
        self.watches[lit_neg(c.lits[0])].append(c)
        self.watches[lit_neg(c.lits[1])].append(c)

    def _detach(self, c: Clause) -> None:
        self.watches[lit_neg(c.lits[0])].remove(c)
        self.watches[lit_neg(c.lits[1])].remove(c)

    def attach_xor_engine(self, engine) -> None:
        """Install an XOR reasoning engine (see :mod:`repro.sat.xorengine`)."""
        if self.proof is not None:
            raise ValueError(
                "DRAT proof logging is not supported with the XOR engine"
            )
        self.xor_engine = engine
        engine.bind(self)

    # -- trail ----------------------------------------------------------------

    def _unchecked_enqueue(self, lit: int, reason: Optional[Clause]) -> None:
        v = lit >> 1
        self.assign[v] = TRUE ^ (lit & 1)
        self.litval[lit] = TRUE
        self.litval[lit ^ 1] = FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def enqueue(self, lit: int, reason: Optional[Clause]) -> bool:
        """Assert a literal; False signals an immediate conflict."""
        val = self.value_lit(lit)
        if val == FALSE:
            return False
        if val == UNDEF:
            self._unchecked_enqueue(lit, reason)
        return True

    def cancel_until(self, target_level: int) -> None:
        """Backtrack, unassigning everything above ``target_level``.

        An unassigned variable goes back on the VSIDS heap only when it
        has no live entry at its current activity.
        """
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) <= target_level:
            return
        assign, litval, reason = self.assign, self.litval, self.reason
        activity, heap, heap_key = self.activity, self._heap, self._heap_key
        polarity = self.polarity if self.config.phase_saving else None
        push = heapq.heappush
        bound = trail_lim[target_level]
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            v = lit >> 1
            if polarity is not None:
                polarity[v] = not (lit & 1)
            assign[v] = UNDEF
            litval[lit] = UNDEF
            litval[lit ^ 1] = UNDEF
            reason[v] = None
            act = activity[v]
            if heap_key[v] != act:
                heap_key[v] = act
                push(heap, (-act, v))
        del trail[bound:]
        del trail_lim[target_level:]
        self.qhead = len(trail)
        if self.xor_engine is not None:
            self.xor_engine.on_backtrack()

    # -- propagation ------------------------------------------------------------

    def propagate(self) -> Optional[Clause]:
        """Unit propagation to fixpoint.  Returns a conflicting clause or None."""
        while True:
            confl = self._propagate_cnf()
            if confl is not None:
                return confl
            if self.xor_engine is None:
                return None
            confl = self.xor_engine.propagate()
            if confl is not None:
                return confl
            if self.qhead == len(self.trail):
                return None

    def _propagate_cnf(self) -> Optional[Clause]:
        trail, watches, litval = self.trail, self.watches, self.litval
        assign, level, reason = self.assign, self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        confl = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            new_ws: List[Clause] = []
            keep = new_ws.append
            it = iter(watches[p])
            for c in it:
                lits = c.lits
                # Ensure the falsified watch (¬p) sits at position 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                fv = litval[first]
                if fv == TRUE:
                    keep(c)
                    continue
                # Look for a replacement watch.
                for k in range(2, len(lits)):
                    l = lits[k]
                    if litval[l] != FALSE:
                        lits[1] = l
                        lits[k] = false_lit
                        watches[l ^ 1].append(c)
                        break
                else:
                    keep(c)
                    if fv == FALSE:  # every literal false -> conflict
                        confl = c
                        # Keep the remaining watchers and bail out.
                        new_ws.extend(it)
                        break
                    # Unit: enqueue ``first`` (_unchecked_enqueue inlined).
                    v = first >> 1
                    assign[v] = TRUE ^ (first & 1)
                    litval[first] = TRUE
                    litval[first ^ 1] = FALSE
                    level[v] = lvl
                    reason[v] = c
                    trail.append(first)
            watches[p] = new_ws
            if confl is not None:
                break
        self.num_propagations += qhead - self.qhead
        self.qhead = qhead
        return confl

    # -- conflict analysis --------------------------------------------------------

    def _rescale_activities(self) -> None:
        """Scale every activity by 1e-100 and rebuild the heap over the
        unassigned variables, one live entry each."""
        activity, assign = self.activity, self.assign
        for u in range(self.n_vars):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        heap_key = [NO_ENTRY] * self.n_vars
        heap = []
        for u in range(self.n_vars):
            if assign[u] == UNDEF:
                heap_key[u] = activity[u]
                heap.append((-activity[u], u))
        heapq.heapify(heap)
        self._heap, self._heap_key = heap, heap_key

    def _bump_clause(self, c: Clause) -> None:
        c.activity += self.cla_inc
        if c.activity > 1e20:
            for lc in self.learnts:
                lc.activity *= 1e-20
            self.cla_inc *= 1e-20

    def analyze(self, confl: Clause) -> Tuple[List[int], int]:
        """First-UIP conflict analysis.

        Returns ``(learnt_clause, backtrack_level)`` with the asserting
        literal first.
        """
        seen, level, reason = self._seen, self.level, self.reason
        trail, activity = self.trail, self.activity
        var_inc = self.var_inc
        learnt: List[int] = [0]
        counter = 0
        p = -1
        index = len(trail) - 1
        cur_level = len(self.trail_lim)
        reason_side = confl
        while True:
            if reason_side.learnt:
                self._bump_clause(reason_side)
            lits = reason_side.lits
            for j in range(0 if p == -1 else 1, len(lits)):
                q = lits[j]
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    # VSIDS bump.  Every analysed variable is assigned,
                    # so none is due a heap push here; cancel_until
                    # re-queues it at its new activity.
                    activity[v] += var_inc
                    if activity[v] > 1e100:
                        self._rescale_activities()
                        var_inc = self.var_inc
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            v = p >> 1
            reason_side = reason[v]
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
        learnt[0] = p ^ 1

        # Only the non-asserting literals' variables are still marked.
        marked = learnt[1:]
        if self.config.minimize_learnts and marked:
            learnt = self._minimize(learnt, seen)
        for l in marked:
            seen[l >> 1] = False

        # Backtrack level: highest level among the non-asserting literals.
        if len(learnt) == 1:
            bt = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = level[learnt[1] >> 1]
        return learnt, bt

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        """Local clause minimisation: drop literals implied by the rest.

        ``seen`` marks exactly the variables of ``learnt[1:]``.
        """
        reason, level = self.reason, self.level
        out = [learnt[0]]
        for l in learnt[1:]:
            r = reason[l >> 1]
            if r is None:
                out.append(l)
                continue
            neg = l ^ 1
            for q in r.lits:
                if q != neg and not seen[q >> 1] and level[q >> 1] != 0:
                    out.append(l)
                    break
        return out

    # -- learnt database -----------------------------------------------------------

    def _record_learnt(self, lits: List[int]) -> None:
        if self.proof is not None:
            self.proof.add(lits)
        if len(lits) == 1:
            self.cancel_until(0)
            self._unchecked_enqueue(lits[0], None)
            return
        c = Clause(list(lits), learnt=True)
        levels = {self.level[l >> 1] for l in lits}
        c.lbd = len(levels)
        self.learnts.append(c)
        self._attach(c)
        self._bump_clause(c)
        if len(lits) == 2:
            a, b = sorted(lits)
            self.learnt_binaries.add((a, b))
        self._unchecked_enqueue(lits[0], c)

    def reduce_db(self) -> None:
        """Throw away half of the inactive learnt clauses."""
        self.num_reductions += 1
        locked = {id(self.reason[l >> 1]) for l in self.trail if self.reason[l >> 1]}
        self.learnts.sort(key=lambda c: (len(c.lits) <= 2, c.activity))
        keep_from = len(self.learnts) // 2
        kept: List[Clause] = []
        for i, c in enumerate(self.learnts):
            if i >= keep_from or len(c.lits) <= 2 or id(c) in locked:
                kept.append(c)
            else:
                self._detach(c)
                if self.proof is not None:
                    self.proof.delete(c.lits)
        self.learnts = kept

    # -- decisions ----------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        if (
            self._rng is not None
            and self.n_vars
            and self._rng.random() < self.config.random_branch_freq
        ):
            # Diversification: a random unassigned variable breaks the
            # VSIDS tie deterministically per seed.  A few probes keep
            # this O(1); on a miss we fall through to the heap.
            for _ in range(3):
                v = self._rng.randrange(self.n_vars)
                if self.assign[v] == UNDEF:
                    return v
        heap, heap_key = self._heap, self._heap_key
        assign, activity = self.assign, self.activity
        pop = heapq.heappop
        while heap:
            act, v = pop(heap)
            if -act == activity[v]:  # v's live entry, not a stale one
                heap_key[v] = NO_ENTRY
                if assign[v] == UNDEF:
                    return v
        for v in range(self.n_vars):
            if self.assign[v] == UNDEF:
                return v
        return -1

    # -- main search -----------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
    ) -> Optional[bool]:
        """Run CDCL search.

        Returns ``True`` (SAT, with :attr:`model` filled), ``False``
        (UNSAT) or ``None`` when the conflict budget ran out (the paper's
        "undecidable within the limit" case).  The solver always returns
        backtracked to level 0, so level-0 trail literals are valid learnt
        facts afterwards.

        An UNSAT answer under non-empty ``assumptions`` is ambiguous: the
        formula may be globally UNSAT, or merely UNSAT *under this cube*.
        The two are distinguished by :attr:`assumptions_failed`: it is
        True iff the refutation hinged on a falsified assumption literal
        (stored in :attr:`failed_assumption`), in which case the global
        formula may still be satisfiable and :attr:`ok` stays True.  When
        it is False, the UNSAT verdict is unconditional.  Assumptions are
        enqueued as *decisions* (level >= 1), never at level 0, so
        :meth:`level0_literals` only ever reports cube-independent facts.
        """
        self.assumptions_failed = False
        self.failed_assumption = None
        if not self.ok:
            return False
        if self.propagate() is not None:
            self.ok = False
            if self.proof is not None:
                self.proof.add_empty()
            return False
        budget_start = self.num_conflicts
        restart_count = 0
        conflicts_this_restart = 0
        restart_limit = self._restart_limit(restart_count)
        max_learnts = self.config.learnt_keep_base

        while True:
            confl = self.propagate()
            if confl is not None:
                self.num_conflicts += 1
                conflicts_this_restart += 1
                if self.decision_level == 0:
                    self.ok = False
                    if self.proof is not None:
                        self.proof.add_empty()
                    return False
                learnt, bt = self.analyze(confl)
                self.cancel_until(bt)
                self._record_learnt(learnt)
                self.var_inc /= self.config.var_decay
                self.cla_inc /= self.config.clause_decay
                if (
                    conflict_budget is not None
                    and self.num_conflicts - budget_start >= conflict_budget
                ):
                    self.cancel_until(0)
                    return UNKNOWN
                continue

            if conflicts_this_restart >= restart_limit:
                self.num_restarts += 1
                restart_count += 1
                conflicts_this_restart = 0
                restart_limit = self._restart_limit(restart_count)
                self.cancel_until(0)
                continue

            if (
                len(self.learnts)
                > max_learnts + self.config.learnt_keep_step * self.num_reductions
            ):
                self.reduce_db()

            # Apply assumptions, then decide.
            next_lit = None
            for a in assumptions:
                val = self.value_lit(a)
                if val == TRUE:
                    continue
                if val == FALSE:
                    # UNSAT relative to the cube only: ¬a is implied by
                    # the formula plus the *earlier* assumptions.  The
                    # global formula may still be SAT, so self.ok is left
                    # untouched and the failure is signalled instead.
                    self.assumptions_failed = True
                    self.failed_assumption = a
                    self.cancel_until(0)
                    return UNSAT
                next_lit = a
                break
            if next_lit is None:
                v = self._pick_branch_var()
                if v == -1:
                    self.model = [self.assign[u] for u in range(self.n_vars)]
                    self.cancel_until(0)
                    return SAT
                next_lit = (v << 1) | (0 if self.polarity[v] else 1)
            self.num_decisions += 1
            self.trail_lim.append(len(self.trail))
            self._unchecked_enqueue(next_lit, None)

    def _restart_limit(self, count: int) -> int:
        if self.config.use_luby:
            return self.config.restart_base * luby(count + 1)
        return int(self.config.restart_base * (1.1 ** count))

    # -- learnt-fact harvesting (Bosphorus API) ------------------------------------

    def level0_literals(self) -> List[int]:
        """Literals the solver has proven at decision level 0.

        These are the paper's "unit learnt clauses": facts that hold in
        every model and can be fed back into the ANF.
        """
        bound = self.trail_lim[0] if self.trail_lim else len(self.trail)
        return list(self.trail[:bound])

    def learnt_binary_clauses(self) -> List[Tuple[int, int]]:
        """All binary clauses ever learnt (survives DB reduction)."""
        return sorted(self.learnt_binaries)
