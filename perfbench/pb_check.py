"""The benchmark's own verdict checks, independent of the program.

ANF systems are held as lists of monomials (tuples of variable indices,
``()`` for the constant 1); CNF formulas as lists of encoded literals
(``2 * var + negated``).  A SAT model is accepted only if it satisfies
every equation or clause of the *original* input under this module's
evaluation.  Every benchmark instance is satisfiable, so an UNSAT
verdict is always wrong.
"""

from __future__ import annotations

from typing import List, Sequence

Anf = List[List[tuple]]
Cnf = List[List[int]]


def anf_satisfied(polys: Anf, model: Sequence[int]) -> bool:
    """True iff every polynomial evaluates to 0 under ``model``."""
    for poly in polys:
        acc = 0
        for monomial in poly:
            term = 1
            for var in monomial:
                if var >= len(model) or not model[var]:
                    term = 0
                    break
            acc ^= term
        if acc:
            return False
    return True


def cnf_satisfied(clauses: Cnf, model: Sequence[int]) -> bool:
    """True iff every clause has a literal made true by ``model``."""
    for clause in clauses:
        for lit in clause:
            var = lit >> 1
            if var < len(model) and (1 if model[var] else 0) ^ (lit & 1):
                break
        else:
            return False
    return True
