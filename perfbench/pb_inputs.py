"""Seeded inputs for every workload.

Every instance is drawn from a ``random.Random`` stream derived from the
workload seed and the instance's index, so one seed always gives the
same list and a second seed gives a different draw from the same family.
Every instance is satisfiable by construction and carries its witness:
Simon key recovery by the key that made the ciphertexts, planted 3-SAT
by its planted assignment.  The benchmark checks every model the program
returns against the original problem (:mod:`pb_check`), so a wrong SAT
answer, and an UNSAT answer on any instance, is caught.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

#: Key bits of Simon32/64 (four 16-bit words, bit ``16 * w + b``).
KEY_BITS = 64


@dataclass
class Instance:
    """One problem and how to check the program's answer to it."""

    name: str
    fmt: str  # "anf" or "cnf"
    ring: object = None  # repro Ring (anf)
    polys: list = field(default_factory=list)  # repro Poly list (anf)
    formula: object = None  # repro CnfFormula (cnf)
    check: list = field(default_factory=list)  # monomial or clause lists
    n_vars: int = 0

    def text(self) -> str:
        """The problem in the program's input format, written here."""
        if self.fmt == "anf":
            lines = []
            for poly in self.check:
                terms = [
                    "*".join("x{}".format(v) for v in m) if m else "1"
                    for m in sorted(poly, key=lambda m: (len(m), m))
                ]
                lines.append(" + ".join(terms) if terms else "0")
            return "\n".join(lines) + "\n"
        lines = ["p cnf {} {}".format(self.n_vars, len(self.check))]
        for clause in self.check:
            lits = [str((l >> 1) + 1) if not l & 1 else str(-((l >> 1) + 1))
                    for l in clause]
            lines.append(" ".join(lits + ["0"]))
        return "\n".join(lines) + "\n"


def simon(rng: random.Random, plaintexts: int, rounds: int,
          free: Sequence[int]) -> Instance:
    """Simon32/64 key recovery with the key bits in ``free`` unknown and
    every other key bit fixed to the witness key."""
    from repro.anf.polynomial import Poly
    from repro.ciphers import simon as cipher

    key = [rng.getrandbits(16) for _ in range(4)]
    inst = cipher.encode_instance(
        cipher.sp_rc_plaintexts(plaintexts, rng), key, rounds
    )
    polys = list(inst.polynomials)
    free = set(free)
    for var in range(KEY_BITS):
        if var not in free:
            polys.append(Poly.variable(var).add_constant(inst.witness[var]))
    return Instance(
        name="simon-{}-{}-free{}".format(plaintexts, rounds, len(free)),
        fmt="anf", ring=inst.ring, polys=polys,
        check=[list(p) for p in polys], n_vars=inst.ring.n_vars,
    )


#: simon-cdcl: Simon-[4,6] with the low 30 key bits free.  Every
#: calibration draw ran its first 2000-conflict SAT call out and was
#: solved by the second, after 2000-2620 conflicts in all: the work per
#: instance is nearly fixed, so what moves a run's median is the program,
#: not the draw.  With 32 free the second call needs anywhere from 100 to
#: 2600 more conflicts; with 28 free the first call finds the key after
#: anywhere from 150 to 2000 (PROVENANCE.md).
CDCL_FREE = tuple(range(30))


def simon_cdcl(rng: random.Random) -> Instance:
    return simon(rng, 4, 6, CDCL_FREE)


def simon_algebra(rng: random.Random) -> Instance:
    """Simon-[4,5] with the full key free."""
    return simon(rng, 4, 5, range(KEY_BITS))


#: Planted 3-SAT size range and clause ratio for the DIMACS inputs.
PLANTED_VARS = (48, 56)
PLANTED_RATIO = 4.1


def planted(rng: random.Random) -> Instance:
    """Planted 3-SAT near the threshold: satisfiable by its planted
    assignment, but hard enough that the inner SAT step must search."""
    from repro.satcomp import generators as g

    n = rng.randint(*PLANTED_VARS)
    formula, _ = g.planted_ksat(n, int(n * PLANTED_RATIO), 3,
                                seed=rng.getrandbits(31))
    return Instance(name="planted-{}".format(n), fmt="cnf", formula=formula,
                    check=[list(c) for c in formula.clauses],
                    n_vars=formula.n_vars)


@dataclass
class Job:
    """One served job: the segment it belongs to, its send time offset
    from that segment's start, and its instance."""

    segment: int
    due: float
    instance: Instance
    repeat: bool


#: serve-open mix: every DIMACS_EVERY-th job is a planted 3-SAT DIMACS
#: job, and every REPEAT_EVERY-th ANF job repeats an earlier ANF system;
#: the rest are first sightings of Simon-[4,5] systems.
DIMACS_EVERY = 4
REPEAT_EVERY = 3


def serve_schedule(rng: random.Random, count: int, rate: float,
                   segments: int) -> List[Job]:
    """``count`` jobs offered at ``rate`` jobs/s, in ``segments`` equal
    segments.

    Within a segment the due times are sorted uniform draws over the
    segment's length -- a Poisson process conditioned on its count -- so
    every run offers the same number of jobs at the same mean rate.
    """
    jobs: List[Job] = []
    seen: List[Instance] = []
    n_anf = 0
    for seg in range(segments):
        n = count * (seg + 1) // segments - count * seg // segments
        for due in sorted(rng.uniform(0, n / rate) for _ in range(n)):
            if len(jobs) % DIMACS_EVERY == DIMACS_EVERY - 1:
                inst, repeat = planted(rng), False
            elif seen and n_anf % REPEAT_EVERY == REPEAT_EVERY - 1:
                inst, repeat = rng.choice(seen), True
                n_anf += 1
            else:
                inst = simon_algebra(rng)
                seen.append(inst)
                repeat = False
                n_anf += 1
            jobs.append(Job(seg, due, inst, repeat))
    return jobs
