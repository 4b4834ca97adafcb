"""Disjunctive logic programming under the stable model semantics.

This subpackage plays the role of **clingo** in the paper's experiments:
the monolithic and segmentary XR-Certain engines both hand their programs
to this solver.

Pipeline:

- :mod:`repro.asp.syntax`    — non-ground rules, ground programs, atom table;
- :mod:`repro.asp.grounder`  — relevance-driven bottom-up grounding;
- :mod:`repro.asp.sat`       — a CDCL SAT solver (watched literals, VSIDS,
  first-UIP learning, restarts, phase saving);
- :mod:`repro.asp.stable`    — stable models of ground disjunctive programs
  (generate-and-test with a SAT minimality check; head-cycle-free programs
  are shifted to normal rules and checked with least-model-of-reduct plus
  ASSAT-style loop refinement);
- :mod:`repro.asp.reasoning` — cautious and brave consequences of a batch
  of goal atoms, decided on one engine (:func:`decide_family`).
"""

from repro.asp.syntax import (
    AtomTable,
    Comparison,
    GroundProgram,
    GroundRule,
    Rule,
)
from repro.asp.grounder import ground
from repro.asp.sat import SatSolver
from repro.asp.stable import StableModelEngine, is_head_cycle_free, shift_disjunctions
from repro.asp.reasoning import FamilyVerdicts, decide_family

__all__ = [
    "AtomTable",
    "Comparison",
    "GroundProgram",
    "GroundRule",
    "Rule",
    "ground",
    "SatSolver",
    "StableModelEngine",
    "is_head_cycle_free",
    "shift_disjunctions",
    "FamilyVerdicts",
    "decide_family",
]
