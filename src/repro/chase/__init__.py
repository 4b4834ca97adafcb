"""Chase procedures.

- :mod:`repro.chase.batch` — the join engine of the pipeline: set-at-a-time
  hash joins for the semi-naive GAV chase (skolem-term heads included, as
  produced by the Theorem 1 reduction), grounding and violation
  enumeration, the delta-chase, query grounding and the ASP grounder.
- :mod:`repro.chase.standard` — the standard chase for ``glav+(wa-glav, egd)``
  mappings: tgd steps invent labelled nulls, egd steps unify values (failing
  on two distinct constants).  Produces the canonical universal solution when
  it succeeds.  Used by the naive oracle, solution-existence checks, and
  tests.
- :mod:`repro.chase.gav` — the nested-loop reference exchange the batch
  operators are tested against (test-only; see its docstring).
"""

from repro.chase.result import ChaseResult
from repro.chase.standard import (
    canonical_universal_solution,
    has_solution,
    standard_chase,
)
from repro.chase.gav import enumerate_groundings, gav_chase

__all__ = [
    "ChaseResult",
    "standard_chase",
    "canonical_universal_solution",
    "has_solution",
    "gav_chase",
    "enumerate_groundings",
]
