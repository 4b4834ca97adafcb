"""Bit-identity golden for the family program builder.

Every family program the segmentary engine builds on two fixed scenarios —
TPC-H SF 0.01 r0.2 seed 0 and genomics S3; the repair encoding in certain
and possible mode, the literal Figure 1 encoding in certain mode — is
hashed (rule tuples in order, the atom table in id order, the query atoms
and the trivially-certain set) and compared with
``tests/corpus/family_programs.golden.json``.  Rule order and atom
numbering steer the solver's search, so a builder rewrite must reproduce
these programs exactly, not just the answers.

Nothing a program sees depends on ``Fact`` hashes, which are salted per
interpreter: the exchange interns in canonical order and the query phase
sorts the unsafe candidates and their supports, so any hash seed records
the same file (CI checks seeds 1 and 2).  The recording still runs in a
subprocess with ``PYTHONHASHSEED=0``.  Regenerate (only for an intended
encoding or ordering change) with::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.test_xr.test_program_golden \\
        > tests/corpus/family_programs.golden.json
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
GOLDEN = REPO / "tests" / "corpus" / "family_programs.golden.json"

TPCH_QUERIES = (
    "qon(o, rk) :- order_nation(o, nk, rk).",
    "qcust(c, n) :- t_customer(c, cn, n, m).",
    "qls(o, s, n) :- line_supply(o, p, s, av), t_supplier(s, sn, n).",
    "qoc(o, st, nk) :- t_orders(o, c, st), order_customer(o, c, nk).",
)
#: (encoding, mode) pairs recorded per scenario: both builders are pinned.
RUNS = (("repair", "certain"), ("repair", "possible"), ("figure1", "certain"))


def program_digest(xr_program) -> str:
    """sha256 over everything of a built program the solver can observe."""
    digest = hashlib.sha256()
    program = xr_program.program
    for rule in program.rules:
        digest.update(repr((rule.head, rule.body_pos, rule.body_neg)).encode())
    digest.update(b"|atoms|")
    for atom_id in program.atoms.ids():
        digest.update(repr(program.atoms.fact_of(atom_id)).encode() + b"\n")
    digest.update(b"|query|")
    digest.update(
        repr(sorted((repr(f), a) for f, a in xr_program.query_atoms.items()))
        .encode()
    )
    digest.update(b"|trivial|")
    digest.update(
        repr(sorted(repr(f) for f in xr_program.trivially_certain)).encode()
    )
    return digest.hexdigest()


def record() -> dict[str, dict]:
    """Digest every family program (in build order) and every answer set."""
    import repro.xr.segmentary as segmentary
    from repro import SegmentaryEngine, parse_query
    from repro.genomics import build_instance, genome_mapping
    from repro.genomics.queries import all_queries
    from repro.scenarios.tpch import tpch_scenario

    built: list[str] = []
    original = segmentary.build_family_program

    def spy(*args, **kwargs):
        xr_program = original(*args, **kwargs)
        built.append(program_digest(xr_program))
        return xr_program

    tpch = tpch_scenario(0.01, 0.2, 0)
    genomics = build_instance("S3")
    scenarios = {
        "tpch-sf0.01-r0.2-seed0": (
            tpch.mapping, tpch.instance,
            [parse_query(text) for text in TPCH_QUERIES],
        ),
        "genomics-S3": (
            genome_mapping(), genomics.instance,
            [query for _name, query in all_queries()],
        ),
    }
    recorded: dict[str, dict] = {}
    segmentary.build_family_program = spy
    try:
        for name, (mapping, instance, queries) in scenarios.items():
            for encoding, mode in RUNS:
                engine = SegmentaryEngine(
                    mapping, instance, encoding=encoding, cache=False
                )
                built.clear()
                answers = [
                    sorted(map(repr, engine.answer_with_stats(q, mode=mode)[0]))
                    for q in queries
                ]
                engine.close()
                recorded[f"{name}/{encoding}/{mode}"] = {
                    "programs": list(built),
                    "answers": hashlib.sha256(
                        repr(answers).encode()
                    ).hexdigest(),
                }
    finally:
        segmentary.build_family_program = original
    return recorded


def test_family_programs_match_golden():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "tests.test_xr.test_program_golden"],
        capture_output=True, text=True, env=env, cwd=REPO, check=True,
    )
    recorded = json.loads(result.stdout)
    golden = json.loads(GOLDEN.read_text())
    assert sorted(recorded) == sorted(golden)
    for key, expected in golden.items():
        assert expected["programs"], f"{key}: golden records no family"
        assert recorded[key]["answers"] == expected["answers"], key
        assert recorded[key]["programs"] == expected["programs"], key


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
