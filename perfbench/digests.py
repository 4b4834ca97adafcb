"""Answer digests: the benchmark's correctness gate.

A digest is the SHA-256 (first 128 bits, hex) of an answer set's canonical
rows: each row as the list of its values' ``repr``, rows sorted, JSON with
no spaces.  ``digests.json`` holds them per workload and seed, keyed
``mode/query`` for batch workloads and ``mode/query/state`` for serve-rw,
with the SHA-256 of the inputs they were computed from.

The default digests come from one default engine, walking serve-rw's
states through its update session as the server does.  Recorded digests
were cross-checked, when recorded, against the reference paths
(``solve_strategy="per-signature"``, ``exchange_strategy="tuple"``, no
cache), each database state exchanged from scratch.  Record more seeds
with::

    python3 perfbench/digests.py --workload tpch-sf1 --seeds 11-19
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def rows_digest(rows) -> str:
    """Digest of an answer set given as tuples of values."""
    return serialized_digest([[repr(value) for value in row] for row in rows])


def serialized_digest(rows: list[list[str]]) -> str:
    """Digest of rows already serialized as lists of ``repr`` strings."""
    canonical = json.dumps(sorted(rows), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def _states(inputs, reduced, reference: bool):
    """``(state, engine)`` for each database state the workload visits.

    The reference exchanges every state from scratch on the reference
    paths; the default path walks the states the way the server does,
    through the update session of one default engine.
    """
    from repro.incremental.delta import parse_update_stream
    from repro.parser import parse_instance
    from repro.xr.segmentary import SegmentaryEngine

    from perfbench.workloads import POOL_SIZE, update_body

    count = POOL_SIZE + 1 if inputs.workload == "serve-rw" else 1
    if reference:
        for state in range(count):
            instance = parse_instance(inputs.data)
            if state:
                (fact,) = parse_instance(inputs.pool[state - 1])
                instance.discard(fact)
            with SegmentaryEngine(
                reduced, instance, solve_strategy="per-signature",
                exchange_strategy="tuple", cache=False,
            ) as engine:
                yield state, engine
        return
    with SegmentaryEngine(reduced, parse_instance(inputs.data)) as engine:
        session = engine.update_session()
        for state in range(count):
            if state:
                text = json.loads(update_body(inputs, state))["updates"]
                for delta in parse_update_stream(text):
                    session.apply(delta)
            yield state, engine


def compute(inputs, reference: bool = False) -> dict[str, str]:
    """Every digest the workload checks: per query and mode, and for
    serve-rw per database state."""
    from repro.parser import parse_mapping, parse_program
    from repro.reduction import reduce_mapping

    reduced = reduce_mapping(parse_mapping(inputs.mapping))
    serve = inputs.workload == "serve-rw"
    digests = {}
    for state, engine in _states(inputs, reduced, reference):
        for name, text in inputs.queries:
            query = parse_program(text)
            for mode in inputs.modes:
                answers, stats = engine.answer_with_stats(query, mode=mode)
                if stats.degraded:
                    raise RuntimeError(f"{name}/{mode}: degraded answer")
                key = f"{mode}/{name}" + (f"/{state}" if serve else "")
                digests[key] = rows_digest(answers)
    return digests


def recorded(inputs) -> dict[str, str] | None:
    """The recorded digests of these exact inputs, or None."""
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text())
    handed = inputs.sha256()
    return next(
        (
            entry["digests"]
            for entry in table.get(inputs.workload, {}).values()
            if entry["inputs_sha256"] == handed
        ),
        None,
    )


def _store(workload: str, seed: int, entry: dict) -> None:
    """Add one seed's entry to ``digests.json``."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = entry
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def record(workload: str, seeds: list[int]) -> int:
    from perfbench.workloads import generate

    for seed in seeds:
        inputs = generate(workload, seed)
        digests = compute(inputs)
        reference = compute(inputs, reference=True)
        if digests != reference:
            differing = sorted(k for k in digests if digests[k] != reference.get(k))
            print(f"{workload} seed {seed}: reference paths disagree on "
                  f"{differing}", file=sys.stderr)
            return 1
        _store(workload, seed, {"inputs_sha256": inputs.sha256(), "digests": digests})
        print(f"{workload} seed {seed}: {len(digests)} digests recorded", flush=True)
    return 0


def seed_range(text: str) -> list[int]:
    """``'0-19'`` → ``[0, ..., 19]``; ``'7'`` → ``[7]``."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="inclusive range such as 0-19")
    arguments = parser.parse_args(argv)
    return record(arguments.workload, arguments.seeds)


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]
    sys.exit(main())
