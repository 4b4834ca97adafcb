"""Deterministic workload inputs: everything the program is handed.

Each workload turns its ``--seed`` into text only — a rendered mapping, a
rendered source instance, query texts, a pool of update facts and, for
``serve-rw``, an arrival schedule (serve-rw's data set is fixed; its seed
draws the traffic).  The same seed gives byte-identical
inputs in any process and under any ``PYTHONHASHSEED``: every draw comes
from a ``random.Random`` seeded with an int or a string (string seeds are
hashed with SHA-512, not ``hash()``), and every rendering is sorted.

Instances are drawn from the repository's generators with a generator
seed ``g``: the first, in a sequence derived from the run seed, whose
injected conflicts have a fixed structure.  For TPC-H that is having no
conflict in the region and nation tables; serve-rw's one data set is a
genomics instance in which no gene holds two conflicted transcripts.
Fixing the structure keeps seeds comparable while every TPC-H seed still
yields a different instance.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from itertools import count

WORKLOADS = ("tpch-sf1", "serve-rw")

#: Open-loop arrival rate of serve-rw queries, and its update cadence.
#: Each update makes the following reads re-solve about 0.7 s of work; at
#: 12 req/s the median read sat where a slower stretch of the host tipped
#: the server into a backlog (p50 tripled).
SERVE_RATE_PER_S = 8.0
SERVE_UPDATE_EVERY_S = 5.0
#: Update facts per workload: serve-rw cycles through them, tpch-sf1
#: retracts and re-inserts each once per pass.
POOL_SIZE = 3

TPCH_QUERIES = (
    ("qon", "qon(o, rk) :- order_nation(o, nk, rk)."),
    ("qcust", "qcust(c, n) :- t_customer(c, cn, n, m)."),
    ("qls", "qls(o, s, n) :- line_supply(o, p, s, av), t_supplier(s, sn, n)."),
    ("qoc", "qoc(o, st, nk) :- t_orders(o, c, st), order_customer(o, c, nk)."),
)

#: serve-rw's genomics instance: 100 transcripts, 9% suspect.
SERVE_SUSPECT_FRACTION = 0.09


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs, as text."""

    workload: str
    seed: int
    generator_seed: int
    mapping: str
    data: str
    queries: tuple[tuple[str, str], ...]
    modes: tuple[str, ...]
    pool: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Inputs":
        raw = json.loads(text)
        raw["queries"] = tuple(tuple(pair) for pair in raw["queries"])
        raw["modes"] = tuple(raw["modes"])
        raw["pool"] = tuple(raw["pool"])
        return cls(**raw)

    def sha256(self) -> str:
        """Hash of what the program is handed (not of the seeds)."""
        handed = {
            key: value for key, value in asdict(self).items()
            if key not in ("seed", "generator_seed")
        }
        return hashlib.sha256(
            json.dumps(handed, sort_keys=True).encode("utf-8")
        ).hexdigest()


def _render_fact(fact) -> str:
    from repro.fuzz.render import render_instance
    from repro.relational.instance import Instance

    return render_instance(Instance([fact]))


def _conflicts_by_gene(generated, isoforms_per_gene: int) -> dict[int, list[str]]:
    genes: dict[int, list[str]] = defaultdict(list)
    for kg_id in generated.conflicted_transcripts:
        genes[int(kg_id[2:]) // isoforms_per_gene].append(kg_id)
    return genes


def _derived_seeds(workload: str, seed: int):
    for attempt in count():
        digest = hashlib.sha256(f"{workload}:{seed}:{attempt}".encode()).digest()
        yield int.from_bytes(digest[:4], "big")


def _serve_data() -> Inputs:
    """serve-rw's data set: the first derived genomics instance in which
    no gene holds two conflicted transcripts (so violation clusters do
    not merge into families), and a pool of three exon conflicts."""
    from repro.fuzz.render import render_instance, render_mapping
    from repro.genomics.generator import GenomeDataGenerator, GeneratorConfig
    from repro.genomics.queries import QUERY_SUITE, query_text_by_name
    from repro.genomics.schema import genome_mapping

    for attempt, generator_seed in enumerate(_derived_seeds("serve-rw", 0)):
        if attempt == 10_000:
            raise RuntimeError("no serve-rw instance without shared genes")
        config = GeneratorConfig(
            transcripts=100, suspect_fraction=SERVE_SUSPECT_FRACTION,
            seed=generator_seed,
        )
        generated = GenomeDataGenerator(config).generate()
        genes = _conflicts_by_gene(generated, config.isoforms_per_gene)
        if all(len(ids) == 1 for ids in genes.values()):
            break
    # The pool: the RefSeq rows of three exon-conflicted transcripts.
    # (Symbol conflicts are left out: re-inserting one mints fresh cluster
    # ids and re-solves about 3x more than an exon conflict does.)
    exon = set(generated.exon_conflicts)
    alone = sorted(ids[0] for ids in genes.values() if ids[0] in exon)
    chosen = random.Random("pool:serve-rw:0").sample(alone, POOL_SIZE)
    by_key = {(f.relation, f.args[0]): f for f in generated.instance}
    pool = tuple(
        _render_fact(by_key[("RefSeqTranscript", f"NM_{int(t[2:]):06d}")])
        for t in chosen
    )
    return Inputs(
        workload="serve-rw",
        seed=0,
        generator_seed=generator_seed,
        mapping=render_mapping(genome_mapping()),
        data=render_instance(generated.instance),
        queries=tuple((name, query_text_by_name(name)) for name in QUERY_SUITE),
        modes=("certain", "possible"),
        pool=pool,
    )


def _tpch(seed: int) -> Inputs:
    from repro.fuzz.render import render_instance, render_mapping
    from repro.scenarios.tpch import tpch_scenario

    # A duplicate region or nation row makes every customer and supplier
    # under it suspect, which doubles the query phase; 54% of seeds have
    # none, and the benchmark draws only from those.
    for attempt, generator_seed in enumerate(_derived_seeds("tpch-sf1", seed)):
        if attempt == 1_000:
            raise RuntimeError("no tpch-sf1 instance without dimension conflicts")
        scenario = tpch_scenario(1.0, 0.02, seed=generator_seed)
        if not any(f.relation in ("region", "nation") for f in scenario.injected):
            break
    # Injected duplicate orders only, so every seed's updates do alike work.
    injected = sorted((f for f in scenario.injected if f.relation == "orders"), key=repr)
    chosen = random.Random(f"pool:tpch-sf1:{seed}").sample(injected, POOL_SIZE)
    return Inputs(
        workload="tpch-sf1",
        seed=seed,
        generator_seed=generator_seed,
        mapping=render_mapping(scenario.mapping),
        data=render_instance(scenario.instance),
        queries=TPCH_QUERIES,
        modes=("certain",),
        pool=tuple(_render_fact(fact) for fact in chosen),
    )


def generate(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed``."""
    if workload == "tpch-sf1":
        return _tpch(seed)
    if workload == "serve-rw":
        # One fixed data set and pool; the seed drives the traffic
        # (serve_schedule).  With per-seed data, how many reads a write
        # forces to re-solve varied ~2x between seeds, which swamped the
        # latency metrics.
        return replace(_serve_data(), seed=seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ------------------------------------------------------------ serve-rw


def serve_bodies(inputs: Inputs) -> list[tuple[str, str, bytes]]:
    """``(query name, mode, /query body)`` for every query × mode."""
    return [
        (name, mode, json.dumps({"query": text, "mode": mode}).encode("utf-8"))
        for name, text in inputs.queries
        for mode in inputs.modes
    ]


def update_body(inputs: Inputs, number: int) -> bytes:
    """The ``/update`` body of the ``number``-th update (1-based).

    Update ``n`` re-inserts the pool fact update ``n - 1`` retracted and
    retracts the next one, in one step, so the server cycles through
    ``POOL_SIZE + 1`` database states (see :func:`state_after`).
    """
    lines = []
    if number > 1:
        lines.append("+" + inputs.pool[(number - 2) % POOL_SIZE])
    lines.append("-" + inputs.pool[(number - 1) % POOL_SIZE])
    return json.dumps({"updates": "\n".join(lines) + "\n"}).encode("utf-8")


def state_after(updates_applied: int) -> int:
    """Database state after ``updates_applied`` updates: 0 is the
    generated instance, ``i`` in 1..POOL_SIZE lacks pool fact ``i - 1``."""
    if updates_applied == 0:
        return 0
    return (updates_applied - 1) % POOL_SIZE + 1


@dataclass(frozen=True)
class Event:
    """One scheduled operation: a query body or the ``number``-th update."""

    at: float
    kind: str  # "query" | "update"
    index: int


def serve_schedule(seed: int, seconds: float, bodies: int) -> list[Event]:
    """Poisson query arrivals at ``SERVE_RATE_PER_S`` over ``bodies``
    request bodies, plus one update every ``SERVE_UPDATE_EVERY_S``, over
    ``[0, seconds)``, in time order.

    Bodies are dealt in shuffled rounds that hold each body once: every
    arrival is equally likely to be any body, and every seed asks for each
    body equally often (within one), because the bodies' latencies differ
    by 10x and an uneven mix would move the median between seeds.
    """
    rng = random.Random(f"schedule:serve-rw:{seed}")
    events: list[Event] = []
    deck: list[int] = []
    at = rng.expovariate(SERVE_RATE_PER_S)
    while at < seconds:
        if not deck:
            deck = list(range(bodies))
            rng.shuffle(deck)
        events.append(Event(at, "query", deck.pop()))
        at += rng.expovariate(SERVE_RATE_PER_S)
    number = 1
    while number * SERVE_UPDATE_EVERY_S < seconds:
        events.append(Event(number * SERVE_UPDATE_EVERY_S, "update", number))
        number += 1
    events.sort(key=lambda event: (event.at, event.kind))
    return events
