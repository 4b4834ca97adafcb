"""A TPC-H-style scenario family with seeded violation injection.

A miniature TPC-H schema (region/nation/supplier/customer/part/partsupp/
orders/lineitem) is exchanged into a target star: one copy tgd per source
relation, two denormalization **join** tgds (``order_customer``,
``line_supply``), and one target-side join tgd (``order_nation``) so the
chase needs more than one round.  Key egds on the single-key targets make
injected duplicates visible as violations — and, through the join tgds,
propagate them across relations.

Instances are generated on a ``scale factor × violation-injection ratio ×
seed`` grid, mirroring the related repo's ``inject_violations.py`` design:
base cardinalities are TPC-H SF 1 numbers scaled linearly (with small
floors), and a ``ratio`` fraction of the rows of each keyed relation gets
a competing duplicate — same key, one non-key attribute altered.  The
generator is a **pure function** of ``(scale, ratio, seed)``: every draw
comes from one ``random.Random(f"tpch:{scale}:{ratio}:{seed}")``, so the
same cell is byte-identical across runs, processes, and ``--jobs`` fans.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.dependencies.egds import EGD
from repro.dependencies.mapping import SchemaMapping
from repro.dependencies.tgds import TGD
from repro.relational.instance import Fact, Instance
from repro.relational.queries import Atom
from repro.relational.schema import RelationSymbol, Schema
from repro.relational.terms import Variable

# Fuzz-profile cells stay tiny (differential runs solve stable models per
# cluster); the benchmark grid goes up to SF 0.01-0.1.
TPCH_FUZZ_SCALES = (0.002, 0.003, 0.005)
TPCH_FUZZ_RATIOS = (0.0, 0.2, 0.5)

# (name, arity, SF-1 cardinality, floor).  Arities cover key + payload.
_SOURCES = (
    ("region", 2, 5, 1),
    ("nation", 3, 25, 2),
    ("supplier", 3, 1000, 2),
    ("customer", 4, 1500, 2),
    ("part", 3, 2000, 2),
    ("partsupp", 3, 3000, 2),
    ("orders", 3, 3000, 2),
    ("lineitem", 4, 6000, 3),
)

# Relations with a single-attribute key (position 0) that receive both
# injected duplicates and target key egds.  partsupp/lineitem have
# composite keys and are left unkeyed (duplicating them would not violate
# anything our egds express).
_KEYED = ("region", "nation", "supplier", "customer", "part", "orders")


def _vars(prefix: str, count: int) -> list[Variable]:
    return [Variable(f"{prefix}{i}") for i in range(count)]


def _key_egds(relation: str, arity: int, tag: str) -> list[EGD]:
    """Key on position 0: one egd per dependent attribute."""
    first = _vars("a", arity)
    second = [first[0]] + _vars("b", arity - 1)
    return [
        EGD(
            [Atom(relation, first), Atom(relation, second)],
            first[position],
            second[position],
            label=f"key_{tag}_{position}",
        )
        for position in range(1, arity)
    ]


def tpch_mapping() -> SchemaMapping:
    """The fixed mini-TPC-H schema mapping (instance-independent)."""
    source_rels = [RelationSymbol(name, arity) for name, arity, _n, _f in _SOURCES]
    target_rels = [
        RelationSymbol(f"t_{name}", arity) for name, arity, _n, _f in _SOURCES
    ]
    st_tgds = []
    for name, arity, _n, _f in _SOURCES:
        xs = _vars("x", arity)
        st_tgds.append(
            TGD([Atom(name, xs)], [Atom(f"t_{name}", xs)], label=f"copy_{name}")
        )

    o, c, status = Variable("o"), Variable("c"), Variable("st")
    nk, cname, mkt = Variable("nk"), Variable("cn"), Variable("mk")
    # orders ⋈ customer → order_customer(orderkey, custkey, nationkey)
    order_customer = RelationSymbol("order_customer", 3)
    st_tgds.append(
        TGD(
            [Atom("orders", [o, c, status]), Atom("customer", [c, cname, nk, mkt])],
            [Atom("order_customer", [o, c, nk])],
            label="join_order_customer",
        )
    )
    # lineitem ⋈ partsupp → line_supply(orderkey, partkey, suppkey, availqty)
    p, s, qty, avail = Variable("p"), Variable("s"), Variable("q"), Variable("av")
    line_supply = RelationSymbol("line_supply", 4)
    st_tgds.append(
        TGD(
            [Atom("lineitem", [o, p, s, qty]), Atom("partsupp", [p, s, avail])],
            [Atom("line_supply", [o, p, s, avail])],
            label="join_line_supply",
        )
    )
    # Target-side join (round 2 of the chase):
    # order_customer ⋈ t_nation → order_nation(orderkey, nationkey, regionkey)
    nname, rk = Variable("nn"), Variable("rk")
    order_nation = RelationSymbol("order_nation", 3)
    target_tgds = [
        TGD(
            [Atom("order_customer", [o, c, nk]), Atom("t_nation", [nk, nname, rk])],
            [Atom("order_nation", [o, nk, rk])],
            label="join_order_nation",
        )
    ]

    target_egds = []
    for name, arity, _n, _f in _SOURCES:
        if name in _KEYED:
            target_egds.extend(_key_egds(f"t_{name}", arity, name))
    target_egds.extend(_key_egds("order_customer", 3, "order_customer"))
    target_egds.extend(_key_egds("order_nation", 3, "order_nation"))

    return SchemaMapping(
        Schema(source_rels),
        Schema(target_rels + [order_customer, line_supply, order_nation]),
        st_tgds,
        target_tgds,
        target_egds,
    )


@dataclass(frozen=True)
class TPCHScenario:
    """One grid cell: the mapping, the instance, and what was injected."""

    mapping: SchemaMapping
    instance: Instance
    # The duplicate rows added by violation injection (subset of instance).
    injected: tuple[Fact, ...]
    scale: float
    ratio: float
    seed: int
    label: str


def _cardinality(base: int, floor: int, scale: float) -> int:
    return max(floor, round(base * scale))


def tpch_scenario(scale: float, ratio: float, seed: int) -> TPCHScenario:
    """Generate the ``(scale, ratio, seed)`` cell of the TPC-H grid.

    Deterministic: one seeded RNG drives every draw, in a fixed relation
    order, so the returned instance (and the injected-violation set) is
    byte-identical for the same cell regardless of process or parallelism.
    """
    if scale <= 0:
        raise ValueError("scale factor must be positive")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("violation-injection ratio must be in [0, 1]")
    rng = random.Random(f"tpch:{scale}:{ratio}:{seed}")
    counts = {
        name: _cardinality(base, floor, scale)
        for name, _arity, base, floor in _SOURCES
    }
    keys = {name: [f"{name[0]}{i}" for i in range(counts[name])] for name in counts}

    rows: dict[str, list[list[str]]] = {}
    rows["region"] = [[k, f"region_{k}"] for k in keys["region"]]
    rows["nation"] = [
        [k, f"nation_{k}", rng.choice(keys["region"])] for k in keys["nation"]
    ]
    rows["supplier"] = [
        [k, f"supplier_{k}", rng.choice(keys["nation"])] for k in keys["supplier"]
    ]
    rows["customer"] = [
        [
            k,
            f"customer_{k}",
            rng.choice(keys["nation"]),
            rng.choice(("building", "machinery", "household")),
        ]
        for k in keys["customer"]
    ]
    rows["part"] = [
        [k, f"part_{k}", f"brand_{rng.randint(1, 5)}"] for k in keys["part"]
    ]
    seen_ps: set[tuple[str, str]] = set()
    rows["partsupp"] = []
    for _ in range(counts["partsupp"]):
        pair = (rng.choice(keys["part"]), rng.choice(keys["supplier"]))
        if pair not in seen_ps:
            seen_ps.add(pair)
            rows["partsupp"].append([pair[0], pair[1], str(rng.randint(1, 999))])
    rows["orders"] = [
        [k, rng.choice(keys["customer"]), rng.choice(("O", "F", "P"))]
        for k in keys["orders"]
    ]
    rows["lineitem"] = []
    for _ in range(counts["lineitem"]):
        if rows["partsupp"]:
            part_key, supp_key, _avail = rng.choice(rows["partsupp"])
        else:  # pragma: no cover - partsupp floor is 2
            part_key, supp_key = rng.choice(keys["part"]), rng.choice(keys["supplier"])
        rows["lineitem"].append(
            [rng.choice(keys["orders"]), part_key, supp_key, str(rng.randint(1, 50))]
        )

    # Violation injection: a `ratio` fraction of each keyed relation's rows
    # gets a competing duplicate — same key, one altered non-key attribute.
    injected: list[Fact] = []
    for name in _KEYED:
        arity = len(rows[name][0])
        for row in list(rows[name]):
            if rng.random() < ratio:
                position = rng.randrange(1, arity)
                clash = list(row)
                clash[position] = f"{clash[position]}_dup"
                rows[name].append(clash)
                injected.append(Fact(name, clash))

    instance = Instance(
        Fact(name, row) for name in rows for row in rows[name]
    )
    return TPCHScenario(
        mapping=tpch_mapping(),
        instance=instance,
        injected=tuple(injected),
        scale=scale,
        ratio=ratio,
        seed=seed,
        label=f"tpch sf={scale} ratio={ratio} seed={seed}",
    )


_TPCH_NAME_RE = re.compile(r"^tpch-sf(?P<scale>[0-9.]+)-r(?P<ratio>[0-9.]+)$")


def parse_tpch_name(name: str) -> tuple[float, float]:
    """``(scale, ratio)`` of a grid cell named like ``tpch-sf0.01-r0.2``;
    raises ``ValueError`` otherwise."""
    match = _TPCH_NAME_RE.match(name)
    if match is None:
        raise ValueError(
            f"not a tpch scenario name: {name!r} (want tpch-sfS-rR)"
        )
    return float(match.group("scale")), float(match.group("ratio"))
