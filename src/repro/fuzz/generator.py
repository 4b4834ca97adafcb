"""Seeded random-scenario generation for differential fuzzing.

Two profiles, both deterministic in ``(seed, config)``:

- **freeform** — arbitrary ``glav+(wa-glav, egd)`` mappings built atom by
  atom: random source/target schemas, s-t tgds with existentials, weakly
  acyclic target tgds (rejection-filtered, or an explicit existential
  chain when ``skolem_heavy`` — the chain forces nested skolem values
  through the Theorem 1 reduction), key-style egds, instances whose
  constant pool is squeezed by ``conflict_rate``, and CQ/UCQ/boolean
  queries with optional constants;
- **ibench** — compositions of :mod:`repro.scenarios.ibench` primitives
  via :func:`~repro.scenarios.ibench.random_ibench_scenario`, with the
  builder's own conflicted-key instance generator and a random query over
  the composed target schema.

``profile="mixed"`` draws freeform ~70% of the time.  The module also
exposes the raw building blocks (:func:`random_tgd`, :func:`random_egd`,
:func:`random_cq`, :func:`random_dependency_set`) used by the parser
round-trip and weak-acyclicity property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.dependencies.acyclicity import is_weakly_acyclic
from repro.dependencies.egds import EGD
from repro.dependencies.mapping import SchemaMapping
from repro.dependencies.tgds import TGD
from repro.fuzz.render import Scenario
from repro.relational.instance import Fact, Instance
from repro.relational.queries import (
    Atom,
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
)
from repro.relational.schema import RelationSymbol, Schema
from repro.relational.terms import Const, Variable
from repro.scenarios.ibench import random_ibench_scenario

PROFILES = ("freeform", "ibench", "mixed", "tpch")


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for scenario generation and the differential config matrix."""

    profile: str = "mixed"
    # -- schema shape (freeform) --
    source_relations: int = 2
    target_relations: int = 2
    min_arity: int = 1
    max_arity: int = 3
    # -- dependency shape (freeform) --
    max_st_tgds: int = 3
    target_tgd_depth: int = 2
    existential_rate: float = 0.35
    skolem_heavy: bool = False
    max_egds: int = 2
    constant_rate: float = 0.1
    # -- instance shape --
    min_facts: int = 2
    max_facts: int = 8
    conflict_rate: float = 0.6
    constant_pool: int = 5
    # -- query shape --
    max_query_atoms: int = 2
    boolean_rate: float = 0.2
    ucq_rate: float = 0.2
    # -- ibench profile --
    ibench_primitives: int = 2
    ibench_keys: int = 2
    # -- tpch profile (fuzz-sized cells; the bench grid goes bigger) --
    tpch_max_scale: float = 0.005
    # -- differential config matrix --
    use_oracle: bool = True
    oracle_max_facts: int = 9
    # Figure 1 and the monolithic possible-answer pass *enumerate stable
    # models* of the one big program; on scenarios whose chase produces
    # many rule groundings (recursive target tgds over a conflict-heavy
    # instance) that enumeration is exponentially slower than the repair
    # encoding's cautious check.  Above this many groundings those two
    # checks are skipped — everything else in the matrix still runs.
    enumerative_limit: int = 300
    check_figure1: bool = True
    check_possible: bool = True
    # -- injected solve cutoffs (repro.fuzz.faults; off by default) --
    check_faults: bool = False

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; pick from {PROFILES}")
        if self.tpch_max_scale <= 0:
            raise ValueError("tpch_max_scale must be positive")
        if not 1 <= self.min_arity <= self.max_arity:
            raise ValueError("need 1 <= min_arity <= max_arity")
        if self.min_facts > self.max_facts:
            raise ValueError("need min_facts <= max_facts")
        for knob in (
            "existential_rate",
            "constant_rate",
            "conflict_rate",
            "boolean_rate",
            "ucq_rate",
        ):
            value = getattr(self, knob)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{knob} must be in [0, 1], got {value}")


DEFAULT_CONFIG = FuzzConfig()

_VARS = [Variable(f"x{i}") for i in range(6)]
_EXISTENTIALS = [Variable(f"e{i}") for i in range(4)]


def _constant(rng: random.Random, config: FuzzConfig) -> str:
    """``conflict_rate`` biases draws into a two-constant hot pool, so egd
    bodies join and violations actually fire."""
    if rng.random() < config.conflict_rate:
        return rng.choice(("c0", "c1"))
    return f"c{rng.randint(0, max(config.constant_pool - 1, 0))}"


def _term(rng: random.Random, variables, config: FuzzConfig):
    if config.constant_rate and rng.random() < config.constant_rate:
        return Const(_constant(rng, config))
    return rng.choice(variables)


# --------------------------------------------------------- building blocks


def random_atom(
    rng: random.Random,
    relations: list[RelationSymbol],
    variables,
    config: FuzzConfig = DEFAULT_CONFIG,
    constants: bool = True,
) -> Atom:
    rel = rng.choice(relations)
    terms = []
    for _ in range(rel.arity):
        if constants:
            terms.append(_term(rng, variables, config))
        else:
            terms.append(rng.choice(variables))
    return Atom(rel.name, terms)


def random_tgd(
    rng: random.Random,
    body_relations: list[RelationSymbol],
    head_relations: list[RelationSymbol],
    config: FuzzConfig = DEFAULT_CONFIG,
) -> TGD:
    """A random tgd; head slots turn existential with ``existential_rate``."""
    body = [
        random_atom(rng, body_relations, _VARS[:4], config)
        for _ in range(rng.randint(1, 2))
    ]
    if len(body) == 2 and not (body[0].variables() & body[1].variables()):
        # Stitch a shared variable in: a cartesian-product body multiplies
        # its groundings quadratically, and downstream (especially for
        # target tgds feeding themselves) the programs explode.
        anchor = sorted(body[0].variables(), key=lambda v: v.name)
        slots = [
            index
            for index, term in enumerate(body[1].terms)
            if isinstance(term, Variable)
        ]
        if anchor and slots:
            terms = list(body[1].terms)
            terms[rng.choice(slots)] = rng.choice(anchor)
            body[1] = Atom(body[1].relation, terms)
    body_vars = sorted(
        {v for atom in body for v in atom.variables()}, key=lambda v: v.name
    )
    heads = []
    for _ in range(rng.randint(1, 2)):
        rel = rng.choice(head_relations)
        terms = []
        for _ in range(rel.arity):
            if not body_vars or rng.random() < config.existential_rate:
                terms.append(rng.choice(_EXISTENTIALS))
            else:
                terms.append(rng.choice(body_vars))
        heads.append(Atom(rel.name, terms))
    return TGD(body, heads)


def random_egd(
    rng: random.Random,
    relations: list[RelationSymbol],
    config: FuzzConfig = DEFAULT_CONFIG,
) -> EGD | None:
    """A random egd over ``relations``, or ``None`` when no sensible one
    can be drawn.

    Multi-atom bodies are required to share a variable: an egd whose body
    is a cartesian product (``T(x), T(y) -> x = y``) equates *all pairs*
    of values, which collapses every violation into one giant cluster and
    makes the ground programs explode — a degenerate shape no real key or
    functional dependency has.
    """
    keyed = [r for r in relations if r.arity >= 2]
    if keyed and rng.random() < 0.7:
        # Key-style: two rows agreeing on a key position equate another.
        rel = rng.choice(keyed)
        key = rng.randrange(rel.arity)
        dep = rng.choice([p for p in range(rel.arity) if p != key])
        first = [Variable(f"a{i}") for i in range(rel.arity)]
        second = [Variable(f"b{i}") for i in range(rel.arity)]
        second[key] = first[key]
        body = [Atom(rel.name, first), Atom(rel.name, second)]
        # No constant rhs here: a key self-join forcing a position to a
        # (hot-pool) constant merges every null flowing through the joined
        # position into one value, collapsing the whole quasi-solution into
        # a single violation cluster — the programs stop being cluster-sized
        # and all engines blow up together.  Real keys equate variables.
        return EGD(body, first[dep], second[dep])
    for _ in range(4):
        body = [
            random_atom(rng, relations, _VARS[:4], config, constants=False)
            for _ in range(rng.randint(1, 2))
        ]
        if len(body) == 2 and not (body[0].variables() & body[1].variables()):
            continue  # cartesian product: see the docstring
        body_vars = sorted(
            {v for atom in body for v in atom.variables()}, key=lambda v: v.name
        )
        if len(body_vars) < 2:
            continue
        lhs, rhs = rng.sample(body_vars, 2)
        if (
            config.constant_rate
            and len(body) > 1
            and rng.random() < config.constant_rate
        ):
            # Constant rhs only behind a join: a single-atom body with a
            # constant rhs (T(x, y) -> y = 'c') puts *every* fact of the
            # relation in violation — one giant cluster, no locality.
            return EGD(body, lhs, Const(_constant(rng, config)))
        return EGD(body, lhs, rhs)
    return None


def random_cq(
    rng: random.Random,
    relations: list[RelationSymbol],
    config: FuzzConfig = DEFAULT_CONFIG,
    name: str = "q",
    head_width: int | None = None,
) -> ConjunctiveQuery:
    """A random CQ; ``head_width`` pins the answer arity (for UCQs)."""
    body = [
        random_atom(rng, relations, _VARS[:3], config)
        for _ in range(rng.randint(1, max(config.max_query_atoms, 1)))
    ]
    body_vars = sorted(
        {v for atom in body for v in atom.variables()}, key=lambda v: v.name
    )
    if head_width is None:
        if rng.random() < config.boolean_rate:
            head_width = 0
        else:
            head_width = rng.randint(0, min(2, len(body_vars)))
    head = rng.sample(body_vars, min(head_width, len(body_vars)))
    if len(head) < head_width:
        # Not enough variables for the pinned width: pad the body with a
        # fresh all-variable atom so every disjunct keeps the same arity.
        rel = rng.choice(relations)
        if rel.arity > 0:
            extra_vars = _VARS[3 : 3 + rel.arity]
            body.append(Atom(rel.name, extra_vars))
            pool = sorted(
                ({v for a in body for v in a.variables()} - set(head)),
                key=lambda v: v.name,
            )
            while len(head) < head_width and pool:
                head.append(pool.pop(0))
    if len(head) < head_width:
        head_width = len(head)
    return ConjunctiveQuery(head[:head_width] if head_width else [], body, name=name)


def random_query(
    rng: random.Random,
    relations: list[RelationSymbol],
    config: FuzzConfig = DEFAULT_CONFIG,
) -> ConjunctiveQuery | UnionOfConjunctiveQueries:
    if rng.random() < config.ucq_rate:
        width = rng.randint(0, 2)
        first = random_cq(rng, relations, config, head_width=width)
        second = random_cq(rng, relations, config, head_width=len(first.head_vars))
        # Either disjunct's padding may have clipped its width (narrow
        # relations): truncate both to the smaller — head vars are always
        # body vars, so a shorter head stays well-formed.
        width = min(len(first.head_vars), len(second.head_vars))
        if len(first.head_vars) != width:
            first = ConjunctiveQuery(first.head_vars[:width], first.body, name=first.name)
        if len(second.head_vars) != width:
            second = ConjunctiveQuery(second.head_vars[:width], second.body, name=second.name)
        return UnionOfConjunctiveQueries([first, second])
    return random_cq(rng, relations, config)


def random_dependency_set(
    rng: random.Random,
    relations: int = 3,
    max_arity: int = 3,
    count: int = 4,
    existential_rate: float = 0.4,
) -> list[TGD]:
    """A random, *possibly cyclic* tgd set over one schema — raw material
    for the weak-acyclicity property tests (no rejection filtering)."""
    symbols = [
        RelationSymbol(f"P{i}", rng.randint(1, max_arity)) for i in range(relations)
    ]
    config = replace(
        DEFAULT_CONFIG, existential_rate=existential_rate, constant_rate=0.0
    )
    return [
        random_tgd(rng, symbols, symbols, config) for _ in range(rng.randint(1, count))
    ]


# ------------------------------------------------------- freeform profile


def _random_schema(
    rng: random.Random, prefix: str, count: int, config: FuzzConfig
) -> list[RelationSymbol]:
    return [
        RelationSymbol(
            f"{prefix}{i}", rng.randint(config.min_arity, config.max_arity)
        )
        for i in range(rng.randint(1, max(count, 1)))
    ]


def random_freeform_scenario(seed: int, config: FuzzConfig = DEFAULT_CONFIG) -> Scenario:
    rng = random.Random(f"freeform:{seed}")

    source_rels = _random_schema(rng, "S", config.source_relations, config)
    target_rels = _random_schema(rng, "T", config.target_relations, config)

    st_tgds = [
        random_tgd(rng, source_rels, target_rels, config)
        for _ in range(rng.randint(1, max(config.max_st_tgds, 1)))
    ]

    target_tgds: list[TGD] = []
    if config.skolem_heavy and config.target_tgd_depth > 0:
        # An explicit existential chain C0 -> ∃ C1 -> ∃ C2 ... : weakly
        # acyclic by layering, and every link deepens the skolem nesting
        # the Theorem 1 reduction must carry through the chase.
        depth = rng.randint(1, config.target_tgd_depth)
        chain = [RelationSymbol(f"C{i}", 2) for i in range(depth + 1)]
        target_rels = target_rels + chain
        x, y, z = _VARS[0], _VARS[1], _EXISTENTIALS[0]
        feeder = rng.choice(source_rels)
        feed_body = [Atom(feeder.name, [x] + [_VARS[1]] * (feeder.arity - 1))]
        st_tgds.append(TGD(feed_body, [Atom(chain[0].name, [x, x])]))
        for lower, upper in zip(chain, chain[1:]):
            target_tgds.append(
                TGD([Atom(lower.name, [x, y])], [Atom(upper.name, [y, z])])
            )
        # A functional egd at the end of the chain: conflicts must travel
        # through the nested skolems to be detected.
        u, v, w = _VARS[0], _VARS[1], _VARS[2]
        last = chain[-1].name
        target_egds = [EGD([Atom(last, [u, v]), Atom(last, [u, w])], v, w)]
    else:
        target_egds = []
        for _ in range(rng.randint(0, max(config.target_tgd_depth, 0))):
            candidate = random_tgd(rng, target_rels, target_rels, config)
            if is_weakly_acyclic(target_tgds + [candidate]):
                target_tgds.append(candidate)

    for _ in range(rng.randint(1, max(config.max_egds, 1))):
        egd = random_egd(rng, target_rels, config)
        if egd is not None:
            target_egds.append(egd)

    mapping = SchemaMapping(
        Schema(source_rels),
        Schema(target_rels),
        st_tgds,
        target_tgds,
        target_egds,
    )

    facts = []
    for _ in range(rng.randint(config.min_facts, config.max_facts)):
        rel = rng.choice(source_rels)
        facts.append(
            Fact(rel.name, tuple(_constant(rng, config) for _ in range(rel.arity)))
        )
    instance = Instance(facts)

    query = random_query(rng, target_rels, config)
    return Scenario(mapping, instance, query, label=f"freeform seed={seed}")


# --------------------------------------------------------- ibench profile


def random_ibench_fuzz_scenario(
    seed: int, config: FuzzConfig = DEFAULT_CONFIG
) -> Scenario:
    rng = random.Random(f"ibench:{seed}")
    built = random_ibench_scenario(
        seed, size=rng.randint(1, max(config.ibench_primitives, 1))
    )
    instance = built.generate(
        keys_per_primitive=rng.randint(1, max(config.ibench_keys, 1)),
        conflict_rate=config.conflict_rate,
        seed=seed,
    )
    target_rels = list(built.mapping.target)
    query_config = replace(config, constant_rate=0.0)  # ibench values are keyed
    query = random_query(rng, target_rels, query_config)
    return Scenario(built.mapping, instance, query, label=f"ibench seed={seed}")


# ----------------------------------------------------------- tpch profile


def random_tpch_fuzz_scenario(
    seed: int, config: FuzzConfig = DEFAULT_CONFIG
) -> Scenario:
    """A fuzz-sized cell of the TPC-H grid (scenario + random query).

    The (sf, ratio) cell is drawn from the seed, capped by
    ``config.tpch_max_scale`` so differential runs stay tractable; the
    instance itself is the deterministic
    :func:`repro.scenarios.tpch.tpch_scenario` generator, so the fuzzer
    exercises exactly the same code path the benchmarks scale up.
    """
    from repro.scenarios.tpch import TPCH_FUZZ_RATIOS, TPCH_FUZZ_SCALES, tpch_scenario

    rng = random.Random(f"tpch-profile:{seed}")
    scale = rng.choice(
        [sf for sf in TPCH_FUZZ_SCALES if sf <= config.tpch_max_scale]
        or [min(TPCH_FUZZ_SCALES)]
    )
    ratio = rng.choice(TPCH_FUZZ_RATIOS)
    built = tpch_scenario(scale, ratio, seed)
    target_rels = list(built.mapping.target)
    query_config = replace(config, constant_rate=0.0)  # tpch values are keyed
    query = random_query(rng, target_rels, query_config)
    return Scenario(
        built.mapping,
        built.instance,
        query,
        label=f"tpch sf={scale} ratio={ratio} seed={seed}",
    )


# ----------------------------------------------------------------- entry


def random_scenario(seed: int, config: FuzzConfig = DEFAULT_CONFIG) -> Scenario:
    """The scenario for ``seed`` under ``config`` (profile-dispatched)."""
    if config.profile == "freeform":
        return random_freeform_scenario(seed, config)
    if config.profile == "ibench":
        return random_ibench_fuzz_scenario(seed, config)
    if config.profile == "tpch":
        return random_tpch_fuzz_scenario(seed, config)
    rng = random.Random(f"profile:{seed}")
    if rng.random() < 0.7:
        return random_freeform_scenario(seed, config)
    return random_ibench_fuzz_scenario(seed, config)
