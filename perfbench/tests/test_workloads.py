"""The workload generators are deterministic functions of the seed."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.workloads import (
    POOL_SIZE,
    WORKLOADS,
    generate,
    serve_bodies,
    serve_schedule,
    state_after,
    update_body,
)

ROOT = Path(__file__).resolve().parents[2]

# Everything a workload hands the program, hashed: inputs, request bodies,
# update bodies and the 20-second arrival schedule.
FINGERPRINT = """
import hashlib, sys
from perfbench.workloads import generate, serve_bodies, serve_schedule, update_body
inputs = generate(sys.argv[1], int(sys.argv[2]))
digest = hashlib.sha256(inputs.to_json().encode())
for _name, _mode, body in serve_bodies(inputs):
    digest.update(body)
for number in range(1, 5):
    digest.update(update_body(inputs, number))
digest.update(repr(serve_schedule(inputs.seed, 20.0, 22)).encode())
print(digest.hexdigest())
"""


def _fingerprint(workload: str, seed: int, hashseed: str) -> str:
    env = {
        **os.environ,
        "PYTHONHASHSEED": hashseed,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    }
    done = subprocess.run(
        [sys.executable, "-c", FINGERPRINT, workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    return done.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_under_any_hash_seed(workload):
    first = _fingerprint(workload, 3, "1")
    assert first == _fingerprint(workload, 3, "1")
    assert first == _fingerprint(workload, 3, "2024")


def test_another_seed_changes_the_inputs():
    one, other = generate("tpch-sf1", 3), generate("tpch-sf1", 4)
    assert one.data != other.data
    assert one.pool != other.pool
    assert one.mapping == other.mapping
    assert one.queries == other.queries


def test_serve_seed_changes_the_traffic_not_the_data():
    one, other = generate("serve-rw", 3), generate("serve-rw", 4)
    assert one.sha256() == other.sha256()
    assert serve_schedule(3, 20.0, 22) != serve_schedule(4, 20.0, 22)


def test_generation_is_repeatable_in_process():
    for workload in WORKLOADS:
        assert generate(workload, 5) == generate(workload, 5)


def test_serve_schedule():
    events = serve_schedule(seed=1, seconds=20.0, bodies=22)
    assert events == serve_schedule(seed=1, seconds=20.0, bodies=22)
    assert events != serve_schedule(seed=2, seconds=20.0, bodies=22)
    assert [e.at for e in events] == sorted(e.at for e in events)
    assert all(0 <= e.at < 20.0 for e in events)
    updates = [e for e in events if e.kind == "update"]
    assert [(e.at, e.index) for e in updates] == [(5.0, 1), (10.0, 2), (15.0, 3)]
    queries = [e for e in events if e.kind == "query"]
    assert 100 < len(queries) < 230  # Poisson at 8/s over 20 s
    assert {e.index for e in queries} <= set(range(22))
    asked = Counter(e.index for e in queries)
    assert len(asked) == 22 and max(asked.values()) - min(asked.values()) <= 1


def test_update_cycle_visits_every_state():
    inputs = generate("serve-rw", 1)
    assert len(serve_bodies(inputs)) == 22
    assert [state_after(n) for n in range(7)] == [0, 1, 2, 3, 1, 2, 3]
    first = update_body(inputs, 1).decode()
    assert "+" not in first and inputs.pool[0][:-1] in first
    fourth = update_body(inputs, POOL_SIZE + 1).decode()
    assert f"+{inputs.pool[2]}" in fourth and f"-{inputs.pool[0]}" in fourth


def test_pool_facts_are_in_the_instance():
    for workload in WORKLOADS:
        inputs = generate(workload, 2)
        lines = set(inputs.data.splitlines())
        assert len(inputs.pool) == POOL_SIZE
        assert set(inputs.pool) <= lines


def test_inputs_round_trip_through_json():
    from perfbench.workloads import Inputs

    inputs = generate("tpch-sf1", 1)
    assert Inputs.from_json(inputs.to_json()) == inputs
    # The hash covers what the program is handed, not the seeds.
    assert replace(inputs, seed=99, generator_seed=7).sha256() == inputs.sha256()
    assert replace(inputs, data=inputs.data + "\n").sha256() != inputs.sha256()
