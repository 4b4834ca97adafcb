"""Tests for the TPC-H-style scenario family (PR 10).

The generator must be a pure function of ``(scale, ratio, seed)`` — the
determinism tests check that across calls *and* across interpreter
processes with different hash seeds, and a committed golden snapshot pins
one small cell byte-for-byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.render import render_instance
from repro.reduction.reduce import reduce_mapping
from repro.scenarios.tpch import (
    _KEYED,
    parse_tpch_name,
    tpch_mapping,
    tpch_scenario,
)
from repro.xr.exchange import build_exchange_data

GOLDEN = Path(__file__).resolve().parents[1] / "corpus" / "tpch-sf0.01-r0.2-seed0.golden"


def snapshot_text(scenario) -> str:
    lines = [
        "% tpch golden snapshot: scale=0.01 ratio=0.2 seed=0",
        "% regenerate: repro.scenarios.tpch.tpch_scenario(0.01, 0.2, 0)",
        "% --- instance ---",
        render_instance(scenario.instance),
        "% --- injected ---",
    ]
    lines += [repr(fact) for fact in scenario.injected]
    return "\n".join(lines) + "\n"


class TestMapping:
    def test_weakly_acyclic_gav_egd(self):
        mapping = tpch_mapping()
        assert mapping.is_weakly_acyclic()
        assert reduce_mapping(mapping).gav.is_gav_gav_egd()

    def test_every_keyed_relation_has_target_egds(self):
        mapping = tpch_mapping()
        constrained = {egd.body[0].relation for egd in mapping.target_egds}
        for name in _KEYED:
            assert f"t_{name}" in constrained


class TestDeterminism:
    def test_same_cell_twice_is_identical(self):
        first = tpch_scenario(0.01, 0.2, 0)
        second = tpch_scenario(0.01, 0.2, 0)
        assert list(first.instance) == list(second.instance)  # order too
        assert first.injected == second.injected

    def test_seed_changes_instance(self):
        assert set(tpch_scenario(0.01, 0.2, 0).instance) != set(
            tpch_scenario(0.01, 0.2, 1).instance
        )

    def test_stable_across_hash_seeds(self):
        """Byte-identical output from subprocesses with different
        PYTHONHASHSEED values — no set/dict iteration order leaks into
        the generated instance (the ``--jobs`` spawn-safety property)."""
        program = (
            "from repro.fuzz.render import render_instance\n"
            "from repro.scenarios.tpch import tpch_scenario\n"
            "s = tpch_scenario(0.005, 0.4, 7)\n"
            "print(render_instance(s.instance))\n"
            "print(sorted(repr(f) for f in s.injected))\n"
        )
        outputs = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = str(Path(__file__).resolve().parents[2] / "src")
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_golden_snapshot(self):
        assert GOLDEN.read_text() == snapshot_text(tpch_scenario(0.01, 0.2, 0))


class TestInjection:
    def test_zero_ratio_injects_nothing(self):
        scenario = tpch_scenario(0.01, 0.0, 0)
        assert scenario.injected == ()
        data = build_exchange_data(
            reduce_mapping(scenario.mapping).gav, scenario.instance
        )
        assert data.violations == []

    def test_injected_facts_clash_on_keys(self):
        scenario = tpch_scenario(0.01, 0.3, 2)
        assert scenario.injected
        originals = set(scenario.instance)
        for fact in scenario.injected:
            assert fact.relation in _KEYED
            assert fact in originals
            # Some original row shares the key but differs elsewhere.
            assert any(
                other.args[0] == fact.args[0] and other.args != fact.args
                for other in scenario.instance.facts_of(fact.relation)
            )

    def test_injection_yields_violations(self):
        scenario = tpch_scenario(0.01, 0.3, 2)
        data = build_exchange_data(
            reduce_mapping(scenario.mapping).gav, scenario.instance
        )
        assert data.violations

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            tpch_scenario(0.0, 0.2, 0)
        with pytest.raises(ValueError):
            tpch_scenario(0.01, 1.5, 0)


class TestNames:
    def test_round_trip(self):
        assert parse_tpch_name("tpch-sf0.01-r0.2") == (0.01, 0.2)
        assert parse_tpch_name("tpch-sf0.05-r0") == (0.05, 0.0)

    def test_bad_names_rejected(self):
        for bad in ("tpch", "tpch-sf-r0.2", "M9", "tpch-sf0.01"):
            with pytest.raises(ValueError):
                parse_tpch_name(bad)
