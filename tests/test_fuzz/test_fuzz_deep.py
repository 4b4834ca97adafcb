"""Deep differential sweeps — opt-in via ``pytest -m fuzz``.

Tier-1 keeps the matrix honest on a handful of seeds; these runs are the
real campaign (hundreds of seeds per profile, full engine matrix).  The
nightly CI job runs them alongside ``python -m repro fuzz``.
"""

from dataclasses import replace

import pytest

from repro.fuzz.differential import run_fuzz
from repro.fuzz.generator import DEFAULT_CONFIG, FuzzConfig

pytestmark = pytest.mark.fuzz


def _assert_clean(summary):
    details = [
        f"seed {f.seed}: " + "; ".join(f.discrepancies) for f in summary.failures
    ]
    assert summary.ok, "\n".join(details)


def test_deep_mixed_sweep():
    _assert_clean(run_fuzz(200, config=DEFAULT_CONFIG))


def test_deep_freeform_skolem_heavy():
    config = FuzzConfig(
        profile="freeform", skolem_heavy=True, target_tgd_depth=3
    )
    _assert_clean(run_fuzz(100, config=config))


def test_deep_ibench_sweep():
    _assert_clean(run_fuzz(100, config=FuzzConfig(profile="ibench")))


def test_deep_high_conflict():
    config = replace(
        DEFAULT_CONFIG, profile="freeform", conflict_rate=1.0, max_facts=6
    )
    _assert_clean(run_fuzz(100, start=1000, config=config))
