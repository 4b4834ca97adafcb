"""The differential runner: clean sweeps, and an injected bug caught + shrunk.

The injected bug poisons the segmentary engine's signature-program cache so
every lookup "hits" with an empty accepted set — the cached engines silently
drop certain answers whose support crosses suspect facts.  The differential
matrix must catch it, the shrinker must reduce it to a tiny repro, and the
serialized repro must still reproduce it after a parse round trip.
"""

from dataclasses import replace

import pytest

from repro import cli
from repro.fuzz.differential import check_seed, run_differential, run_fuzz
from repro.fuzz.generator import DEFAULT_CONFIG, FuzzConfig
from repro.fuzz.render import Scenario, parse_scenario, render_scenario
from repro.fuzz.shrink import shrink_scenario
from repro.parser import parse_instance, parse_mapping, parse_program
from repro.runtime.cache import SignatureProgramCache

FAST = DEFAULT_CONFIG


def test_clean_seeds_agree():
    for seed in range(8):
        report = check_seed(seed, FAST)
        assert report.ok, f"seed={seed}: {[str(d) for d in report.discrepancies]}"
        assert "monolithic" in report.engines
        assert "segmentary-cold" in report.engines
        assert "segmentary-warm" in report.engines
        assert "segmentary-nocache" in report.engines


def test_oracle_runs_only_on_small_instances():
    small = check_seed(0, FAST)
    assert ("oracle" in small.engines) == (
        len(small.scenario.instance) <= FAST.oracle_max_facts
    )
    no_oracle = check_seed(0, replace(FAST, use_oracle=False))
    assert "oracle" not in no_oracle.engines


def _conflicted_scenario() -> Scenario:
    mapping = parse_mapping(
        """
        SOURCE R/2. TARGET T/2.
        R(x, y) -> T(x, y).
        T(x, y), T(x, z) -> y = z.
        """
    )
    instance = parse_instance(
        "R('a', 'b'). R('a', 'c'). R('d', 'e')."
    )
    query = parse_program("q(x) :- T(x, y).")
    return Scenario(mapping, instance, query, label="poisoned-cache repro")


def _poison_cache(monkeypatch):
    """Every program lookup hits with an empty accepted set."""
    monkeypatch.setattr(
        SignatureProgramCache, "lookup_program", lambda self, key: frozenset()
    )


def test_injected_cache_bug_is_caught(monkeypatch):
    scenario = _conflicted_scenario()
    assert run_differential(scenario, FAST).ok, "scenario must be clean pre-bug"

    _poison_cache(monkeypatch)
    report = run_differential(scenario, FAST)
    assert not report.ok, "poisoned cache must disagree with the baseline"
    kinds = {d.kind for d in report.discrepancies}
    assert "certain-mismatch" in kinds or "possible-mismatch" in kinds


def test_injected_bug_shrinks_to_small_serialized_repro(monkeypatch):
    _poison_cache(monkeypatch)

    def is_failing(scenario):
        return not run_differential(scenario, FAST).ok

    minimal = shrink_scenario(_conflicted_scenario(), is_failing)
    assert len(minimal.instance) <= 10
    assert is_failing(minimal), "shrunk scenario must still reproduce"

    # The serialized repro round-trips and still fails.
    text = render_scenario(minimal)
    assert is_failing(parse_scenario(text))


def test_run_fuzz_campaign_clean(tmp_path):
    summary = run_fuzz(
        6, config=FAST, jobs=1, shrink=True, corpus_dir=str(tmp_path)
    )
    assert summary.ok
    assert summary.seeds == 6
    assert not list(tmp_path.glob("*.repro")), "clean runs write no repros"


@pytest.mark.slow
def test_run_fuzz_records_and_shrinks_failures(monkeypatch, tmp_path):
    _poison_cache(monkeypatch)
    config = replace(FAST, profile="freeform", use_oracle=False)
    # Seeds 25..32 include seed 28, whose scenario routes a certain answer
    # through a cached signature program — the poison drops it there.
    summary = run_fuzz(
        8, start=25, config=config, jobs=1, shrink=True, corpus_dir=str(tmp_path)
    )
    assert not summary.ok, "poisoned cache must fail some seed"
    failure = summary.failures[0]
    assert failure.discrepancies
    assert failure.shrunk_text is not None
    assert failure.repro_path is not None
    written = list(tmp_path.glob("*.repro"))
    assert written, "failing repros are serialized into the corpus dir"
    # The serialized text parses back into a scenario.
    parse_scenario(written[0].read_text())


def test_cli_fuzz_smoke(capsys):
    code = cli.main(["fuzz", "--seeds", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failure(s)" in out


@pytest.mark.slow
def test_cli_fuzz_reports_failures(monkeypatch, capsys):
    _poison_cache(monkeypatch)
    code = cli.main(
        ["fuzz", "--seeds", "6", "--start", "25",
         "--profile", "freeform", "--no-oracle", "--shrink"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL seed=" in out
    assert "% --- mapping ---" in out, "the (shrunk) repro text is printed"


def test_fuzz_config_matrix_flags():
    config = FuzzConfig(check_figure1=False, check_possible=False)
    report = check_seed(1, config)
    assert "monolithic-figure1" not in report.engines
    assert not report.possible
