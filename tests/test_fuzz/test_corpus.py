"""The checked-in regression corpus: provenance, replay, persistence."""

from pathlib import Path

from repro.fuzz.corpus import (
    XVAL_REGRESSION_SEEDS,
    build_default_corpus,
    default_corpus_entries,
    load_corpus,
    load_repro,
    replay,
    save_repro,
    scenario_digest,
)
from repro.fuzz.generator import DEFAULT_CONFIG
from repro.fuzz.render import render_scenario, scenarios_equal
from repro.fuzz.xval import xval_scenario

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
FAST = DEFAULT_CONFIG


def test_corpus_exists_and_loads():
    entries = load_corpus(CORPUS_DIR)
    assert len(entries) >= 10
    names = {path.stem for path, _ in entries}
    for seed in XVAL_REGRESSION_SEEDS:
        assert f"xval-seed-{seed:04d}" in names, f"regression seed {seed} missing"
    assert "figure1-errata" in names


def test_corpus_matches_regenerated_provenance():
    """Every regenerable corpus file is byte-identical to its generator
    output — nobody hand-edited a repro without updating its source."""
    expected = default_corpus_entries()
    on_disk = {path.stem: path for path, _ in load_corpus(CORPUS_DIR)}
    for name, scenario in expected.items():
        assert name in on_disk, f"{name} missing from tests/corpus/"
        assert on_disk[name].read_text() == render_scenario(scenario), name


def test_corpus_replays_clean():
    for path, scenario in load_corpus(CORPUS_DIR):
        report = replay(scenario, FAST)
        assert report.ok, (
            f"{path.name}: " + "; ".join(str(d) for d in report.discrepancies)
        )


def test_save_load_roundtrip(tmp_path):
    scenario = xval_scenario(7)
    path = save_repro(scenario, tmp_path)
    assert path.suffix == ".repro"
    assert scenario_digest(scenario) in path.stem
    assert scenarios_equal(load_repro(path), scenario)


def test_build_default_corpus_is_idempotent(tmp_path):
    first = build_default_corpus(tmp_path)
    contents = {p: p.read_text() for p in first}
    second = build_default_corpus(tmp_path)
    assert first == second
    assert all(p.read_text() == text for p, text in contents.items())
