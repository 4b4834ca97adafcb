"""Scenario names (size letter + suspect percent) → instance profiles."""

import pytest

from repro.genomics.instances import (
    INSTANCE_PROFILES,
    SCENARIO_SIZES,
    parse_scenario_name,
)


@pytest.mark.parametrize("name, transcripts, rate", [
    ("S0", 18, 0.0), ("m9", 40, 0.09), ("L20", 100, 0.20), ("S100", 18, 1.0),
])
def test_names_parse(name, transcripts, rate):
    profile = parse_scenario_name(name)
    assert profile.name == name
    assert profile.transcripts == transcripts
    assert profile.suspect_fraction == rate


@pytest.mark.parametrize("name, message", [
    ("X3", "unknown size"), ("", "unknown size"), ("S", "bad scenario"),
    ("S-5", "bad scenario"), ("S3.5", "bad scenario"), ("S101", "bad scenario"),
])
def test_bad_names_raise_value_error(name, message):
    with pytest.raises(ValueError, match=message):
        parse_scenario_name(name)


def test_sizes_match_the_paper_profiles():
    for size in ("S", "M", "L"):
        assert SCENARIO_SIZES[size] == INSTANCE_PROFILES[f"{size}3"].transcripts
