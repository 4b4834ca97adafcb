"""``repro serve`` argument validation: bad values exit 2 before any
exchange work, with argparse's usage message instead of a traceback."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def exit_code(argv: list[str]) -> int:
    with pytest.raises(SystemExit) as exited:
        main(argv)
    return exited.value.code


class TestJobs:
    def test_jobs_one_is_accepted(self):
        arguments = build_parser().parse_args(
            ["serve", "-m", "m.txt", "-d", "d.txt", "--jobs", "1"]
        )
        assert arguments.jobs == 1

    @pytest.mark.parametrize("value", ["0", "2", "4"])
    def test_any_other_jobs_exits_2(self, capsys, value):
        assert exit_code(["serve", "-m", "m", "-d", "d", "--jobs", value]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_retries_flag_is_gone(self):
        assert exit_code(["serve", "-m", "m", "-d", "d", "--retries", "1"]) == 2


class TestScenario:
    def test_valid_name_parses_to_its_profile(self):
        arguments = build_parser().parse_args(["serve", "--scenario", "M9"])
        assert arguments.scenario.name == "M9"
        assert arguments.scenario.transcripts == 40
        assert arguments.scenario.suspect_fraction == 0.09

    @pytest.mark.parametrize("name", ["X3", "S", "S-5", "Mx", "L101", ""])
    def test_bad_name_exits_2(self, capsys, name):
        assert exit_code(["serve", "--scenario", name]) == 2
        err = capsys.readouterr().err
        assert "argument --scenario" in err
        assert "Traceback" not in err
