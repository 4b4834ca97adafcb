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


class TestAdmissionFlags:
    """Each admission flag is checked by argparse, so a bad value never
    reaches :class:`~repro.serve.admission.AdmissionController`."""

    RULES = {
        "--max-inflight": "must be an integer >= 1",
        "--max-queue": "must be an integer >= 0",
        "--queue-timeout": "must be a positive finite number",
    }

    def test_defaults_and_valid_values(self):
        parse = build_parser().parse_args
        defaults = parse(["serve", "--scenario", "S3"])
        assert (defaults.max_inflight, defaults.max_queue,
                defaults.queue_timeout) == (8, 16, 2.0)
        given = parse(["serve", "--scenario", "S3", "--max-inflight", "1",
                       "--max-queue", "0", "--queue-timeout", "0.5"])
        assert (given.max_inflight, given.max_queue,
                given.queue_timeout) == (1, 0, 0.5)

    @pytest.mark.parametrize("flag, value", [
        ("--max-inflight", "0"),
        ("--max-inflight", "-3"),
        ("--max-inflight", "two"),
        ("--max-queue", "-1"),
        ("--max-queue", "1.5"),
        ("--queue-timeout", "nan"),
        ("--queue-timeout", "inf"),
        ("--queue-timeout", "-1"),
        ("--queue-timeout", "0"),
    ])
    def test_bad_value_exits_2(self, capsys, flag, value):
        assert exit_code(["serve", "--scenario", "S3", f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {self.RULES[flag]}, got {value}" in err
        assert "Traceback" not in err
