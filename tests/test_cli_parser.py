"""The argparse tree is built once per process and shared by every cli.main call, so
each call must leave it as it found it: usage errors and help text stay byte-identical."""

import json

import pytest

from dfipp import cli

CHECK_LEMMA_HELP = """\
usage: dfipp check-lemma [-h] [--trials TRIALS] [--seed SEED]
                         [--budget BUDGET]
                         lemma

positional arguments:
  lemma

options:
  -h, --help       show this help message and exit
  --trials TRIALS
  --seed SEED
  --budget BUDGET  enumeration budget (default: DFIPP_BUDGET, else 10000000)
"""


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def _exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("bad", [["--bogus"], ["--trials", "x"], ["--config"]])
def test_usage_error_is_byte_identical_around_a_run(bad, tmp_path, capsys):
    config = tmp_path / "echo.json"
    config.write_text(json.dumps({"protocol": "echo", "trials": 2, "seed": 1, "bits": 4}))
    argv = ["run", "--config", str(config), *bad]
    code, first = _exit(argv, capsys)
    assert cli.main(["run", "--config", str(config), "--trials", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["accepted"] == 3
    again = _exit(argv, capsys)
    assert (code, first.out) == (2, "")
    assert again == (code, first)
    assert first.err.startswith("usage: dfipp") and "dfipp" in first.err.splitlines()[-1]


def test_check_lemma_help_is_unchanged_before_and_after_a_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, first = _exit(["check-lemma", "--help"], capsys)
    assert (code, first.out, first.err) == (0, CHECK_LEMMA_HELP, "")
    assert cli.main(["check-lemma", "tvineq", "--trials", "2", "--budget", "99"]) == 0
    capsys.readouterr()
    assert _exit(["check-lemma", "--help"], capsys) == (code, first)
