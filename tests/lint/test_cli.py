"""CLI behaviour: exit codes, formats, select/ignore, module entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_main(*argv, capsys=None):
    return main(list(argv))


def test_exit_nonzero_on_findings(capsys):
    code = main([str(FIXTURES / "r001_pos.py"), "--no-config"])
    assert code == EXIT_FINDINGS
    assert "R001" in capsys.readouterr().out


def test_exit_clean_on_negative_fixture(capsys):
    code = main([str(FIXTURES / "r001_neg.py"), "--no-config"])
    assert code == EXIT_CLEAN


def test_each_positive_fixture_fails_the_cli(capsys):
    for rule_id in ("R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008"):
        fixture = FIXTURES / f"{rule_id.lower()}_pos.py"
        code = main([str(fixture), "--no-config", "--select", rule_id])
        assert code == EXIT_FINDINGS, rule_id
        capsys.readouterr()


def test_json_format(capsys):
    code = main([str(FIXTURES / "r001_pos.py"), "--no-config", "--format", "json"])
    assert code == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["total"] > 0


def test_select_filters(capsys):
    code = main(
        [str(FIXTURES / "r001_pos.py"), "--no-config", "--select", "R005"]
    )
    assert code == EXIT_CLEAN


def test_ignore_filters(capsys):
    code = main(
        [str(FIXTURES / "r005_pos.py"), "--no-config", "--ignore", "R005"]
    )
    assert code == EXIT_CLEAN


def test_comma_separated_codes(capsys):
    code = main(
        [
            str(FIXTURES / "r001_pos.py"),
            str(FIXTURES / "r005_pos.py"),
            "--no-config",
            "--select",
            "R001,R005",
        ]
    )
    assert code == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "R001" in out and "R005" in out


def test_unknown_rule_is_usage_error(capsys):
    code = main([str(FIXTURES / "r001_pos.py"), "--no-config", "--select", "R999"])
    assert code == EXIT_ERROR


def test_missing_path_is_usage_error(capsys):
    code = main(["definitely/not/here.py", "--no-config"])
    assert code == EXIT_ERROR


def test_list_rules(capsys):
    code = main(["--list-rules"])
    assert code == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule_id in ("R001", "R008"):
        assert rule_id in out


def test_module_entry_point_runs_clean_on_repo_src():
    """`python -m repro.lint src` must exit 0 on the merged tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src", "tests"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_module_entry_point_fails_on_fixture():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.lint",
            str(FIXTURES / "r001_pos.py"),
            "--no-config",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# program passes, SARIF
# ----------------------------------------------------------------------
PROGRAM_FIXTURES = FIXTURES / "program"


def test_program_rules_fire_through_the_cli(capsys):
    code = main(
        [
            str(PROGRAM_FIXTURES / "seedpkg"),
            "--no-config",
            "--select",
            "R010,R011",
        ]
    )
    assert code == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "R010" in out and "R011" in out


def test_no_program_flag_suppresses_program_rules(capsys):
    """``--ignore`` is the spelling for skipping program rules."""
    code = main(
        [
            str(PROGRAM_FIXTURES / "seedpkg"),
            "--no-config",
            "--select",
            "R010,R011",
            "--ignore",
            "R010,R011",
        ]
    )
    assert code == EXIT_CLEAN


def test_sarif_format_through_the_cli(capsys):
    code = main(
        [
            str(FIXTURES / "r001_pos.py"),
            "--no-config",
            "--format",
            "sarif",
        ]
    )
    assert code == EXIT_FINDINGS
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"]


def test_list_rules_includes_program_rules(capsys):
    code = main(["--list-rules"])
    assert code == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule_id in ("R010", "R011", "R012", "R013", "R014"):
        assert rule_id in out
