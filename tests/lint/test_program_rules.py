"""Whole-program rules R010–R014 over the fixture mini-packages."""

from pathlib import Path

from repro.lint import LintConfig
from repro.lint.program.driver import run_program_analysis

FIXTURES = Path(__file__).parent / "fixtures" / "program"

PROGRAM_RULES = ["R010", "R011", "R012", "R013", "R014"]


def analyze(*packages, select=PROGRAM_RULES):
    result = run_program_analysis(
        [FIXTURES / p for p in packages],
        LintConfig(select=list(select)),
    )
    return result.findings


def names(findings):
    return sorted((f.rule, Path(f.path).name, f.line) for f in findings)


# ----------------------------------------------------------------------
# R010 / R011 — seed provenance
# ----------------------------------------------------------------------
def test_seedpkg_expected_findings_exactly():
    findings = analyze("seedpkg", select=["R010", "R011"])
    assert names(findings) == [
        ("R010", "flow.py", 14),  # BadTuner: sink fed unrelated_value()
        ("R011", "flow.py", 9),   # BadTuner: seed never used at all
        ("R011", "flow.py", 24),  # DroppingSampler: stored, never read
    ]


def test_cross_module_provenance_silences_r010():
    # GoodTuner seeds via seedpkg.seeds.derive_seed — no finding.
    findings = analyze("seedpkg", select=["R010"])
    assert all("GoodTuner" not in f.message for f in findings)


def test_forwarding_to_subcomponent_silences_r011():
    findings = analyze("seedpkg", select=["R011"])
    assert all("ForwardingSampler" not in f.message for f in findings)
    assert all("checked_but_used" not in f.message for f in findings)


# ----------------------------------------------------------------------
# R012 — optimizer call-site contract
# ----------------------------------------------------------------------
def test_optpkg_expected_findings_exactly():
    findings = analyze("optpkg", select=["R012"])
    assert names(findings) == [
        ("R012", "drive.py", 13),  # suggest(history, 0.5)
        ("R012", "drive.py", 15),  # observe(obs, strict=True)
        ("R012", "impls.py", 17),  # DriftedOptimizer.suggest signature
    ]


def test_r012_ignores_non_optimizer_receivers():
    findings = analyze("optpkg", select=["R012"])
    assert all("thing" not in f.message for f in findings)


def test_r012_accepts_defaulted_keyword_only_params():
    findings = analyze("optpkg", select=["R012"])
    assert all("FlexibleOptimizer" not in f.message for f in findings)


# ----------------------------------------------------------------------
# R013 / R014 — checkpoint symmetry and clock flow
# ----------------------------------------------------------------------
def test_recpkg_expected_findings_exactly():
    findings = analyze("recpkg", select=["R013", "R014"])
    assert names(findings) == [
        ("R013", "records.py", 6),   # run_to_record writes `extra`
        ("R013", "records.py", 16),  # record_to_run reads `missing`
        ("R014", "records.py", 36),  # payload["when"] = stamp()
    ]


def test_r013_conditional_fields_with_get_are_symmetric():
    findings = analyze("recpkg", select=["R013"])
    assert all("state" not in f.message for f in findings)


def test_r014_perf_counter_durations_are_clean():
    findings = analyze("recpkg", select=["R014"])
    assert all("timing_to_payload" not in f.message for f in findings)


# ----------------------------------------------------------------------
# scoping
# ----------------------------------------------------------------------
def test_packages_are_analyzed_in_separate_scopes():
    """Analyzing all three packages together must not change any verdict:
    each top-level package is its own scope, so one package's attribute
    reads or helpers cannot rescue (or indict) another's."""
    combined = analyze("seedpkg", "recpkg", "optpkg")
    separate = (
        analyze("seedpkg", select=["R010", "R011"])
        + analyze("recpkg", select=["R013", "R014"])
        + analyze("optpkg", select=["R012"])
    )
    assert names(combined) == names(separate)


def test_program_rules_quiet_on_repo_src():
    """The production tree raises no R010–R014 finding."""
    repo_root = Path(__file__).resolve().parents[2]
    result = run_program_analysis(
        [repo_root / "src"],
        LintConfig(select=PROGRAM_RULES),
    )
    assert result.findings == []
