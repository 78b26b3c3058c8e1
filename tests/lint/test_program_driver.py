"""Driver: one parse and one AST walk per file, suppressions, config."""

import ast
import shutil
from pathlib import Path

from repro.lint import LintConfig
from repro.lint.program.driver import run_program_analysis
from repro.lint.program.graph import module_name_for

FIXTURES = Path(__file__).parent / "fixtures" / "program"


def copy_pkg(tmp_path: Path, name: str) -> Path:
    dst = tmp_path / name
    shutil.copytree(FIXTURES / name, dst)
    return dst


def run(paths):
    return run_program_analysis(paths, LintConfig())


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
def test_each_module_tree_is_walked_once(monkeypatch):
    """The per-file rules and the summary extraction share one
    ``ast.walk`` of each module instead of re-walking it per consumer."""
    walked: list[ast.Module] = []
    real_walk = ast.walk

    def counting_walk(node):
        if isinstance(node, ast.Module):
            walked.append(node)
        return real_walk(node)

    monkeypatch.setattr(ast, "walk", counting_walk)
    paths = [FIXTURES / name for name in ("seedpkg", "recpkg", "optpkg")]
    result = run(paths)
    n_files = sum(1 for path in paths for _ in path.rglob("*.py"))
    assert len(result.reports) == n_files > 0
    assert len(walked) == n_files
    assert len({id(tree) for tree in walked}) == n_files


def test_semantic_edit_through_warm_cache_updates_program_findings(tmp_path):
    """A one-file edit flows into the cross-module verdicts of the next
    run (every run is cold: there is no cache to keep warm)."""
    pkg = copy_pkg(tmp_path, "seedpkg")
    before = run([pkg])
    assert any(f.rule == "R010" for f in before.findings)
    flow = pkg / "flow.py"
    flow.write_text(
        flow.read_text().replace(
            "value = unrelated_value()", "value = derive_seed(seed)"
        )
    )
    after = run([pkg])
    assert not any(f.rule == "R010" for f in after.findings)


# ----------------------------------------------------------------------
# suppressions & config on program findings
# ----------------------------------------------------------------------
def test_program_findings_honor_inline_suppressions(tmp_path):
    pkg = tmp_path / "supp_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "class Dropper:\n"
        "    def __init__(self, seed=None):  "
        "# reprolint: disable=R011 kept on purpose for the fixture\n"
        "        self.extra = 1\n"
        "\n"
        "\n"
        "class LoudDropper:\n"
        "    def __init__(self, seed=None):\n"
        "        self.extra = 2\n"
    )
    result = run([pkg])
    report = next(r for r in result.reports if r.path.endswith("mod.py"))
    assert [f.rule for f in report.findings] == ["R011"]
    assert "LoudDropper" in report.findings[0].message
    assert [f.rule for f in report.suppressed] == ["R011"]
    assert "Dropper" in report.suppressed[0].message


def test_program_rules_respect_per_path_ignores(tmp_path):
    pkg = copy_pkg(tmp_path, "seedpkg")
    config = LintConfig(
        per_path_ignores={"seedpkg": ["R010", "R011"]}, root=tmp_path
    )
    result = run_program_analysis([pkg], config)
    assert not any(f.rule in ("R010", "R011") for f in result.findings)


# ----------------------------------------------------------------------
# module naming
# ----------------------------------------------------------------------
def test_module_name_walks_init_chain():
    module, package, is_init = module_name_for(FIXTURES / "seedpkg" / "flow.py")
    assert module == "seedpkg.flow" and package == "seedpkg" and not is_init
    module, package, is_init = module_name_for(FIXTURES / "seedpkg" / "__init__.py")
    assert module == "seedpkg" and is_init


def test_unreadable_file_yields_e001_not_crash(tmp_path):
    target = tmp_path / "undecodable.py"
    target.write_bytes(b"\xff\xfe\x00\x00 garbage \x00")
    result = run([tmp_path])
    rules = [f.rule for f in result.findings]
    assert rules.count("E001") == 1
