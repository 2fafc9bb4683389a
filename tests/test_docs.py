"""The reproduction handbook stays healthy: docs exist, links resolve."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_handbook_files_exist():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
    assert (REPO_ROOT / "docs" / "anonymity-math.md").is_file()
    assert (REPO_ROOT / "docs" / "deployment.md").is_file()


def test_readme_links_the_handbook():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/anonymity-math.md" in readme
    assert "docs/deployment.md" in readme


def test_deployment_handbook_covers_the_fleet_recipe():
    # The operational page must keep its load-bearing sections: keygen,
    # the worked cross-host example, and the failure modes operators hit.
    handbook = (REPO_ROOT / "docs" / "deployment.md").read_text()
    for needle in (
        "keygen",
        "--transport secure",
        "--authorized-keys",
        "--coordinator-key",
        "Failure modes",
        "lease",
        "unauthorized static key",
    ):
        assert needle in handbook, f"deployment.md is missing {needle!r}"


def test_readme_maps_every_figure_to_an_experiment():
    # The figure-to-experiment table must cover the whole registry.
    from repro.experiments import experiment_names

    readme = (REPO_ROOT / "README.md").read_text()
    # Scenario-matrix cells (scn-*) register dynamically from spec files.
    for name in (n for n in experiment_names() if not n.startswith("scn-")):
        assert f"`{name}`" in readme, f"README table is missing experiment {name!r}"


def test_relative_doc_links_resolve():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_doc_links.py"), str(REPO_ROOT)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr + result.stdout


def test_environment_side_channels_are_pinned_at_four():
    # Every REPRO_* name the program mentions, and each one documented.  A
    # fifth variable is a new option: give it a flag or argue it in the docs
    # and extend this list on purpose.
    import re

    mentioned = set()
    for source in (REPO_ROOT / "src").rglob("*.py"):
        mentioned |= set(re.findall(r"REPRO_[A-Z_]+", source.read_text(encoding="utf-8")))
    assert mentioned == {
        "REPRO_SCENARIO_MATRIX",
        "REPRO_AIO_HOST",
        "REPRO_AIO_TRANSPORT",
        "REPRO_GF_KERNEL_PROVIDER",
    }
    documented = (REPO_ROOT / "docs" / "deployment.md").read_text(encoding="utf-8") + (
        REPO_ROOT / "docs" / "ARCHITECTURE.md"
    ).read_text(encoding="utf-8")
    for name in mentioned:
        assert name in documented, f"{name} is read by src/ but documented nowhere"


def _docstrings(path: Path):
    import ast

    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Module | ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef):
            docstring = ast.get_docstring(node)
            if docstring:
                yield docstring


def test_markdown_files_named_in_docstrings_exist():
    # A docstring that sends the reader to a page must name one that exists
    # (paths are relative to the repository root).
    import re

    sources = [*(REPO_ROOT / "src").rglob("*.py"), *(REPO_ROOT / "benchmarks").glob("*.py")]
    dangling = sorted(
        f"{source.relative_to(REPO_ROOT)}: {name}"
        for source in sources
        for docstring in _docstrings(source)
        for name in re.findall(r"[\w./-]+\.md\b", docstring)
        if not (REPO_ROOT / name).is_file()
    )
    assert not dangling, dangling


def test_test_citations_name_existing_tests():
    # A citation `tests/<file>.py::<name>` under src/, benchmarks/ or docs/
    # must name a test function that exists, so renaming or folding a test
    # cannot leave a docstring pointing at nothing.
    import ast
    import re

    sources = [
        *(REPO_ROOT / "src").rglob("*.py"),
        *(REPO_ROOT / "benchmarks").glob("*.py"),
        *(REPO_ROOT / "docs").rglob("*.md"),
    ]
    cited = {
        (source.relative_to(REPO_ROOT), path, name)
        for source in sources
        for path, name in re.findall(
            r"(tests/[\w/]+\.py)::(\w+)", source.read_text(encoding="utf-8")
        )
    }
    assert cited, "expected at least one citation"
    defined: dict[str, set[str]] = {}
    for _source, path, _name in cited:
        if path not in defined and (REPO_ROOT / path).is_file():
            tree = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
            defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    dangling = sorted(
        f"{source}: {path}::{name}"
        for source, path, name in cited
        if name not in defined.get(path, set())
    )
    assert not dangling, dangling
