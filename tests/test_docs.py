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
