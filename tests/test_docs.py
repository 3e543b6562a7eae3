"""Documentation consistency: generated artifacts current, links resolving.

Three committed artifacts are generated from the live package and must not
drift: the README's methods table (owned by the registry), the markdown API
reference under ``docs/api/`` (owned by the docstrings), and the internal
links across the markdown documents.  Each check runs the same tool CI
runs, so a local failure here reproduces the docs job exactly.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent
TOOLS = REPO / "tools"


def run_tool(script: str, *args: str) -> subprocess.CompletedProcess:
    env_path = str(REPO / "src")
    return subprocess.run(
        [sys.executable, str(TOOLS / script), *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin:/usr/local/bin"},
        timeout=300,
    )


class TestGeneratedDocs:
    def test_readme_methods_table_is_current(self):
        proc = run_tool("update_readme_methods.py", "--check")
        assert proc.returncode == 0, proc.stderr or proc.stdout

    def test_api_reference_is_current(self):
        proc = run_tool("build_docs.py", "--check")
        assert proc.returncode == 0, proc.stderr or proc.stdout

    def test_internal_links_resolve(self):
        proc = run_tool("check_links.py")
        assert proc.returncode == 0, proc.stderr or proc.stdout

    def test_link_checker_catches_breakage(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("see [missing](no/such/file.md)\n", encoding="utf-8")
        proc = run_tool("check_links.py", str(bad))
        assert proc.returncode == 1
        assert "broken link" in proc.stderr


class TestArchitectureDoc:
    def test_architecture_names_every_package(self):
        text = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for package in ("graph/", "core/", "baselines/", "extensions/",
                        "api/", "parallel/", "server/", "storage/",
                        "workloads/", "eval/", "datasets/", "utils/"):
            assert package in text, f"ARCHITECTURE.md does not map {package}"

    def test_architecture_documents_both_data_flows(self):
        text = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert "query data flow" in text
        assert "update data flow" in text

    def test_architecture_documents_parallel_serving(self):
        text = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert "parallel serving data flow" in text
        assert "SharedCSRGraph" in text

    def test_architecture_documents_http_serving(self):
        text = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert "HTTP serving data flow" in text
        assert "SimRankHTTPApp" in text

    def test_architecture_documents_storage(self):
        text = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert "storage & recovery data flow" in text
        assert "PersistentGraphStore" in text

    def test_readme_links_architecture_and_docs(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        assert "(ARCHITECTURE.md)" in text
        assert "(docs/README.md)" in text
