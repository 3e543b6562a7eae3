"""Tests for the analysis runner, baseline machinery, and visitor index."""

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, BaselineEntry, analyze, default_target
from repro.analysis.report import render_json, render_text
from repro.analysis.runner import collect_files, default_baseline_path
from repro.analysis.visitor import (
    DEFAULT_CAPABILITIES_FIELDS,
    ProjectIndex,
    SourceFile,
)
from repro.api.estimator import Capabilities
from repro.errors import AnalysisError, ReproError


def write(tmp_path: Path, name: str, body: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


class TestCollectFiles:
    def test_missing_path_is_config_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="does not exist"):
            collect_files([tmp_path / "nope.py"])

    def test_non_python_file_rejected(self, tmp_path):
        path = write(tmp_path, "notes.txt", "hello")
        with pytest.raises(AnalysisError, match="not a python file"):
            collect_files([path])

    def test_pycache_skipped_and_duplicates_collapsed(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "mod.py").write_text("x = 1\n")
        real = write(tmp_path, "mod.py", "x = 1\n")
        files = collect_files([tmp_path, real])
        assert files == [real.resolve()]

    def test_analysis_error_is_a_repro_error(self):
        assert issubclass(AnalysisError, ReproError)


class TestAnalyzeRunner:
    def test_parse_error_becomes_finding_not_crash(self, tmp_path):
        bad = write(tmp_path, "broken.py", "def oops(:\n")
        report = analyze([bad], root=tmp_path)
        assert report.files_scanned == 1
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.findings[0].path == "broken.py"
        assert report.findings[0].key == "<module>:parse"
        assert not report.is_clean()

    def test_clean_file_is_clean(self, tmp_path):
        good = write(tmp_path, "fine.py", "import time\n\nSTART = time.monotonic()\n")
        report = analyze([good], root=tmp_path)
        assert report.findings == []
        assert report.is_clean(strict=True)

    def test_duplicate_identities_get_suffixes(self, tmp_path):
        src = write(
            tmp_path,
            "dupes.py",
            """
            import random


            def draw() -> float:
                a = random.random()
                b = random.random()
                return a + b
            """,
        )
        report = analyze([src], root=tmp_path)
        keys = [f.key for f in report.findings]
        assert keys == ["draw:rng:random.random", "draw:rng:random.random#2"]

    def test_default_target_is_the_installed_package(self):
        target = default_target()
        assert target.name == "repro"
        assert (target / "analysis").is_dir()


class TestBaseline:
    def test_empty_baseline_suppresses_nothing(self, tmp_path):
        src = write(tmp_path, "mod.py", "import random\n\nX = random.random()\n")
        report = analyze([src], root=tmp_path)
        assert len(report.findings) == 1
        assert report.suppressed == []

    def test_matching_entry_suppresses(self, tmp_path):
        src = write(tmp_path, "mod.py", "import random\n\nX = random.random()\n")
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    rule="determinism",
                    path="mod.py",
                    key="<module>:rng:random.random",
                    justification="fixture",
                )
            ]
        )
        report = analyze([src], root=tmp_path, baseline=baseline)
        assert report.findings == []
        assert [f.key for f in report.suppressed] == ["<module>:rng:random.random"]
        assert report.stale_baseline == []
        assert report.is_clean(strict=True)

    def test_stale_entry_fails_only_under_strict(self, tmp_path):
        src = write(tmp_path, "mod.py", "X = 1\n")
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    rule="determinism",
                    path="gone.py",
                    key="gone:rng:random.random",
                    justification="obsolete",
                )
            ]
        )
        report = analyze([src], root=tmp_path, baseline=baseline)
        assert len(report.stale_baseline) == 1
        assert report.is_clean()
        assert not report.is_clean(strict=True)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "suppressions": [
                {"rule": "determinism", "path": "a.py", "key": "f:rng:random.random",
                 "justification": "because"},
            ],
        }))
        baseline = Baseline.load(path)
        assert [e.identity() for e in baseline.entries] == [
            ("determinism", "a.py", "f:rng:random.random")
        ]

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(AnalysisError, match="baseline"):
            Baseline.load(tmp_path / "nope.json")

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 2, "suppressions": []}))
        with pytest.raises(AnalysisError, match="version"):
            Baseline.load(path)

    def test_load_rejects_empty_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "suppressions": [
                {"rule": "r", "path": "p.py", "key": "k", "justification": "  "},
            ],
        }))
        with pytest.raises(AnalysisError, match="justification"):
            Baseline.load(path)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError):
            Baseline.load(path)

    def test_default_baseline_path(self, tmp_path):
        assert default_baseline_path(tmp_path) == tmp_path / ".analysis-baseline.json"


class TestReporters:
    @pytest.fixture()
    def report(self, tmp_path):
        src = write(tmp_path, "mod.py", "import random\n\nX = random.random()\n")
        return analyze([src], root=tmp_path)

    def test_text_report_has_location_and_summary(self, report):
        text = render_text(report)
        assert "mod.py:3:" in text
        assert "[determinism]" in text
        assert "1 finding(s)" in text

    def test_json_report_parses_and_carries_findings(self, report):
        payload = json.loads(render_json(report))
        assert payload["clean"] is False
        assert payload["files_scanned"] == 1
        assert payload["findings"][0]["rule"] == "determinism"
        assert payload["findings"][0]["path"] == "mod.py"

    def test_strict_text_mentions_stale_entries(self, tmp_path):
        src = write(tmp_path, "ok.py", "X = 1\n")
        baseline = Baseline(entries=[BaselineEntry("r", "gone.py", "k", "old")])
        report = analyze([src], root=tmp_path, baseline=baseline)
        text = render_text(report, strict=True)
        assert "stale" in text
        assert "gone.py" in text


class TestVisitorAnnotations:
    def make_index(self, tmp_path, body):
        path = write(tmp_path, "mod.py", body)
        src = SourceFile.load(path, "mod.py")
        return src, ProjectIndex.build([src])

    def test_trailing_and_standalone_guard_comments(self, tmp_path):
        src, index = self.make_index(
            tmp_path,
            """
            class Service:
                def __init__(self) -> None:
                    self.hits = 0  # guarded-by: _lock
                    # guarded-by: _lock
                    self.entries = {}
            """,
        )
        assert index.effective_guards("Service") == {
            "hits": "_lock",
            "entries": "_lock",
        }

    def test_guards_inherited_across_bases(self, tmp_path):
        src, index = self.make_index(
            tmp_path,
            """
            class Base:
                def __init__(self) -> None:
                    self.count = 0  # guarded-by: lock


            class Child(Base):
                pass
            """,
        )
        assert index.effective_guards("Child") == {"count": "lock"}

    def test_holds_lock_annotation_attaches_to_function(self, tmp_path):
        src, index = self.make_index(
            tmp_path,
            """
            class Service:
                # holds-lock: _lock
                def _bump(self) -> None:
                    self.hits += 1
            """,
        )
        assert src.holds_lock.get("Service._bump") == "_lock"

    def test_capabilities_fields_default_tuple_holds_every_field(self):
        assert DEFAULT_CAPABILITIES_FIELDS == tuple(
            field.name for field in dataclasses.fields(Capabilities)
        )
