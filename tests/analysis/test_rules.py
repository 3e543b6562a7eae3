"""Rule-level tests over the fixture corpus.

Every rule has at least one known-bad fixture (positives asserted by exact
``(rule, path-suffix, line)`` location) and a known-good fixture (negatives
asserted by absence).  The corpus lives in ``tests/analysis/corpus`` and is
never imported — the analyzer reads it as source text.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze

CORPUS = Path(__file__).parent / "corpus"


@pytest.fixture(scope="module")
def corpus_report():
    return analyze([CORPUS], root=CORPUS)


@pytest.fixture(scope="module")
def locations(corpus_report):
    return {(f.rule, f.path, f.line) for f in corpus_report.findings}


@pytest.fixture(scope="module")
def keys(corpus_report):
    return {f.key for f in corpus_report.findings}


class TestDeterminismRule:
    EXPECTED = [
        ("determinism", "determinism_bad.py", 15),  # random.random()
        ("determinism", "determinism_bad.py", 19),  # default_rng() unseeded
        ("determinism", "determinism_bad.py", 23),  # default_rng(seed=None default)
        ("determinism", "determinism_bad.py", 27),  # np.random.rand legacy global
        ("determinism", "determinism_bad.py", 31),  # secrets.token_hex
        ("determinism", "determinism_bad.py", 35),  # time.time wall clock
    ]

    @pytest.mark.parametrize("expected", EXPECTED, ids=lambda e: f"line-{e[2]}")
    def test_positive_locations(self, locations, expected):
        assert expected in locations

    def test_no_findings_in_good_fixture(self, corpus_report):
        assert not [f for f in corpus_report.findings
                    if f.path == "determinism_good.py"]

    def test_keys_name_the_offending_call(self, keys):
        assert "draw_global:rng:random.random" in keys
        assert "draw_unseeded:default-rng:np.random.default_rng" in keys
        assert "machine_token:secrets:secrets.token_hex" in keys
        assert "stamp:wall-clock:time.time" in keys


class TestLockDisciplineRule:
    EXPECTED = [
        ("lock-discipline", "locking_bad.py", 13),  # hits += 1 unlocked
        ("lock-discipline", "locking_bad.py", 20),  # entries.append unlocked
        ("lock-discipline", "locking_bad.py", 29),  # inherited guard, subclass
    ]

    @pytest.mark.parametrize("expected", EXPECTED, ids=lambda e: f"line-{e[2]}")
    def test_positive_locations(self, locations, expected):
        assert expected in locations

    def test_with_lock_and_holds_lock_are_negative(self, corpus_report):
        bad_lines = {f.line for f in corpus_report.findings
                     if f.path == "locking_bad.py"}
        assert bad_lines == {13, 20, 29}

    def test_inherited_guard_key_uses_subclass_qualname(self, keys):
        assert "SubCounter.reset:hits" in keys


class TestResourceLifecycleRule:
    EXPECTED = [
        ("resource-lifecycle", "lifecycle_bad.py", 10),  # mmap leak
        ("resource-lifecycle", "lifecycle_bad.py", 18),  # SharedMemory leak
        ("resource-lifecycle", "lifecycle_bad.py", 24),  # Expr-statement drop
        ("resource-lifecycle", "storage/lifecycle_open_bad.py", 6),  # storage open
    ]

    @pytest.mark.parametrize("expected", EXPECTED, ids=lambda e: e[1] + f":{e[2]}")
    def test_positive_locations(self, locations, expected):
        assert expected in locations

    def test_every_accepted_pattern_is_negative(self, corpus_report):
        assert not [f for f in corpus_report.findings
                    if f.path == "lifecycle_good.py"]

    def test_fd_transferred_into_mmap_not_flagged(self, corpus_report):
        # leak_mapping opens an fd that is consumed by mmap.mmap(fd, ...):
        # only the mapping itself must be reported.
        keys = {f.key for f in corpus_report.findings
                if f.path == "lifecycle_bad.py"}
        assert "leak_mapping:mmap.mmap" in keys
        assert "leak_mapping:os.open" not in keys

    def test_plain_open_only_tracked_under_storage(self, corpus_report):
        # lifecycle_good.py (not under storage/) opens files freely; the
        # storage-scoped fixture is where open() leaks are reported.
        open_findings = [f for f in corpus_report.findings if f.key.endswith(":open")]
        assert {f.path for f in open_findings} == {"storage/lifecycle_open_bad.py"}


class TestApiContractRule:
    EXPECTED = [
        ("api-contract", "contract_caps_bad.py", 7),        # partial Capabilities
        ("api-contract", "server/contract_bad.py", 20),     # naked 500
        ("api-contract", "server/contract_bad.py", 24),     # unregistered 418
    ]

    @pytest.mark.parametrize("expected", EXPECTED, ids=lambda e: e[1] + f":{e[2]}")
    def test_positive_locations(self, locations, expected):
        assert expected in locations

    def test_full_capabilities_and_registered_statuses_pass(self, corpus_report):
        lines = {f.line for f in corpus_report.findings
                 if f.path == "server/contract_bad.py"}
        assert lines == {20, 24}
        caps = [f for f in corpus_report.findings
                if f.path == "contract_caps_bad.py"]
        assert [f.key for f in caps] == ["partial_caps:capabilities"]

    def test_capabilities_message_names_missing_fields(self, corpus_report):
        finding = next(f for f in corpus_report.findings
                       if f.key == "partial_caps:capabilities")
        for field in ("incremental_updates", "vectorized", "parallel_safe"):
            assert field in finding.message

    def test_envelope_checks_scoped_to_server_paths(self, corpus_report):
        envelope = [f for f in corpus_report.findings if ":envelope:" in f.key
                    or ":error-code:" in f.key]
        assert all(f.path.startswith("server/") for f in envelope)


class TestNoBareThreadRule:
    EXPECTED = [
        ("no-bare-thread", "threads_bad.py", 8),    # threading.Thread
        ("no-bare-thread", "threads_bad.py", 14),   # ThreadPoolExecutor
        ("no-bare-thread", "threads_bad.py", 18),   # threading.Timer
    ]

    @pytest.mark.parametrize("expected", EXPECTED, ids=lambda e: f"line-{e[2]}")
    def test_positive_locations(self, locations, expected):
        assert expected in locations

    def test_local_perf_timer_class_not_flagged(self, corpus_report):
        # The repo ships its own `Timer` perf context manager; only the
        # dotted `threading.Timer` form spawns and only it is reported.
        lines = {f.line for f in corpus_report.findings
                 if f.path == "threads_bad.py"}
        assert lines == {8, 14, 18}


class TestCorpusTotals:
    def test_exact_finding_count(self, corpus_report):
        # A new rule (or a loosened heuristic) shows up here first.
        assert len(corpus_report.findings) == 19

    def test_all_five_rules_fire(self, corpus_report):
        assert {f.rule for f in corpus_report.findings} == {
            "determinism",
            "lock-discipline",
            "resource-lifecycle",
            "api-contract",
            "no-bare-thread",
        }

    def test_findings_sorted_and_unique(self, corpus_report):
        identities = [f.identity() for f in corpus_report.findings]
        assert len(identities) == len(set(identities))
        assert corpus_report.findings == sorted(corpus_report.findings)
