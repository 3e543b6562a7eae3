"""Tests for the method registry and the registry-backed MethodSpec."""

import pytest

from repro.api import registry as reg
from repro.api import SimRankEstimator, capability_rows, create, get_entry, method_names
from repro.errors import ConfigurationError, EvaluationError
from repro.eval.runner import MethodSpec

#: the names the issue/paper experiments rely on.
CORE_NAMES = {"probesim", "probesim-hybrid", "sling", "tsf", "topsim", "mc", "power"}


class TestRegistry:
    def test_core_names_registered(self):
        assert CORE_NAMES <= set(method_names())

    def test_unknown_name_rejected(self, toy):
        with pytest.raises(ConfigurationError, match="unknown method"):
            create("linearized-simrank", toy)

    def test_unknown_config_key_rejected(self, toy):
        with pytest.raises(ConfigurationError, match="config keys"):
            create("power", toy, eps_a=0.1)

    def test_duplicate_registration_rejected(self):
        entry = get_entry("probesim")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("probesim", entry.factory, capabilities=entry.capabilities)

    def test_replace_allows_reregistration(self):
        entry = get_entry("probesim")
        replaced = reg.register(
            "probesim", entry.factory, summary=entry.summary,
            config_keys=entry.config_keys, probe_config=entry.probe_config,
            capabilities=entry.capabilities, replace=True,
        )
        assert replaced.name == "probesim"
        assert get_entry("probesim").config_keys == entry.config_keys
        assert get_entry("probesim").capabilities == entry.capabilities

    def test_create_builds_estimator(self, toy):
        estimator = create("probesim", toy, eps_a=0.2, seed=4, num_walks=40)
        assert isinstance(estimator, SimRankEstimator)

    def test_seed_accepted_by_deterministic_methods(self, toy):
        # deterministic methods ignore the seed but must accept the keyword
        # so generic callers can pass one config to every method
        assert isinstance(create("power", toy, seed=9), SimRankEstimator)
        assert isinstance(create("topsim", toy, seed=9), SimRankEstimator)

    def test_capability_rows_cover_registry(self):
        rows = capability_rows()
        assert {row["name"] for row in rows} == set(method_names())
        for row in rows:
            assert {"exact", "index", "dynamic", "incremental"} <= set(row)


class TestMethodSpecFromRegistry:
    def test_builds_fresh_conforming_instances(self, toy):
        spec = MethodSpec.from_registry(
            "probesim", toy, eps_a=0.2, seed=2, num_walks=40
        )
        assert spec.name == "probesim"
        first, second = spec.build(), spec.build()
        assert first is not second
        assert isinstance(first, SimRankEstimator)

    def test_label_overrides_display_name(self, toy):
        spec = MethodSpec.from_registry(
            "probesim", toy, label="probesim(eps=0.2)", eps_a=0.2, num_walks=40
        )
        assert spec.name == "probesim(eps=0.2)"

    def test_non_conforming_factory_rejected(self):
        spec = MethodSpec("broken", lambda: object())
        with pytest.raises(EvaluationError, match="protocol"):
            spec.build()
