"""Unit tests for ProbeSimConfig and the Theorem 2 error budget."""

import math

import pytest

from repro.core.config import ErrorBudget, ProbeSimConfig
from repro.errors import BudgetError, ConfigurationError


class TestErrorBudget:
    def test_split_satisfies_theorem2(self):
        budget = ErrorBudget.split(eps_a=0.1, c=0.6)
        sqrt_c = math.sqrt(0.6)
        lhs = budget.eps + (1 + budget.eps) / (1 - sqrt_c) * budget.eps_p + budget.eps_t / 2
        assert lhs <= 0.1 + 1e-12
        assert budget.slack >= -1e-12

    def test_split_fractions_consume_budget(self):
        budget = ErrorBudget.split(eps_a=0.2, c=0.6, sampling_fraction=0.5,
                                   truncation_fraction=0.3, pruning_fraction=0.2)
        assert budget.eps == pytest.approx(0.1)
        assert budget.eps_t == pytest.approx(2 * 0.3 * 0.2)
        assert budget.consumed == pytest.approx(0.2)

    def test_overfull_split_rejected(self):
        with pytest.raises(BudgetError):
            ErrorBudget.split(eps_a=0.1, c=0.6, sampling_fraction=0.8,
                              truncation_fraction=0.3, pruning_fraction=0.1)

    def test_direct_violation_rejected(self):
        with pytest.raises(BudgetError):
            ErrorBudget(eps_a=0.1, eps=0.2, eps_t=0.0001, eps_p=0.0001, c=0.6)

    def test_fraction_bounds(self):
        with pytest.raises(BudgetError):
            ErrorBudget.split(eps_a=0.1, c=0.6, sampling_fraction=0.0)
        with pytest.raises(BudgetError):
            ErrorBudget.split(eps_a=0.1, c=0.6, pruning_fraction=1.5)

    def test_sqrt_c(self):
        budget = ErrorBudget.split(eps_a=0.1, c=0.36)
        assert budget.sqrt_c == pytest.approx(0.6)


class TestProbeSimConfig:
    def test_defaults_valid(self):
        cfg = ProbeSimConfig()
        assert cfg.c == 0.6
        assert cfg.strategy == "hybrid"
        assert cfg.budget.slack >= -1e-12

    def test_walk_count_formula(self):
        cfg = ProbeSimConfig(eps_a=0.1, delta=0.01, c=0.6)
        eps = cfg.budget.eps
        expected = math.ceil(3 * 0.6 / eps**2 * math.log(1000 / 0.01))
        assert cfg.walk_count(1000) == expected

    def test_walk_count_monotone_in_eps(self):
        loose = ProbeSimConfig(eps_a=0.2).walk_count(1000)
        tight = ProbeSimConfig(eps_a=0.05).walk_count(1000)
        assert tight > loose

    def test_walk_count_override(self):
        cfg = ProbeSimConfig(num_walks=123)
        assert cfg.walk_count(10**6) == 123

    def test_walk_truncation_formula(self):
        cfg = ProbeSimConfig(eps_a=0.1, c=0.6)
        eps_t = cfg.budget.eps_t
        expected = math.ceil(math.log(eps_t) / math.log(math.sqrt(0.6)))
        assert cfg.walk_truncation() == expected

    def test_walk_truncation_override(self):
        assert ProbeSimConfig(max_walk_length=7).walk_truncation() == 7

    def test_no_prune_disables_threshold_and_truncation(self):
        cfg = ProbeSimConfig(prune=False)
        assert cfg.prune_threshold() == 0.0
        assert cfg.walk_truncation() >= 1000

    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError):
            ProbeSimConfig(strategy="magic")

    def test_invalid_backend(self):
        """The strategy alone picks the code path: there is no backend or
        engine knob to set."""
        with pytest.raises(TypeError):
            ProbeSimConfig(**{"backend": "cuda"})
        with pytest.raises(TypeError):
            ProbeSimConfig(engine="native")

    def test_invalid_probabilities(self):
        for kwargs in ({"c": 1.5}, {"eps_a": 0.0}, {"delta": 1.0}):
            with pytest.raises(ConfigurationError):
                ProbeSimConfig(**kwargs)

    def test_invalid_walk_overrides(self):
        with pytest.raises(ConfigurationError):
            ProbeSimConfig(num_walks=0)
        with pytest.raises(ConfigurationError):
            ProbeSimConfig(max_walk_length=-2)

    def test_invalid_switch_constant(self):
        with pytest.raises(ConfigurationError):
            ProbeSimConfig(hybrid_switch_constant=0.0)

    def test_with_overrides(self):
        cfg = ProbeSimConfig(eps_a=0.1)
        other = cfg.with_overrides(eps_a=0.2, strategy="basic")
        assert other.eps_a == 0.2
        assert other.strategy == "basic"
        assert cfg.eps_a == 0.1  # original untouched

    def test_frozen(self):
        cfg = ProbeSimConfig()
        with pytest.raises(AttributeError):
            cfg.c = 0.9
