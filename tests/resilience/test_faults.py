"""FaultPlan: spec grammar, validation, determinism."""

import pytest

from repro.errors import ReproError, SampleFormatError
from repro.resilience.faults import FAULT_CLASSES, FaultPlan


class TestParse:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "drop=0.1,truncate=0.2:3,tagloss=0.05,corrupt=0.02,"
            "strip=0.15,seed=42"
        )
        assert plan.seed == 42
        assert plan.drop_rate == 0.1
        assert plan.truncate_rate == 0.2
        assert plan.truncate_depth == 3
        assert plan.tag_loss_rate == 0.05
        assert plan.corrupt_rate == 0.02
        assert plan.strip_rate == 0.15

    def test_truncate_default_depth(self):
        assert FaultPlan.parse("truncate=0.5").truncate_depth == 2

    def test_empty_spec_is_clean(self):
        assert FaultPlan.parse("").is_clean

    def test_whitespace_tolerated(self):
        plan = FaultPlan.parse(" drop = 0.1 , seed = 9 ")
        assert plan.drop_rate == 0.1 and plan.seed == 9

    @pytest.mark.parametrize(
        "bad",
        [
            "drop", "drop=abc", "nosuch=0.1", "drop=1.5", "truncate=0.1:0",
            # Locale crash and straggle faults are not simulated.
            "crash=1", "crash-rate=0.2", "straggle=2", "straggle-delay=0.05",
        ],
    )
    def test_bad_specs_raise_typed(self, bad):
        with pytest.raises(SampleFormatError):
            FaultPlan.parse(bad)
        with pytest.raises(ReproError):
            FaultPlan.parse(bad)


class TestPlan:
    def test_rates_validated_on_construction(self):
        with pytest.raises(SampleFormatError):
            FaultPlan(drop_rate=-0.1)
        with pytest.raises(SampleFormatError):
            FaultPlan(strip_rate=2.0)

    def test_with_rate_covers_every_class(self):
        for fault in FAULT_CLASSES:
            plan = FaultPlan().with_rate(fault, 0.25)
            assert not plan.is_clean

    def test_with_rate_unknown_class(self):
        with pytest.raises(SampleFormatError):
            FaultPlan().with_rate("meteor", 0.1)

    def test_for_locale_decorrelates_seeds(self):
        base = FaultPlan(seed=3, drop_rate=0.1)
        a, b = base.for_locale(0), base.for_locale(1)
        assert a.seed != b.seed
        assert a.drop_rate == b.drop_rate == 0.1
