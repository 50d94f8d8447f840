"""The chaos campaign itself: survival, determinism, CLI exit codes."""

from repro.faults import ChaosReport, run_campaign


class TestChaosCampaign:
    def test_campaign_survives_at_twenty_percent(self):
        report = run_campaign(seed=0, iterations=4, max_rate=0.2)
        assert isinstance(report, ChaosReport)
        assert report.survived
        assert report.silent_corruptions == 0
        assert all(it.ok for it in report.iterations)
        # The campaign actually exercised the fault paths.
        assert sum(it.injected_channel_faults for it in report.iterations) > 0
        assert sum(it.guard_events for it in report.iterations) > 0
        assert sum(
            it.cache_corruptions_detected for it in report.iterations
        ) > 0

    def test_campaign_is_deterministic(self):
        a = run_campaign(seed=3, iterations=3)
        b = run_campaign(seed=3, iterations=3)
        assert a.describe() == b.describe()

    def test_report_describe_mentions_verdict(self):
        report = run_campaign(seed=1, iterations=2)
        text = report.describe()
        assert "verdict" in text
        assert "SILENT corruptions" in text

    def test_cli_exit_code(self):
        from repro.cli import main

        assert main(["chaos", "--seed", "0", "--iterations", "2"]) == 0

    def test_campaign_validates_arguments(self):
        import pytest

        with pytest.raises(ValueError):
            run_campaign(iterations=0)
        with pytest.raises(ValueError):
            run_campaign(max_rate=1.5)
