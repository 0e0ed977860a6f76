"""Unit tests for the small helpers in :mod:`repro.serving.stats`.

``percentile`` and ``timeline_text`` feed every report table and CLI plot,
and ``FleetScaler.finalize`` closes the chip-seconds books that the
autoscaling cost/benefit headline rests on -- so their edge cases (empty
inputs, single samples, warm-up clipping) get pinned here directly instead
of only through end-to-end runs.
"""

import pytest

from _fake_fleet import fake_runtime, fake_scaler
from repro.serving import ControlConfig, percentile
from repro.serving.stats import ControlSample, ControlStats


class TestPercentile:
    def test_empty_input_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile((), 99) == 0.0

    def test_single_value_at_every_q(self):
        for q in (0, 25, 50, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_q_zero_is_min_and_q_hundred_is_max(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_q_outside_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)


def _control_stats(samples=()):
    return ControlStats(policy="fixed", min_chips=1, max_chips=4,
                        control_interval_s=0.1, warmup_s=0.05,
                        initial_chips=2, samples=list(samples))


class TestTimelineText:
    def test_empty_samples_render_empty(self):
        assert _control_stats().timeline_text() == ""

    def test_one_sample_renders_bar_and_numbers(self):
        sample = ControlSample(time_s=0.002, active=3, warming=1, draining=2,
                               desired_chips=4, queue_depth=17,
                               arrival_rate_rps=100.0, utilization=0.5,
                               est_queue_delay_s=0.001, violations=0, shed=0)
        text = _control_stats([sample]).timeline_text()
        assert text.count("\n") == 0  # one sample, one line
        assert "###~--" in text      # 3 active + 1 warming + 2 draining
        assert "chips=3+1" in text
        assert "queue=  17" in text
        assert "delay=" in text


class _FakeChipStats:
    provisioned_s = 0.0


class _FakeChip:
    """Duck-typed stand-in for fleet.Chip in finalize()."""

    def __init__(self, state, added_s, ready_s, retired_s=None):
        self.state = state
        self.added_s = added_s
        self.ready_s = ready_s
        self.retired_s = retired_s
        self.stats = _FakeChipStats()


class TestFinalizeChipSeconds:
    @staticmethod
    def _finalize(chips, end_s):
        config = ControlConfig(autoscale="threshold", min_chips=1,
                               max_chips=4)
        return fake_scaler(config, chips, fake_runtime()).finalize(end_s)

    def test_books_cover_warmup_and_retirement(self):
        chips = [
            # ready at t=1, never retired: provisioned to end, 1s of warm-up
            _FakeChip("active", added_s=0.0, ready_s=1.0),
            # retired at t=6: provisioned 4s, 1s of warm-up
            _FakeChip("retired", added_s=2.0, ready_s=3.0, retired_s=6.0),
            # retired mid-warm-up: warm-up clipped to the 1s it existed
            _FakeChip("retired", added_s=7.0, ready_s=9.0, retired_s=8.0),
        ]
        stats = self._finalize(chips, end_s=10.0)
        assert stats.chip_seconds_s == pytest.approx(10.0 + 4.0 + 1.0)
        assert stats.warmup_chip_seconds_s == pytest.approx(1.0 + 1.0 + 1.0)
        assert stats.final_chips == 1
        assert chips[0].stats.provisioned_s == pytest.approx(10.0)
        assert chips[1].stats.provisioned_s == pytest.approx(4.0)

    def test_warming_chips_count_toward_final_fleet(self):
        chips = [_FakeChip("active", 0.0, 0.5),
                 _FakeChip("warming", 9.0, 11.0)]
        stats = self._finalize(chips, end_s=10.0)
        assert stats.final_chips == 2
        # the warming chip's warm-up is clipped at end-of-run
        assert stats.warmup_chip_seconds_s == pytest.approx(0.5 + 1.0)
