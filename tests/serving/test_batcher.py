"""Batching policies: size caps, timeout deadlines, SLO-aware budgets."""

import pytest

from repro.serving import (
    Request,
    SizeCappedBatcher,
    SLOAwareBatcher,
    TimeoutBatcher,
    build_batch_policy,
)


def _req(i, t):
    return Request(request_id=i, target_vertex=i, arrival_time_s=t)


class TestSizeCappedBatcher:
    def test_flushes_exactly_at_size_cap(self):
        batcher = SizeCappedBatcher(max_batch_size=4)
        for i in range(3):
            assert batcher.add(_req(i, i * 0.1), now=i * 0.1) is None
        batch = batcher.add(_req(3, 0.3), now=0.3)
        assert batch is not None
        assert batch.size == 4
        assert batcher.pending_count == 0

    def test_never_deadline_based(self):
        batcher = SizeCappedBatcher(max_batch_size=4)
        batcher.add(_req(0, 0.0), now=0.0)
        assert batcher.next_deadline(1e9) is None
        assert batcher.flush_due(1e9) is None

    def test_explicit_flush_drains_pending(self):
        batcher = SizeCappedBatcher(max_batch_size=4)
        batcher.add(_req(0, 0.0), now=0.0)
        batch = batcher.flush(0.5)
        assert batch.size == 1
        assert batcher.flush(0.6) is None  # nothing left

    def test_batch_ids_increment(self):
        batcher = SizeCappedBatcher(max_batch_size=1)
        first = batcher.add(_req(0, 0.0), now=0.0)
        second = batcher.add(_req(1, 0.1), now=0.1)
        assert (first.batch_id, second.batch_id) == (0, 1)


class TestTimeoutBatcher:
    def test_deadline_is_oldest_arrival_plus_timeout(self):
        batcher = TimeoutBatcher(max_batch_size=8, timeout_s=0.5)
        batcher.add(_req(0, 1.0), now=1.0)
        batcher.add(_req(1, 1.2), now=1.2)
        assert batcher.next_deadline(1.2) == pytest.approx(1.5)

    def test_flush_due_respects_deadline(self):
        batcher = TimeoutBatcher(max_batch_size=8, timeout_s=0.5)
        batcher.add(_req(0, 1.0), now=1.0)
        assert batcher.flush_due(1.3) is None
        batch = batcher.flush_due(1.5)
        assert batch is not None and batch.size == 1

    def test_size_cap_still_applies(self):
        batcher = TimeoutBatcher(max_batch_size=2, timeout_s=100.0)
        batcher.add(_req(0, 0.0), now=0.0)
        batch = batcher.add(_req(1, 0.01), now=0.01)
        assert batch is not None and batch.size == 2

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            TimeoutBatcher(timeout_s=0.0)


class TestSLOAwareBatcher:
    def test_budget_shrinks_with_service_estimate(self):
        batcher = SLOAwareBatcher(max_batch_size=8, slo_s=1.0, safety_factor=1.0,
                                  ewma_alpha=1.0)
        batcher.add(_req(0, 0.0), now=0.0)
        lazy_deadline = batcher.next_deadline(0.0)
        batcher.observe_service_time(0.9)      # slow chips -> flush sooner
        tight_deadline = batcher.next_deadline(0.0)
        assert tight_deadline < lazy_deadline
        assert tight_deadline == pytest.approx(0.1)

    def test_exhausted_budget_flushes_immediately(self):
        batcher = SLOAwareBatcher(max_batch_size=8, slo_s=0.1, safety_factor=2.0)
        batcher.observe_service_time(0.2)      # 2x estimate > SLO: no headroom
        batcher.add(_req(0, 3.0), now=3.0)
        assert batcher.next_deadline(3.0) == pytest.approx(3.0)
        assert batcher.flush_due(3.0) is not None

    def test_ewma_tracks_observations(self):
        batcher = SLOAwareBatcher(slo_s=1.0, ewma_alpha=0.5)
        batcher.observe_service_time(0.2)
        batcher.observe_service_time(0.4)
        assert batcher.service_estimate_s == pytest.approx(0.3)

    def test_default_estimate_before_feedback(self):
        batcher = SLOAwareBatcher(slo_s=1.0)
        assert batcher.service_estimate_s == pytest.approx(0.25)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SLOAwareBatcher(slo_s=0.0)
        with pytest.raises(ValueError):
            SLOAwareBatcher(slo_s=1.0, ewma_alpha=0.0)


class TestBuildBatcher:
    def test_builds_every_policy(self):
        assert build_batch_policy("size").policy == "size"
        assert build_batch_policy("timeout").policy == "timeout"
        assert build_batch_policy("slo").policy == "slo"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_batch_policy("greedy")

    def test_invalid_size_cap_rejected(self):
        with pytest.raises(ValueError):
            build_batch_policy("size", max_batch_size=0)
