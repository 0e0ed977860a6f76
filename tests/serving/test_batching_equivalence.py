"""Differential tests: array formation against the scalar reference oracle.

:class:`repro.serving.OverlapBatcher` scores its whole pending pool in one
broadcast compare per greedy step, and
:class:`repro.serving.ContinuousBatcher` scores every open batch at once
on a late join.  ``_batching_reference.py`` keeps the scalar formulation
(one ``np.mean`` per candidate).  Hypothesis drives both through the same
random ``add`` / ``flush`` / ``flush_due`` / ``try_join`` /
``on_service_start`` sequences over signatures drawn from a tiny alphabet,
so ties and partial overlaps are common, and checks they form the same
batches, in the same selection order, with the same union signatures and
the same late-join audit trail.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _batching_reference import (
    ReferenceContinuousBatcher,
    ReferenceOverlapBatcher,
)
from repro.serving import ContinuousBatcher, OverlapBatcher, Request

#: ``min_overlap`` floors; 0.25 sits exactly on the 4/16 boundary
FLOORS = (0.0, 0.25, 0.5, 0.99)
#: budgets and clock steps, seconds: steps straddle the budgets so
#: timeouts, join windows and staleness all bind within one sequence
BUDGETS_S = (1e-4, 3e-4, 1e-3)
STEPS_S = (0.0, 0.0, 1e-5, 2e-5, 5e-5, 2e-4)
#: distinct signatures per (width, alphabet): few, so requests often repeat
#: one exactly and tie
SIGNATURE_SEEDS = 12
OPS = ("add", "add", "add", "join", "join", "flush", "flush_due", "start")


def _recording(cls):
    """``cls`` that also logs every formed group's union signature."""
    class Recording(cls):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.unions = []

        def _register(self, batch, union_sig):
            self.unions.append(union_sig.copy())
            super()._register(batch, union_sig)
    return Recording


PAIRS = {
    "overlap": (_recording(OverlapBatcher),
                _recording(ReferenceOverlapBatcher)),
    "continuous": (_recording(ContinuousBatcher),
                   _recording(ReferenceContinuousBatcher)),
}


def _ids(batch):
    return None if batch is None else (batch.batch_id,
                                       [r.request_id for r in batch.requests])


def _assert_same_state(real, ref):
    assert [r.request_id for r in real._pending] == \
        [r.request_id for r in ref._pending]
    assert len(real.unions) == len(ref.unions)
    for got, want in zip(real.unions, ref.unions):
        assert np.array_equal(got, want)
    assert real.late_joins == ref.late_joins
    assert real.late_join_rejects == ref.late_join_rejects
    if isinstance(ref, ReferenceContinuousBatcher):
        assert real.join_log == ref.join_log
        assert list(real._open) == list(ref._open)
        for (got_batch, got), (want_batch, want) in zip(
                real._open.values(), ref._open.values()):
            assert _ids(got_batch) == _ids(want_batch)
            assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(),
       policy=st.sampled_from(sorted(PAIRS)),
       width=st.integers(1, 16),
       alphabet=st.integers(1, 4),
       max_batch_size=st.integers(1, 32),
       pool_factor=st.integers(1, 4),
       min_overlap=st.sampled_from(FLOORS),
       timeout_s=st.sampled_from(BUDGETS_S),
       join_window_s=st.sampled_from(BUDGETS_S),
       staleness_s=st.sampled_from(BUDGETS_S))
def test_array_formation_matches_scalar_reference(
        data, policy, width, alphabet, max_batch_size, pool_factor,
        min_overlap, timeout_s, join_window_s, staleness_s):
    steps = data.draw(st.lists(
        st.tuples(st.sampled_from(OPS), st.sampled_from(STEPS_S),
                  st.integers(0, SIGNATURE_SEEDS - 1), st.integers(0, 255)),
        min_size=40, max_size=200))
    sigs = {}

    def signature(request):
        return sigs[request.request_id]

    kwargs = dict(max_batch_size=max_batch_size, timeout_s=timeout_s,
                  signature_fn=signature, min_overlap=min_overlap,
                  pool_factor=pool_factor)
    if policy == "continuous":
        kwargs.update(join_window_s=join_window_s, staleness_s=staleness_s)
    real_cls, ref_cls = PAIRS[policy]
    real, ref = real_cls(**kwargs), ref_cls(**kwargs)
    emitted = []            # (real batch, reference batch), formation order
    now = 0.0
    for op, step, sig_seed, pick in steps:
        now += step
        if op in ("add", "join"):
            request = Request(request_id=len(sigs), target_vertex=len(sigs),
                              arrival_time_s=now)
            sigs[request.request_id] = np.random.default_rng(
                sig_seed).integers(0, alphabet, width).astype(np.uint64)
            if op == "join":
                got = real.try_join(request, now)
                want = ref.try_join(request, now)
                assert _ids(got) == _ids(want)
                if got is not None:
                    _assert_same_state(real, ref)
                    continue
            got, want = real.add(request, now), ref.add(request, now)
        elif op == "flush":
            got, want = real.flush(now), ref.flush(now)
        elif op == "flush_due":
            got, want = real.flush_due(now), ref.flush_due(now)
        else:
            if emitted:
                real_batch, ref_batch = emitted[pick % len(emitted)]
                real.on_service_start(real_batch)
                ref.on_service_start(ref_batch)
            got = want = None
        assert _ids(got) == _ids(want)
        if got is not None:
            emitted.append((got, want))
        _assert_same_state(real, ref)
    got, want = real.drain(now), ref.drain(now)
    assert [_ids(b) for b in got] == [_ids(b) for b in want]
    _assert_same_state(real, ref)


def _drain_both(real, ref, sigs, now=0.0):
    """Pool every signature in both batchers, then flush both dry,
    checking each emitted batch and the state after it; returns the
    batches as ``(batch_id, request ids)``."""
    emitted = []
    for i, sig in enumerate(sigs):
        request = Request(request_id=i, target_vertex=i, arrival_time_s=now)
        emitted.append(_ids(real.add(request, now)))
        assert emitted[-1] == _ids(ref.add(request, now))
        _assert_same_state(real, ref)
    while real.pending_count:
        emitted.append(_ids(real.flush(now)))
        assert emitted[-1] == _ids(ref.flush(now))
        _assert_same_state(real, ref)
    assert not ref.pending_count
    return [batch for batch in emitted if batch is not None]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), width=st.integers(1, 16),
       max_batch_size=st.integers(1, 32))
def test_steps_that_move_many_union_components(data, width, max_batch_size):
    """Formation keeps per-row counts of components equal to the union and
    recounts only the components a step changed.  Here a row is mostly
    "low" (values 0-1) or mostly "high" (2-3), so taking a low row into a
    high union changes most components at once, and the floor is ``k /
    width`` for a drawn ``k``: a candidate with exactly ``k`` equal
    components sits on it."""
    k = data.draw(st.integers(0, width))
    sigs = []
    for _ in range(data.draw(st.integers(2, 80))):
        low = data.draw(st.lists(st.booleans(), min_size=width,
                                 max_size=width))
        values = data.draw(st.lists(st.integers(0, 1), min_size=width,
                                    max_size=width))
        sigs.append(np.where(low, values, np.add(values, 2))
                    .astype(np.uint64))
    kwargs = dict(max_batch_size=max_batch_size, timeout_s=1e-3,
                  signature_fn=lambda request: sigs[request.request_id],
                  min_overlap=k / width, pool_factor=4)
    real_cls, ref_cls = PAIRS["overlap"]
    _drain_both(real_cls(**kwargs), ref_cls(**kwargs), sigs)


def test_a_floor_on_a_count_boundary_admits_the_candidate_on_it():
    """Width 16, floor 5/16.  Row 1 matches the anchor on exactly 5
    components and joins; taking it moves 11 union components to 0, so
    row 2 (all 0, no match with the anchor) now matches 11 and joins;
    row 3 matches 4 of the final all-0 union and stays out."""
    anchor = np.full(16, 5)
    sigs = [anchor, np.r_[[5] * 5, [0] * 11], np.zeros(16),
            np.r_[[0] * 4, [9] * 12]]
    sigs = [sig.astype(np.uint64) for sig in sigs]
    kwargs = dict(max_batch_size=4, timeout_s=1e-3,
                  signature_fn=lambda request: sigs[request.request_id],
                  min_overlap=5 / 16, pool_factor=2)
    real_cls, ref_cls = PAIRS["overlap"]
    real, ref = real_cls(**kwargs), ref_cls(**kwargs)
    assert _drain_both(real, ref, sigs) == [(0, [0, 1, 2]), (1, [3])]
    assert not real.unions[0].any()
