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
