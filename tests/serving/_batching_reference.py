"""Scalar reference formation: the differential oracle for the array batchers.

This is overlap-aware formation as it was written before the pending
signatures became one matrix: signatures sit in a Python list parallel to
the pending requests, every greedy step scores each candidate with its own
scalar Jaccard estimate (``np.mean`` of the equal components), and a late
join scores each open batch the same way.  ``test_batching_equivalence.py``
drives it and :class:`repro.serving.OverlapBatcher` /
:class:`repro.serving.ContinuousBatcher` through the same operations and
checks they form the same batches with the same union signatures.
"""

from typing import Dict, List, Optional

import numpy as np

from repro.serving.batcher import Batch, Batcher
from repro.serving.batching import LateJoin

_EPS = 1e-12


def scalar_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Fraction of equal components of two equal-length signatures."""
    if sig_a.shape != sig_b.shape:
        raise ValueError("signatures must have the same length")
    return float(np.mean(sig_a == sig_b))


class ReferenceOverlapBatcher(Batcher):
    """Greedy overlap grouping, one scalar similarity per candidate."""

    def __init__(self, max_batch_size=32, timeout_s=5e-4, signature_fn=None,
                 min_overlap=0.0, pool_factor=4, tenant="",
                 policy="overlap"):
        super().__init__(max_batch_size=max_batch_size, policy=policy,
                         tenant=tenant)
        self.timeout_s = float(timeout_s)
        self.min_overlap = float(min_overlap)
        self.pool_size = int(pool_factor) * self.max_batch_size
        self._signature_fn = signature_fn
        self._sigs: List[np.ndarray] = []   # parallel to _pending

    def add(self, request, now):
        self._sigs.append(self._signature_fn(request))
        self._pending.append(request)
        if len(self._pending) >= self.pool_size:
            return self.flush(now)
        return None

    def next_deadline(self, now):
        if not self._pending:
            return None
        return self._pending[0].arrival_time_s + self.timeout_s

    def flush(self, now):
        if not self._pending:
            return None
        chosen, union_sig = self._form_group()
        chosen_set = set(chosen)
        requests = [self._pending[i] for i in chosen]
        keep = [i for i in range(len(self._pending)) if i not in chosen_set]
        self._pending = [self._pending[i] for i in keep]
        self._sigs = [self._sigs[i] for i in keep]
        batch = Batch(batch_id=self._next_batch_id, requests=requests,
                      created_time_s=now, tenant=self.tenant)
        self._next_batch_id += 1
        self._register(batch, union_sig)
        return batch

    def _form_group(self):
        union_sig = self._sigs[0].copy()
        chosen = [0]                        # selection order, anchor first
        candidates = list(range(1, len(self._pending)))
        while candidates and len(chosen) < self.max_batch_size:
            sims = np.array([scalar_jaccard(self._sigs[i], union_sig)
                             for i in candidates])
            best = int(np.argmax(sims))     # first max: arrival-order ties
            if self.min_overlap > 0.0 and sims[best] < self.min_overlap:
                break
            pick = candidates.pop(best)
            chosen.append(pick)
            union_sig = np.minimum(union_sig, self._sigs[pick])
        return chosen, union_sig

    def _register(self, batch, union_sig):
        pass


class ReferenceContinuousBatcher(ReferenceOverlapBatcher):
    """Overlap grouping plus late joins, one scalar similarity per batch."""

    def __init__(self, max_batch_size=32, timeout_s=5e-4, signature_fn=None,
                 min_overlap=0.0, pool_factor=4, join_window_s=5e-4,
                 staleness_s=1e-3, tenant=""):
        super().__init__(max_batch_size=max_batch_size, timeout_s=timeout_s,
                         signature_fn=signature_fn, min_overlap=min_overlap,
                         pool_factor=pool_factor, tenant=tenant,
                         policy="continuous")
        self.join_window_s = float(join_window_s)
        self.staleness_s = float(staleness_s)
        self._open: Dict[int, List] = {}    # batch_id -> [batch, union_sig]
        self.join_log: List[LateJoin] = []

    def try_join(self, request, now) -> Optional[Batch]:
        self._expire(now)
        best_sim = -1.0
        best_entry = None
        sig = None
        for entry in self._open.values():
            batch, union_sig = entry
            if batch.size >= self.max_batch_size:
                continue
            if now - batch.oldest_arrival_s > self.staleness_s + _EPS:
                continue
            if sig is None:
                sig = self._signature_fn(request)
            sim = scalar_jaccard(sig, union_sig)
            if self.min_overlap > 0.0 and sim < self.min_overlap:
                continue
            if sim > best_sim:      # strict: ties keep the oldest open batch
                best_sim = sim
                best_entry = entry
        if best_entry is None:
            if self._open:
                self.late_join_rejects += 1
            return None
        batch, union_sig = best_entry
        batch.requests.append(request)
        batch.late_joins += 1
        batch.profile = None
        self.late_joins += 1
        best_entry[1] = np.minimum(union_sig, sig)
        self.join_log.append(LateJoin(
            time_s=now, batch_id=batch.batch_id,
            batch_age_s=now - batch.created_time_s,
            oldest_wait_s=now - batch.oldest_arrival_s))
        return batch

    def on_service_start(self, batch):
        self._open.pop(batch.batch_id, None)

    def _register(self, batch, union_sig):
        self._open[batch.batch_id] = [batch, union_sig.copy()]

    def _expire(self, now):
        expired = [bid for bid, (batch, _) in self._open.items()
                   if now - batch.created_time_s > self.join_window_s + _EPS]
        for bid in expired:
            del self._open[bid]
