"""Request-trace capture, compact codec, replay and workload characterisation.

The observability layer (:mod:`repro.serving.observe`) answers *where a
request spent its time*; this module answers *what traffic the fleet was
offered* -- and makes that stream a first-class, replayable artifact:

* :class:`TraceWriter` -- the offered stream of one run.  The end-to-end
  run functions (:func:`~repro.serving.fleet.run_serving`,
  :func:`~repro.serving.tenancy.run_multi_tenant`) record every *offered*
  request and update into it before serving, in the order the event loop
  serves them; the simulators never see it, so a captured run is the
  very same serve as an uncaptured one.  The trace records exactly the
  stream the run was asked to serve (including requests that were later
  shed), and replaying it through the same configuration reproduces the
  original :class:`~repro.serving.stats.ServingReport` bit-for-bit.

* A versioned compact file format: a gzip-framed binary container holding
  a JSON header (schema, tenant name table, free-form capture metadata, a
  CRC of the payload) followed by column-oriented little-endian numpy
  arrays -- about 26 bytes per request before compression, so a
  million-request trace is a few MB on disk.
  :func:`save_request_trace` / :func:`load_request_trace` are the codec;
  the loader schema-checks everything (magic, version, column dtypes,
  payload length, CRC, sortedness, value ranges) and raises
  :class:`TraceFormatError` on any malformed file, which the CLI turns
  into exit code 2 -- mirroring ``repro trace-report``.

* Replay: :meth:`RequestTrace.to_requests` reconstructs the identical
  :class:`~repro.serving.workload.Request` list (ids, targets, tenant
  tags, degradation stamps); ``repro serve --replay trace.bin`` feeds it
  through the ``arrival='trace'`` path (extended to carry per-request
  targets and shapes, see
  :meth:`repro.serving.workload.RequestGenerator.generate`).

* :func:`trace_stats` / :func:`format_trace_stats` -- the workload
  characterisation behind ``repro trace-stats``: arrival burstiness
  (squared coefficient of variation of inter-arrivals, index of
  dispersion of windowed counts), a Zipf fit of the target-popularity
  skew, per-tenant traffic shares and -- when the capture metadata names
  the dataset/sampling shape -- an overlap-potential histogram of minhash
  neighbourhood similarities (:mod:`repro.serving.sampler`) over
  popularity-weighted target pairs, which predicts how much dedup the
  overlap-aware batching policies could harvest from this traffic.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .workload import Request

__all__ = [
    "TRACE_VERSION",
    "TRACE_VERSION_UPDATES",
    "RequestTrace",
    "TraceFormatError",
    "TraceWriter",
    "format_trace_stats",
    "load_request_trace",
    "save_request_trace",
    "trace_stats",
]

#: Magic bytes opening every (decompressed) request-trace container.
TRACE_MAGIC = b"REPROTRC"

#: Format version written by this build for update-free captures; version
#: :data:`TRACE_VERSION_UPDATES` is written only when the capture recorded
#: graph-update events, so every pre-streaming trace stays byte-identical.
#: The loader accepts both.
TRACE_VERSION = 1

#: Format version carrying an update-event section after the request
#: columns (streaming runs -- see :mod:`repro.serving.streaming`).
TRACE_VERSION_UPDATES = 2

#: Column schema, in on-disk order.  ``tenant`` indexes the header's tenant
#: name table; ``degrade_hops``/``degrade_fanout`` use -1 for ``None`` (no
#: per-request sampling-shape override).
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("request_id", "<i8"),
    ("target_vertex", "<i8"),
    ("arrival_time_s", "<f8"),
    ("tenant", "<u4"),
    ("degrade_level", "<i2"),
    ("degrade_hops", "<i2"),
    ("degrade_fanout", "<i4"),
)

#: Update-event column schema (version-2 traces only).  ``kind`` indexes
#: :data:`repro.serving.streaming.UPDATE_KINDS`; ``src``/``dst`` use -1 for
#: "unused by this kind"; feature rows are *not* stored -- they are a
#: deterministic function of ``feature_seed`` (see
#: :func:`repro.serving.streaming.feature_row`), which is what keeps the
#: codec fixed-width and replay bit-exact.
_UPDATE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("update_id", "<i8"),
    ("kind", "<i2"),
    ("arrival_time_s", "<f8"),
    ("src", "<i8"),
    ("dst", "<i8"),
    ("feature_seed", "<i8"),
    ("tenant", "<u4"),
)

#: Overlap-potential histogram bin edges (estimated Jaccard similarity).
_OVERLAP_BINS = np.linspace(0.0, 1.0, 11)


class TraceFormatError(ValueError):
    """A request-trace file failed schema validation (truncated, corrupt,
    wrong magic/version, or inconsistent columns)."""


# --------------------------------------------------------------------------- #
# In-memory trace
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RequestTrace:
    """A captured request stream in columnar form.

    ``columns`` maps every name in the on-disk schema to one numpy array
    (all the same length); ``tenants`` is the tenant name table the
    ``tenant`` column indexes (``("",)`` for single-tenant captures);
    ``meta`` is the free-form JSON metadata the capturing harness stamped
    (dataset, model, sampling shape, seed, resolved arrival rate, ...).
    """

    columns: Dict[str, np.ndarray]
    tenants: Tuple[str, ...] = ("",)
    meta: Dict[str, object] = field(default_factory=dict)
    #: Update-event columns (:data:`_UPDATE_COLUMNS` schema); empty dict
    #: for update-free traces, which serialise as version 1 exactly as
    #: before streaming existed.
    updates: Dict[str, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_requests(cls, requests: Sequence[Request],
                      meta: Optional[Mapping[str, object]] = None,
                      updates: Sequence = ()) -> "RequestTrace":
        """Columnise a request list (the writer's and the tests' entry).

        ``updates`` is an optional sequence of
        :class:`~repro.serving.streaming.UpdateEvent` in arrival order.
        """
        tenants: List[str] = sorted({r.tenant for r in requests}
                                    | {e.tenant for e in updates} or {""})
        index = {name: i for i, name in enumerate(tenants)}
        n = len(requests)
        columns = {name: np.empty(n, dtype=dtype)
                   for name, dtype in _COLUMNS}
        for i, r in enumerate(requests):
            columns["request_id"][i] = r.request_id
            columns["target_vertex"][i] = r.target_vertex
            columns["arrival_time_s"][i] = r.arrival_time_s
            columns["tenant"][i] = index[r.tenant]
            columns["degrade_level"][i] = r.degrade_level
            columns["degrade_hops"][i] = \
                -1 if r.degrade_hops is None else r.degrade_hops
            columns["degrade_fanout"][i] = \
                -1 if r.degrade_fanout is None else r.degrade_fanout
        update_columns: Dict[str, np.ndarray] = {}
        if updates:
            from .streaming import UPDATE_KINDS
            m = len(updates)
            update_columns = {name: np.empty(m, dtype=dtype)
                              for name, dtype in _UPDATE_COLUMNS}
            for i, e in enumerate(updates):
                update_columns["update_id"][i] = e.update_id
                update_columns["kind"][i] = UPDATE_KINDS.index(e.kind)
                update_columns["arrival_time_s"][i] = e.arrival_time_s
                update_columns["src"][i] = e.src
                update_columns["dst"][i] = e.dst
                update_columns["feature_seed"][i] = e.feature_seed
                update_columns["tenant"][i] = index[e.tenant]
        return cls(columns=columns, tenants=tuple(tenants),
                   meta=dict(meta or {}), updates=update_columns)

    def to_update_events(self) -> List:
        """Reconstruct the identical update-event list the capture recorded
        (empty for update-free traces)."""
        if not self.updates:
            return []
        from .streaming import UPDATE_KINDS, UpdateEvent
        cols = self.updates
        return [
            UpdateEvent(
                update_id=int(cols["update_id"][i]),
                kind=UPDATE_KINDS[int(cols["kind"][i])],
                arrival_time_s=float(cols["arrival_time_s"][i]),
                src=int(cols["src"][i]),
                dst=int(cols["dst"][i]),
                feature_seed=int(cols["feature_seed"][i]),
                tenant=self.tenants[cols["tenant"][i]],
            )
            for i in range(self.num_updates)
        ]

    def to_requests(self) -> List[Request]:
        """Reconstruct the identical request list the capture recorded."""
        cols = self.columns
        hops = cols["degrade_hops"]
        fanout = cols["degrade_fanout"]
        return [
            Request(
                request_id=int(cols["request_id"][i]),
                target_vertex=int(cols["target_vertex"][i]),
                arrival_time_s=float(cols["arrival_time_s"][i]),
                tenant=self.tenants[cols["tenant"][i]],
                degrade_level=int(cols["degrade_level"][i]),
                degrade_hops=None if hops[i] < 0 else int(hops[i]),
                degrade_fanout=None if fanout[i] < 0 else int(fanout[i]),
            )
            for i in range(self.num_requests)
        ]

    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        return int(self.columns["arrival_time_s"].size)

    @property
    def num_updates(self) -> int:
        if not self.updates:
            return 0
        return int(self.updates["arrival_time_s"].size)

    @property
    def duration_s(self) -> float:
        """First to last arrival (0 for traces of fewer than 2 requests)."""
        times = self.columns["arrival_time_s"]
        return float(times[-1] - times[0]) if times.size > 1 else 0.0

    @property
    def mean_rate_rps(self) -> float:
        """Mean offered rate: N arrivals span N-1 inter-arrival gaps."""
        span = self.duration_s
        return (self.num_requests - 1) / span if span > 0 else 0.0

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        """Non-empty tenant names that tag a request or an update."""
        used = np.union1d(self.columns["tenant"],
                          self.updates.get("tenant", np.empty(0, np.uint32)))
        return tuple(name for i in used.tolist()
                     if (name := self.tenants[i]))

    @property
    def multi_tenant(self) -> bool:
        return bool(self.tenant_names)

    def save(self, path: str) -> None:
        save_request_trace(path, self)


class TraceWriter:
    """The offered request and update streams of one run, and their metadata.

    Pass one as ``capture=`` to :func:`~repro.serving.fleet.run_serving` /
    :func:`~repro.serving.tenancy.run_multi_tenant`: before serving, it
    records the ``requests`` and ``updates`` it offers, in the order the
    event loop serves them; the simulators never see the writer.
    ``meta`` is free-form JSON-serialisable capture metadata; the run
    functions stamp the workload/sampling parameters a later
    ``trace-stats`` or replay needs.
    """

    def __init__(self, meta: Optional[Mapping[str, object]] = None):
        self.meta: Dict[str, object] = dict(meta or {})
        self.requests: List[Request] = []
        self.updates: List = []

    @property
    def num_recorded(self) -> int:
        return len(self.requests)

    def write(self, path: str) -> RequestTrace:
        """Columnise and save the capture; returns the trace written."""
        trace = RequestTrace.from_requests(self.requests, meta=self.meta,
                                           updates=self.updates)
        save_request_trace(path, trace)
        return trace


# --------------------------------------------------------------------------- #
# Codec
# --------------------------------------------------------------------------- #
def save_request_trace(path: str, trace: RequestTrace) -> None:
    """Write ``trace`` to ``path`` in the versioned gzip-framed format.

    Layout inside the gzip frame: 8-byte magic, little-endian uint16
    version, uint32 header length, JSON header, then the columns'
    little-endian bytes concatenated in schema order.  The header carries
    the request count, tenant table, column schema, free-form metadata and
    a CRC32 of the column payload (gzip's own CRC catches truncation; the
    header CRC catches payload corruption that re-frames cleanly).
    """
    n = trace.num_requests
    payload = b""
    for name, dtype in _COLUMNS:
        column = np.ascontiguousarray(trace.columns[name], dtype=dtype)
        if column.size != n:
            raise ValueError(f"column {name!r} has {column.size} entries, "
                             f"expected {n}")
        payload += column.tobytes()
    m = trace.num_updates
    version = TRACE_VERSION_UPDATES if m else TRACE_VERSION
    if m:
        for name, dtype in _UPDATE_COLUMNS:
            column = np.ascontiguousarray(trace.updates[name], dtype=dtype)
            if column.size != m:
                raise ValueError(f"update column {name!r} has "
                                 f"{column.size} entries, expected {m}")
            payload += column.tobytes()
    header = {
        "num_requests": n,
        "tenants": list(trace.tenants),
        "columns": [[name, dtype] for name, dtype in _COLUMNS],
        "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        "meta": trace.meta,
    }
    if m:
        # keys only present on version-2 traces, so version-1 files stay
        # byte-identical to what pre-streaming builds wrote
        header["num_updates"] = m
        header["update_columns"] = [[name, dtype]
                                    for name, dtype in _UPDATE_COLUMNS]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    frame = (TRACE_MAGIC
             + np.uint16(version).tobytes()
             + np.uint32(len(header_bytes)).tobytes()
             + header_bytes + payload)
    # mtime=0 and an empty FNAME keep the gzip frame deterministic: saving
    # the same trace under any path at any time is byte-identical
    with open(path, "wb") as handle:
        with gzip.GzipFile(filename="", fileobj=handle, mode="wb",
                           mtime=0) as gz:
            gz.write(frame)


def load_request_trace(path: str) -> RequestTrace:
    """Read and schema-validate a request trace written by
    :func:`save_request_trace`.

    Raises :class:`TraceFormatError` on any malformed file: not gzip, bad
    magic, unknown version, truncated frame, corrupt payload (CRC), column
    schema drift, or semantically invalid columns (negative / unsorted
    arrival times, out-of-range tenant indices, invalid degradation
    stamps).  A plain-JSON file gets a pointed hint that span traces
    belong to ``repro trace-report``, not here.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if not raw.startswith(b"\x1f\x8b"):
        head = raw.lstrip()[:1]
        if head in (b"{", b"["):
            raise TraceFormatError(
                f"{path}: looks like a JSON span trace (serve --trace-out); "
                f"use `repro trace-report`, request traces come from "
                f"`serve --trace-capture`")
        raise TraceFormatError(f"{path}: not a gzip-framed request trace")
    try:
        frame = gzip.decompress(raw)
    except (OSError, EOFError, zlib.error) as exc:
        raise TraceFormatError(
            f"{path}: truncated or corrupt gzip frame ({exc})") from exc
    if len(frame) < len(TRACE_MAGIC) + 6:
        raise TraceFormatError(f"{path}: frame shorter than the fixed header")
    if frame[:len(TRACE_MAGIC)] != TRACE_MAGIC:
        raise TraceFormatError(
            f"{path}: bad magic {frame[:len(TRACE_MAGIC)]!r} "
            f"(expected {TRACE_MAGIC!r})")
    offset = len(TRACE_MAGIC)
    version = int(np.frombuffer(frame, dtype="<u2", count=1,
                                offset=offset)[0])
    if version not in (TRACE_VERSION, TRACE_VERSION_UPDATES):
        raise TraceFormatError(
            f"{path}: format version {version}, this build reads versions "
            f"{TRACE_VERSION} and {TRACE_VERSION_UPDATES}")
    offset += 2
    header_len = int(np.frombuffer(frame, dtype="<u4", count=1,
                                   offset=offset)[0])
    offset += 4
    if len(frame) < offset + header_len:
        raise TraceFormatError(f"{path}: truncated header")
    try:
        header = json.loads(frame[offset:offset + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path}: malformed header JSON "
                               f"({exc})") from exc
    offset += header_len
    if not isinstance(header, dict):
        raise TraceFormatError(f"{path}: header is not a JSON object")
    declared = [tuple(c) for c in header.get("columns", [])]
    if declared != list(_COLUMNS):
        raise TraceFormatError(
            f"{path}: column schema {declared} does not match this build's "
            f"{list(_COLUMNS)}")
    n = header.get("num_requests")
    if not isinstance(n, int) or n < 0:
        raise TraceFormatError(f"{path}: invalid num_requests {n!r}")
    tenants = header.get("tenants")
    if (not isinstance(tenants, list) or not tenants
            or not all(isinstance(t, str) for t in tenants)):
        raise TraceFormatError(f"{path}: invalid tenant table {tenants!r}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceFormatError(f"{path}: invalid meta {type(meta).__name__}")
    m = 0
    if version == TRACE_VERSION_UPDATES:
        declared_updates = [tuple(c) for c in header.get("update_columns",
                                                         [])]
        if declared_updates != list(_UPDATE_COLUMNS):
            raise TraceFormatError(
                f"{path}: update-column schema {declared_updates} does not "
                f"match this build's {list(_UPDATE_COLUMNS)}")
        m = header.get("num_updates")
        if not isinstance(m, int) or m < 1:
            raise TraceFormatError(f"{path}: invalid num_updates {m!r} "
                                   f"(version-2 traces carry >= 1 update)")
    payload = frame[offset:]
    expected = sum(n * np.dtype(dtype).itemsize for _, dtype in _COLUMNS) \
        + sum(m * np.dtype(dtype).itemsize for _, dtype in _UPDATE_COLUMNS)
    if len(payload) != expected:
        raise TraceFormatError(
            f"{path}: payload is {len(payload)} bytes, schema expects "
            f"{expected} for {n} requests and {m} updates "
            f"(truncated or padded)")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    if crc != header.get("crc32"):
        raise TraceFormatError(
            f"{path}: payload CRC {crc:#010x} does not match the header's "
            f"{header.get('crc32')!r} (corrupt payload)")
    columns: Dict[str, np.ndarray] = {}
    pos = 0
    for name, dtype in _COLUMNS:
        width = n * np.dtype(dtype).itemsize
        columns[name] = np.frombuffer(payload[pos:pos + width], dtype=dtype)
        pos += width
    update_columns: Dict[str, np.ndarray] = {}
    if m:
        for name, dtype in _UPDATE_COLUMNS:
            width = m * np.dtype(dtype).itemsize
            update_columns[name] = np.frombuffer(payload[pos:pos + width],
                                                 dtype=dtype)
            pos += width
    _validate_columns(path, columns, tuple(tenants))
    if m:
        _validate_update_columns(path, update_columns, tuple(tenants))
    return RequestTrace(columns=columns, tenants=tuple(tenants), meta=meta,
                        updates=update_columns)


def _validate_update_columns(path: str, columns: Dict[str, np.ndarray],
                             tenants: Tuple[str, ...]) -> None:
    """Semantic checks on the decoded update-event section."""
    from .streaming import UPDATE_KINDS
    times = columns["arrival_time_s"]
    if not np.isfinite(times).all() or float(times.min()) < 0:
        raise TraceFormatError(
            f"{path}: update arrival times must be finite and non-negative")
    if np.any(np.diff(times) < 0):
        raise TraceFormatError(f"{path}: update arrival times are not sorted")
    kinds = columns["kind"]
    if int(kinds.min()) < 0 or int(kinds.max()) >= len(UPDATE_KINDS):
        raise TraceFormatError(
            f"{path}: update kind index outside {list(UPDATE_KINDS)}")
    if int(columns["tenant"].max()) >= len(tenants):
        raise TraceFormatError(
            f"{path}: update tenant index outside the "
            f"{len(tenants)}-entry tenant table")
    for name in ("src", "dst"):
        if int(columns[name].min()) < -1:
            raise TraceFormatError(
                f"{path}: update {name} below the -1 'unused' sentinel")


def _validate_columns(path: str, columns: Dict[str, np.ndarray],
                      tenants: Tuple[str, ...]) -> None:
    """Semantic checks on decoded columns (the schema checks already ran)."""
    times = columns["arrival_time_s"]
    if times.size:
        if not np.isfinite(times).all() or float(times.min()) < 0:
            raise TraceFormatError(
                f"{path}: arrival times must be finite and non-negative")
        if np.any(np.diff(times) < 0):
            raise TraceFormatError(f"{path}: arrival times are not sorted")
    if columns["tenant"].size and \
            int(columns["tenant"].max()) >= len(tenants):
        raise TraceFormatError(
            f"{path}: tenant index {int(columns['tenant'].max())} outside "
            f"the {len(tenants)}-entry tenant table")
    if columns["degrade_level"].size and \
            int(columns["degrade_level"].min()) < 0:
        raise TraceFormatError(f"{path}: negative degrade_level")
    for name in ("degrade_hops", "degrade_fanout"):
        if columns[name].size and int(columns[name].min()) < -1:
            raise TraceFormatError(
                f"{path}: {name} below the -1 'no override' sentinel")


# --------------------------------------------------------------------------- #
# Workload characterisation (repro trace-stats)
# --------------------------------------------------------------------------- #
def _zipf_fit(counts: np.ndarray) -> Tuple[float, float]:
    """Least-squares Zipf exponent and R^2 of log(freq) on log(rank).

    ``counts`` are per-unique-target frequencies (any order).  Returns
    ``(0.0, 1.0)`` when fewer than two distinct ranks exist (a constant
    has nothing to fit).
    """
    freqs = np.sort(counts.astype(np.float64))[::-1]
    if freqs.size < 2:
        return 0.0, 1.0
    log_rank = np.log(np.arange(1, freqs.size + 1, dtype=np.float64))
    log_freq = np.log(freqs)
    slope, intercept = np.polyfit(log_rank, log_freq, 1)
    predicted = slope * log_rank + intercept
    ss_res = float(np.sum((log_freq - predicted) ** 2))
    ss_tot = float(np.sum((log_freq - log_freq.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2


def _arrival_section(times: np.ndarray, windows: int) -> Dict[str, object]:
    """Burstiness statistics of one arrival-time vector."""
    n = int(times.size)
    span = float(times[-1] - times[0]) if n > 1 else 0.0
    section: Dict[str, object] = {
        "requests": n,
        "duration_s": span,
        "mean_rate_rps": (n - 1) / span if span > 0 else 0.0,
        "cv2_interarrival": 0.0,
        "index_of_dispersion": 0.0,
        "windows": 0,
        "peak_to_mean_rate": 0.0,
    }
    if n < 2 or span <= 0:
        return section
    gaps = np.diff(times)
    mean_gap = float(gaps.mean())
    if mean_gap > 0:
        # CV^2 of inter-arrival times: 1 for Poisson, >1 for bursty
        section["cv2_interarrival"] = float(gaps.var() / mean_gap ** 2)
    windows = max(1, min(int(windows), n))
    counts, _ = np.histogram(times, bins=windows,
                             range=(float(times[0]), float(times[-1])))
    mean_count = float(counts.mean())
    if mean_count > 0:
        # index of dispersion of counts: ~1 for Poisson, >1 for bursty
        section["index_of_dispersion"] = float(counts.var() / mean_count)
        section["peak_to_mean_rate"] = float(counts.max() / mean_count)
    section["windows"] = windows
    return section


def _popularity_section(targets: np.ndarray, top_k: int) -> Dict[str, object]:
    """Target-popularity skew statistics of one target-vertex vector."""
    if targets.size == 0:
        return {"unique_targets": 0, "top_k": 0, "top_k_share": 0.0,
                "zipf_exponent": 0.0, "zipf_r2": 1.0, "top_targets": []}
    unique, counts = np.unique(targets, return_counts=True)
    # most popular first; ties break on the lower vertex id (np.unique
    # returns sorted vertices, and stable argsort keeps that order)
    order = np.argsort(-counts, kind="stable")
    unique, counts = unique[order], counts[order]
    k = min(int(top_k), unique.size)
    exponent, r2 = _zipf_fit(counts)
    return {
        "unique_targets": int(unique.size),
        "top_k": k,
        "top_k_share": float(counts[:k].sum() / targets.size),
        "zipf_exponent": exponent,
        "zipf_r2": r2,
        "top_targets": [[int(v), int(c)]
                        for v, c in zip(unique[:k], counts[:k])],
    }


def _default_sampler_factory(meta: Mapping[str, object]):
    """Build the sampler ``trace-stats`` scores overlap with, from capture
    metadata (dataset + sampling shape + seed)."""
    from ..graphs.datasets import load_dataset
    from .sampler import SubgraphSampler
    graph = load_dataset(str(meta["dataset"]), seed=int(meta.get("seed", 0)))
    return SubgraphSampler(graph, num_hops=int(meta.get("num_hops", 2)),
                           fanout=int(meta.get("fanout", 8)),
                           seed=int(meta.get("seed", 0)))


def _overlap_section(targets: np.ndarray, meta: Mapping[str, object],
                     max_targets: int, max_pairs: int,
                     sampler_factory) -> Optional[Dict[str, object]]:
    """Overlap-potential histogram from minhash neighbourhood signatures.

    Signatures are computed for the ``max_targets`` most popular targets;
    ``max_pairs`` target pairs are drawn (seeded, popularity-weighted, so
    the histogram reflects the pairs a batcher would actually see) and
    their estimated Jaccard similarities are binned.  Returns ``None``
    when the metadata names no dataset (nothing to sample against).
    """
    from .sampler import estimate_jaccard
    if targets.size == 0 or not meta.get("dataset"):
        return None
    sampler = sampler_factory(meta)
    unique, counts = np.unique(targets, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    unique, counts = unique[order], counts[order]
    kept = min(int(max_targets), unique.size)
    unique, counts = unique[:kept], counts[:kept]
    signatures = np.stack([sampler.signature(int(v)) for v in unique])
    weights = counts / counts.sum()
    rng = np.random.default_rng(0)
    similarities = np.empty(0)
    if kept >= 2 and max_pairs > 0:
        left = rng.choice(kept, size=int(max_pairs), p=weights)
        right = rng.choice(kept, size=int(max_pairs), p=weights)
        distinct = left != right            # self-pairs carry no signal
        similarities = estimate_jaccard(signatures[left[distinct]],
                                        signatures[right[distinct]])
    hist, _ = np.histogram(similarities, bins=_OVERLAP_BINS)
    return {
        "dataset": meta.get("dataset"),
        "num_hops": int(meta.get("num_hops", 2)),
        "fanout": int(meta.get("fanout", 8)),
        "signature_targets": kept,
        "coverage": float(counts.sum() / targets.size),
        "pairs": int(similarities.size),
        "mean_jaccard": float(np.mean(similarities)) if similarities.size
        else 0.0,
        "histogram": [[round(float(lo), 1), round(float(hi), 1), int(c)]
                      for lo, hi, c in zip(_OVERLAP_BINS[:-1],
                                           _OVERLAP_BINS[1:], hist)],
    }


def trace_stats(trace: RequestTrace, *, windows: int = 20, top_k: int = 8,
                max_targets: int = 64, max_pairs: int = 256,
                include_overlap: bool = True,
                sampler_factory=_default_sampler_factory) -> Dict[str, object]:
    """Workload-characterisation report of a captured request trace.

    Deterministic: every sampled quantity (overlap pairs) is seeded.  The
    overlap section needs the capture metadata to name a dataset and
    sampling shape (single-tenant captures stamp them at the top level,
    multi-tenant captures per tenant under ``meta['tenants']``); pass
    ``include_overlap=False`` to skip it (no dataset load).
    """
    times = trace.columns["arrival_time_s"]
    targets = trace.columns["target_vertex"]
    tenant_col = trace.columns["tenant"]
    levels = trace.columns["degrade_level"]
    stats: Dict[str, object] = {
        "num_requests": trace.num_requests,
        "tenants": list(trace.tenant_names),
        "meta": dict(trace.meta),
        "arrivals": _arrival_section(times, windows),
        "popularity": _popularity_section(targets, top_k),
        "degraded": {
            "requests": int(np.count_nonzero(levels > 0)),
            "rate": float(np.count_nonzero(levels > 0)
                          / max(trace.num_requests, 1)),
        },
    }
    per_tenant_meta: Dict[str, Mapping[str, object]] = {}
    for entry in trace.meta.get("tenants", []) or []:
        if isinstance(entry, Mapping) and entry.get("name"):
            per_tenant_meta[str(entry["name"])] = entry
    per_tenant: List[Dict[str, object]] = []
    if trace.multi_tenant:
        for name in trace.tenant_names:
            mask = tenant_col == trace.tenants.index(name)
            row: Dict[str, object] = {
                "tenant": name,
                "requests": int(np.count_nonzero(mask)),
                "share": float(np.count_nonzero(mask)
                               / max(trace.num_requests, 1)),
                "arrivals": _arrival_section(times[mask], windows),
                "popularity": _popularity_section(targets[mask], top_k),
            }
            if include_overlap and name in per_tenant_meta:
                row["overlap"] = _overlap_section(
                    targets[mask], per_tenant_meta[name],
                    max_targets, max_pairs, sampler_factory)
            per_tenant.append(row)
        stats["per_tenant"] = per_tenant
        stats["overlap"] = None
    else:
        stats["per_tenant"] = []
        stats["overlap"] = _overlap_section(
            targets, trace.meta, max_targets, max_pairs,
            sampler_factory) if include_overlap else None
    return stats


def format_trace_stats(stats: Mapping[str, object]) -> str:
    """Render :func:`trace_stats` output as the CLI's text summary."""
    arrivals = stats["arrivals"]
    popularity = stats["popularity"]
    lines = [f"request trace: {stats['num_requests']} requests"
             + (f", tenants: {', '.join(stats['tenants'])}"
                if stats["tenants"] else "")]
    lines.append("")
    lines.append(f"arrivals: {arrivals['duration_s']:.6f} s, "
                 f"mean {arrivals['mean_rate_rps']:.1f} rps")
    lines.append(f"  burstiness: CV^2(interarrival) = "
                 f"{arrivals['cv2_interarrival']:.3f}, "
                 f"index of dispersion = "
                 f"{arrivals['index_of_dispersion']:.3f} "
                 f"over {arrivals['windows']} windows "
                 f"(Poisson ~ 1), peak/mean window rate = "
                 f"{arrivals['peak_to_mean_rate']:.2f}")
    lines.append(f"popularity: {popularity['unique_targets']} unique "
                 f"targets, top-{popularity['top_k']} share = "
                 f"{100 * popularity['top_k_share']:.1f}%, "
                 f"zipf exponent = {popularity['zipf_exponent']:.3f} "
                 f"(R^2 {popularity['zipf_r2']:.3f})")
    degraded = stats["degraded"]
    if degraded["requests"]:
        lines.append(f"degraded: {degraded['requests']} requests "
                     f"({100 * degraded['rate']:.1f}%) carry "
                     f"control-plane fidelity stamps")
    for row in stats.get("per_tenant", []):
        tenant_arrivals = row["arrivals"]
        tenant_popularity = row["popularity"]
        lines.append("")
        lines.append(f"tenant {row['tenant']}: {row['requests']} requests "
                     f"({100 * row['share']:.1f}%), "
                     f"mean {tenant_arrivals['mean_rate_rps']:.1f} rps, "
                     f"IoD {tenant_arrivals['index_of_dispersion']:.2f}, "
                     f"zipf {tenant_popularity['zipf_exponent']:.2f}")
        if row.get("overlap"):
            lines.extend(_format_overlap(row["overlap"], indent="  "))
    if stats.get("overlap"):
        lines.append("")
        lines.extend(_format_overlap(stats["overlap"]))
    return "\n".join(lines)


def _format_overlap(overlap: Mapping[str, object],
                    indent: str = "") -> List[str]:
    lines = [f"{indent}overlap potential ({overlap['dataset']}, "
             f"{overlap['num_hops']} hops, fanout {overlap['fanout']}): "
             f"mean est. Jaccard {overlap['mean_jaccard']:.3f} over "
             f"{overlap['pairs']} popularity-weighted pairs of the top "
             f"{overlap['signature_targets']} targets "
             f"({100 * overlap['coverage']:.0f}% of traffic)"]
    peak = max((c for _, _, c in overlap["histogram"]), default=0)
    for lo, hi, count in overlap["histogram"]:
        bar = "#" * int(round(24 * count / peak)) if peak else ""
        lines.append(f"{indent}  [{lo:.1f}, {hi:.1f}) {count:>6} {bar}")
    return lines
