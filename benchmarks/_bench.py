"""The ``REPRO_BENCH_JSON`` dump shared by the serving benchmarks.

Set ``REPRO_BENCH_JSON=PATH`` and every comparison a benchmark makes is
appended to ``PATH`` as one JSON line, ``{tag: payload}``; unset, nothing is
written.
"""

from __future__ import annotations

import json
import os
from typing import Mapping


def dump_json(tag: str, payload) -> None:
    """Append ``{tag: payload}`` as one line to ``$REPRO_BENCH_JSON``."""
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    mode = "a" if os.path.exists(path) else "w"
    with open(path, mode) as handle:
        json.dump({tag: payload}, handle, default=float)
        handle.write("\n")


def dump_reports(tag: str, reports: Mapping) -> None:
    """:func:`dump_json` of ``{label: report}`` as record-free report dicts."""
    dump_json(tag, {label: report.to_dict(include_records=False)
                    for label, report in reports.items()})
