"""Counter blocks: dataclasses that declare their field list once.

A counter block's export, :meth:`CounterBlock.as_dict`, is its dataclass
fields followed by its named derived values (``DERIVED``).  The fields come
from :func:`dataclasses.asdict`, so every list and dict in the export is a
copy (mutating the export never reaches the block) and nested dataclasses
export as their fields.  A :class:`Summable` block's :meth:`~Summable.merge`
is the field-wise sum of two blocks.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from functools import lru_cache
from typing import Dict, Tuple

__all__ = ["CounterBlock", "Summable"]


class CounterBlock:
    """Mixin for a dataclass: ``as_dict()`` exports fields, then ``DERIVED``."""

    #: Properties exported after the fields, in this order.
    DERIVED: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        out = asdict(self)
        for name in self.DERIVED:
            out[name] = getattr(self, name)
        return out


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


class Summable:
    """Mixin for a dataclass of numbers: ``merge()`` sums field by field."""

    def merge(self, other):
        """The field-wise sum of ``self`` and ``other`` (e.g. two phases
        executed back to back, or two layers)."""
        cls = type(self)
        return cls(**{name: getattr(self, name) + getattr(other, name)
                      for name in _field_names(cls)})
