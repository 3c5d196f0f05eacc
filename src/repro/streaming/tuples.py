"""The unit of data flowing through a topology."""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import TopologyError


class StreamTuple:
    """A named-field record emitted by a spout or bolt.

    Fields are positional values paired with the emitting component's
    declared field names; ``tuple_["field"]`` reads by name.
    """

    __slots__ = ("values", "fields", "source", "timestamp")

    def __init__(
        self,
        values: Sequence[Any],
        fields: Sequence[str],
        source: str = "",
        timestamp: Optional[float] = None,
    ) -> None:
        if len(values) != len(fields):
            raise TopologyError(
                f"tuple has {len(values)} values but {len(fields)} declared fields"
            )
        self.values = tuple(values)
        self.fields = tuple(fields)
        self.source = source
        self.timestamp = timestamp

    def __getitem__(self, field: str) -> Any:
        try:
            return self.values[self.fields.index(field)]
        except ValueError:
            raise KeyError(
                f"tuple from {self.source!r} has no field {field!r}; has {self.fields}"
            ) from None

    def __repr__(self) -> str:
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self.fields, self.values))
        return f"StreamTuple({pairs})"
