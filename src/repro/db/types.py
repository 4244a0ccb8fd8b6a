"""Column types, schemas, and row layout for the mini database engine.

Rows are fixed-width records: every column has a declared byte width
(integers/floats/dates are 8 bytes, strings are their declared width).
Fixed layout keeps the simulated-address arithmetic exact: the address
of row ``r`` column ``c`` inside a page is
``page_base + header + r * row_size + column_offset[c]``.

Values are plain Python objects (int/float/str); dates are stored as
integer day numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import CatalogError

INT = "int"
FLOAT = "float"
STR = "str"
DATE = "date"  # integer day number

_FIXED_WIDTH = {INT: 8, FLOAT: 8, DATE: 8}

#: Bytes of per-row header (slot id, null bitmap, MVCC-ish metadata).
ROW_HEADER_BYTES = 8


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and (for strings) a byte width."""

    name: str
    type: str
    width: int = 0

    def __post_init__(self) -> None:
        if self.type in _FIXED_WIDTH:
            object.__setattr__(self, "width", _FIXED_WIDTH[self.type])
        elif self.type == STR:
            if self.width <= 0:
                raise CatalogError(
                    f"string column {self.name!r} needs a positive width"
                )
        else:
            raise CatalogError(f"unknown column type {self.type!r}")


class Schema:
    """An ordered set of columns with O(1) name lookup and byte offsets."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise CatalogError("a schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in {names}")
        self.columns = tuple(columns)
        self._index = {c.name: i for i, c in enumerate(columns)}
        offsets = []
        cursor = ROW_HEADER_BYTES
        for column in columns:
            offsets.append(cursor)
            cursor += column.width
        self.offsets = tuple(offsets)
        self.row_size = cursor

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def project(self, names: Sequence[str]) -> "Schema":
        """A schema of the named columns, in the given order."""
        return Schema([self.column(n) for n in names])

    def concat(self, other: "Schema") -> "Schema":
        """Join output schema: self's columns then other's.

        Name collisions on the right side are auto-renamed with an
        ``_r`` suffix (like an implicit qualifier); unqualified
        references keep binding to the left occurrence, which matches
        SQL's leftmost-wins resolution for natural-ish joins.
        """
        taken = set(self._index)
        merged: list[Column] = list(self.columns)
        for column in other.columns:
            name = column.name
            while name in taken:
                name += "_r"
            taken.add(name)
            merged.append(Column(name, column.type, column.width))
        return Schema(merged)


Row = tuple
"""A row is a plain tuple of values, positionally matching its schema."""
