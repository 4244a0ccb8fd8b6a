"""ANALYZE-style table statistics, sampled charge-free.

A real engine's ANALYZE reads a random block sample outside the query
path; here the sampler walks table storage through the ``peek_rows``
hooks (pure Python, no simulated micro-ops), so collecting or
refreshing statistics never perturbs a measured energy window.

Per column the sample keeps a *sorted* value list: range selectivities
come from two bisections, equality selectivities from the matching
fraction (falling back to ``1/n_distinct`` for values missing from the
sample).  The :class:`~repro.db.costs.EnergyModel` consults these for
scan predicates — replacing the System-R shape guesses that misprice
wide ranges like TPC-H Q1's ``l_shipdate <= cutoff`` (which keeps ~97%
of lineitem but a shape guess calls 33%).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.db.catalog import Catalog, TableDef

#: Upper bound on sampled rows per table (evenly strided, so the sample
#: spans the whole table rather than its first pages).
SAMPLE_TARGET = 2048


@dataclass(frozen=True)
class ColumnStats:
    """Sorted value sample of one column."""

    sample: tuple
    n_distinct: int

    def eq_selectivity(self, value) -> Optional[float]:
        """Fraction of rows equal to ``value`` (None when the sample
        cannot order against it)."""
        if not self.sample:
            return None
        try:
            lo = bisect_left(self.sample, value)
            hi = bisect_right(self.sample, value)
        except TypeError:
            return None
        if hi > lo:
            return (hi - lo) / len(self.sample)
        # Unseen value: assume it is one of the distinct values' worth.
        return 1.0 / max(self.n_distinct, 1)

    def range_selectivity(self, lo=None, hi=None, lo_strict: bool = False,
                          hi_strict: bool = False) -> Optional[float]:
        """Fraction of rows inside [lo, hi] (bounds optional; ``strict``
        excludes the endpoint)."""
        if not self.sample:
            return None
        try:
            a = 0 if lo is None else (
                bisect_right(self.sample, lo) if lo_strict
                else bisect_left(self.sample, lo)
            )
            b = len(self.sample) if hi is None else (
                bisect_left(self.sample, hi) if hi_strict
                else bisect_right(self.sample, hi)
            )
        except TypeError:
            return None
        return max(0, b - a) / len(self.sample)


@dataclass(frozen=True)
class TableStats:
    """Sampled statistics of one table."""

    n_rows: int
    sampled: int
    columns: dict[str, ColumnStats]
    #: The raw sampled rows, in storage order — kept so estimators can
    #: re-evaluate predicates (and join samples against each other) to
    #: capture cross-column and cross-table filter correlation that
    #: per-column summaries lose.
    rows: tuple = ()

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


def collect(table: TableDef) -> TableStats:
    """Sample one table's storage into per-column statistics."""
    n_rows = table.storage.n_rows
    step = max(1, -(-n_rows // SAMPLE_TARGET))  # ceil division
    names = table.schema.names()
    sampled: list = []
    for i, row in enumerate(table.storage.peek_rows()):
        if i % step == 0:
            sampled.append(row)
    columns = {}
    for idx, name in enumerate(names):
        values = sorted(row[idx] for row in sampled)
        columns[name] = ColumnStats(tuple(values), len(set(values)))
    return TableStats(n_rows, len(sampled), columns, tuple(sampled))


class Statistics:
    """Lazily collected, memoised statistics for one catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._tables: dict[str, TableStats] = {}
        self._sample_joins: dict = {}

    def table(self, name: str) -> TableStats:
        stats = self._tables.get(name)
        if stats is None:
            stats = collect(self.catalog.table(name))
            self._tables[name] = stats
        return stats

    def invalidate(self, name: str) -> None:
        """Drop ``name``'s cached statistics (after DML) so they
        re-collect."""
        self._tables.pop(name, None)
        self._sample_joins = {
            key: rows for key, rows in self._sample_joins.items()
            if name not in (key[0], key[3])
        }

    def sample_join_rows(self, left_table: str, left_pred, left_key,
                         right_table: str, right_pred,
                         right_key) -> Optional[float]:
        """Join-output cardinality estimated by joining the two tables'
        samples directly (predicates applied row-wise, keys matched).

        Unlike the independence formula ``|L||R| / max(V_l, V_r)``,
        this sees correlation *through* the join — e.g. TPC-H Q3's
        anti-correlated date filters (orders placed before a date whose
        items shipped after it), which independence overestimates by an
        order of magnitude.  Each matching (l, r) pair survives both
        strided samples with probability ``f_l · f_r``, so the sample
        match count scales by ``1 / (f_l · f_r)``.  Predicates and keys
        run as the executor's compiled evaluators over
        :data:`~repro.db.exprs.UNCHARGED`, so the estimate sees exactly
        the values the plan computes.  Returns None when an expression
        names a column its table lacks or cannot evaluate on a sampled
        row.
        """
        key = (left_table, left_pred, left_key,
               right_table, right_pred, right_key)
        if key in self._sample_joins:
            return self._sample_joins[key]
        estimate = self._sample_join(*key)
        self._sample_joins[key] = estimate
        return estimate

    def _sample_join(self, left_table, left_pred, left_key,
                     right_table, right_pred, right_key):
        from repro.errors import CatalogError
        from repro.db.exprs import UNCHARGED

        left = self.table(left_table)
        right = self.table(right_table)
        if not left.rows or not right.rows:
            return None

        def surviving_keys(table: str, pred, key_expr) -> list:
            schema = self.catalog.table(table).schema
            rows = self.table(table).rows
            key = key_expr.compile(schema, UNCHARGED)
            if pred is None:
                return [key(row) for row in rows]
            keep = pred.compile(schema, UNCHARGED)
            return [key(row) for row in rows if keep(row)]

        try:
            left_keys = surviving_keys(left_table, left_pred, left_key)
            build: dict = {}
            for value in surviving_keys(right_table, right_pred, right_key):
                build[value] = build.get(value, 0) + 1
        except (CatalogError, TypeError):
            return None
        matches = sum(build.get(value, 0) for value in left_keys)
        f_left = len(left.rows) / max(left.n_rows, 1)
        f_right = len(right.rows) / max(right.n_rows, 1)
        return matches / max(f_left * f_right, 1e-12)
