"""ANALYZE-style table statistics, sampled charge-free.

A real engine's ANALYZE reads a random block sample outside the query
path; here the sampler walks table storage through the ``peek_rows``
hooks (pure Python, no simulated micro-ops), so collecting or
refreshing statistics never perturbs a measured energy window.

Every estimate evaluates predicates the way the executor does: the
expression compiled over :data:`~repro.db.exprs.UNCHARGED` and run on
the sampled rows.  A scan's selectivity is the fraction of the sample
its whole predicate keeps, so cross-column correlation, string matches
and column-vs-column tests are measured rather than guessed; the
:class:`~repro.db.costs.EnergyModel` uses it in place of the System-R
shape guesses that misprice wide ranges like TPC-H Q1's
``l_shipdate <= cutoff`` (which keeps ~97% of lineitem but a shape
guess calls 33%).  Sample joins match two tables' surviving rows on
their keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import CatalogError
from repro.db.catalog import Catalog, TableDef
from repro.db.exprs import UNCHARGED, Expr

#: Upper bound on sampled rows per table (evenly strided, so the sample
#: spans the whole table rather than its first pages).
SAMPLE_TARGET = 2048


@dataclass(frozen=True)
class TableStats:
    """Sampled statistics of one table."""

    n_rows: int
    sampled: int
    #: Distinct values per column within the sample.
    n_distinct: dict[str, int]
    #: The raw sampled rows, in storage order: estimators evaluate
    #: predicates (and join samples against each other) on them.
    rows: tuple = ()


def collect(table: TableDef) -> TableStats:
    """Sample one table's storage into per-column statistics."""
    n_rows = table.storage.n_rows
    step = max(1, -(-n_rows // SAMPLE_TARGET))  # ceil division
    sampled: list = []
    for i, row in enumerate(table.storage.peek_rows()):
        if i % step == 0:
            sampled.append(row)
    n_distinct = {
        name: len({row[idx] for row in sampled})
        for idx, name in enumerate(table.schema.names())
    }
    return TableStats(n_rows, len(sampled), n_distinct, tuple(sampled))


class Statistics:
    """Lazily collected, memoised statistics for one catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._tables: dict[str, TableStats] = {}
        self._kept: dict = {}
        self._sample_joins: dict = {}

    def table(self, name: str) -> TableStats:
        stats = self._tables.get(name)
        if stats is None:
            stats = collect(self.catalog.table(name))
            self._tables[name] = stats
        return stats

    def invalidate(self, name: str) -> None:
        """Drop ``name``'s cached statistics and every estimate that
        read them (after DML) so they re-collect."""
        self._tables.pop(name, None)
        self._kept = {
            key: rows for key, rows in self._kept.items()
            if key[0] != name
        }
        self._sample_joins = {
            key: rows for key, rows in self._sample_joins.items()
            if name not in (key[0], key[3])
        }

    @staticmethod
    def _memoised(memo: dict, key: tuple, compute):
        if key not in memo:
            memo[key] = compute(*key)
        return memo[key]

    def _kept_rows(self, table: str,
                   predicate: Optional[Expr]) -> Optional[Sequence]:
        """The sampled rows of ``table`` that ``predicate`` keeps,
        memoised per ``(table, predicate)``; None when the predicate
        names a column the table lacks or cannot evaluate on a sampled
        row."""
        return self._memoised(self._kept, (table, predicate), self._keep)

    def _keep(self, table, predicate):
        rows = self.table(table).rows
        if predicate is None:
            return rows
        try:
            keep = predicate.compile(self.catalog.table(table).schema,
                                     UNCHARGED)
            return [row for row in rows if keep(row)]
        except (CatalogError, TypeError):
            return None

    def selectivity(self, table: str,
                    predicate: Optional[Expr]) -> Optional[float]:
        """Fraction of ``table``'s sampled rows that ``predicate`` keeps.

        The whole predicate runs on every sampled row as the executor's
        compiled evaluator over :data:`~repro.db.exprs.UNCHARGED`, so
        it sees exactly the values the plan computes: correlated
        conjuncts, string matches and column-vs-column tests are
        measured rather than composed from per-shape guesses.  Returns
        None when the table has no sampled rows, or the predicate names
        a column the table lacks or cannot evaluate on a sampled row.
        """
        kept = self._kept_rows(table, predicate)
        sampled = self.table(table).sampled
        if kept is None or not sampled:
            return None
        return len(kept) / sampled

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
        match count scales by ``1 / (f_l · f_r)``.  Keys are compiled
        like predicates (see :meth:`selectivity`).  Returns None when
        an expression names a column its table lacks or cannot evaluate
        on a sampled row.
        """
        key = (left_table, left_pred, left_key,
               right_table, right_pred, right_key)
        return self._memoised(self._sample_joins, key, self._sample_join)

    def _sample_join(self, left_table, left_pred, left_key,
                     right_table, right_pred, right_key):
        left = self.table(left_table)
        right = self.table(right_table)
        if not left.rows or not right.rows:
            return None
        left_rows = self._kept_rows(left_table, left_pred)
        right_rows = self._kept_rows(right_table, right_pred)
        if left_rows is None or right_rows is None:
            return None

        catalog = self.catalog
        try:
            left_of = left_key.compile(catalog.table(left_table).schema,
                                       UNCHARGED)
            right_of = right_key.compile(catalog.table(right_table).schema,
                                         UNCHARGED)
            build: dict = {}
            for row in right_rows:
                value = right_of(row)
                build[value] = build.get(value, 0) + 1
            matches = sum(build.get(left_of(row), 0) for row in left_rows)
        except (CatalogError, TypeError):
            return None
        f_left = len(left.rows) / max(left.n_rows, 1)
        f_right = len(right.rows) / max(right.n_rows, 1)
        return matches / max(f_left * f_right, 1e-12)
