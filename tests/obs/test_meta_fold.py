"""Generated checks of the sampler's meta folds against the folds they
replaced.

``MetaEnergy.fold_order`` sorts each tenant's rows on their own; the
oracle is the one sort of every row it replaced.  The per-request
joules (``TelemetrySummary.active_energy_by_request`` and
``repro.serve.report.request_energy``) fold into id-indexed columns;
the oracle is the ``{request: joules}`` dict fold they replaced.  Both
must give the same order and the same floats, bit for bit.

The metas mix dense and sparse rows: the untagged system row, a None
tenant, several attempts per request, ``wasted`` tags, string request
ids, ids past ``DENSE_SLACK``, negative ids, and values such as ``5``
and ``"5"`` whose fold-key strings tie.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.sampler import (
    DENSE_SLACK,
    MetaEnergy,
    TelemetrySummary,
    fold_key,
)
from repro.serve.report import _summary, request_energy

_INT_IDS = st.one_of(
    st.integers(0, 40),
    st.sampled_from((-3, DENSE_SLACK - 1, DENSE_SLACK + 7, 3 * DENSE_SLACK)),
)
_STR_IDS = st.sampled_from(("5", "r1", "r12", "r2"))
_TENANTS = st.sampled_from((None, "t0", "t1", "t10", "t2", 5, "5"))
_ATTEMPTS = st.sampled_from((None, 1, 2, 3, 11, 5, "5"))
_WASTED = st.sampled_from((None, "stall", "retry_io"))
_JOULES = st.floats(-1e-3, 1e-3, allow_nan=False)


@st.composite
def _credits(draw, ids: str) -> list:
    """``(meta, (core, package, dram, seconds))`` credits; ``ids`` picks
    the request ids: ``int``, ``str`` or ``mixed``."""
    request = {"int": _INT_IDS, "str": _STR_IDS,
               "mixed": st.one_of(_INT_IDS, _STR_IDS)}[ids]
    meta = st.one_of(
        st.just((None, None, None, None)),
        st.tuples(_TENANTS, request, _ATTEMPTS, _WASTED),
        # A request's first attempt, as serve runs tag it: dense rows.
        st.tuples(_TENANTS, st.integers(0, 40), st.just(1), st.none()),
    )
    values = st.tuples(_JOULES, _JOULES, _JOULES, _JOULES)
    credits = draw(st.lists(st.tuples(meta, values), max_size=80))
    # Twins whose metas differ only by tenant ``5`` vs ``"5"``: one fold
    # key, so their order is the tie rule's (dense first, then sparse in
    # creation order).
    for rid, attempt, wasted, twin_values in draw(st.lists(
            st.tuples(st.integers(0, 40), _ATTEMPTS, _WASTED, values),
            max_size=4)):
        at = draw(st.integers(0, len(credits)))
        credits[at:at] = [((5, rid, attempt, wasted), twin_values),
                          (("5", rid, attempt, wasted), twin_values)]
    return credits


def _summary_of(credits: list) -> TelemetrySummary:
    columns = MetaEnergy()
    for meta, values in credits:
        columns.add(columns.row(meta), *values)
    return TelemetrySummary("package+dram", None, {}, columns, [], 0.0, 0)


def _sorted_fold_order(rows: MetaEnergy) -> array:
    """The fold order as one sort of every row's key (the fold the
    per-tenant buckets replaced)."""
    parts = [fold_key(combo) for combo in rows.combos]
    code_col = rows.code

    def key(row: int) -> tuple:
        if row < 0:
            return fold_key(rows.sparse_meta[~row])
        tenant, attempt, wasted = parts[code_col[row]]
        return (tenant, "0" + str(row), attempt, wasted)

    order = [row for row, code in enumerate(code_col) if code >= 0]
    order += range(-1, -len(rows.sparse_meta) - 1, -1)
    order.sort(key=key)
    return array("q", order)


def _dict_request_energy(traces: dict) -> dict:
    """Per-request energy as the ``{request: joules}`` dict fold over
    machines in sorted name order (the fold the columns replaced)."""
    per_request: dict = {}
    for name in sorted(traces):
        by_request = traces[name].active_energy_by_meta("request")
        by_request.pop(None, None)
        if not per_request:
            for rid, joules in by_request.items():
                by_request[rid] = 0.0 + joules
            per_request = by_request
            continue
        for rid, joules in by_request.items():
            per_request[rid] = per_request.get(rid, 0.0) + joules
    return _summary([per_request[k] for k in sorted(per_request)], "j")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(("int", "str", "mixed")).flatmap(_credits))
def test_fold_order_matches_one_sort(credits):
    rows = _summary_of(credits).meta_energy
    assert rows.fold_order() == _sorted_fold_order(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(("int", "str", "mixed")).flatmap(_credits))
def test_request_joules_match_dict_fold(credits):
    summary = _summary_of(credits)
    groups = summary.active_energy_by_meta("request")
    groups.pop(None, None)
    try:
        expected = [(rid, 0.0 + groups[rid]) for rid in sorted(groups)]
    except TypeError:
        # Ids of mixed types have no order: both folds refuse them.
        with pytest.raises(TypeError):
            list(summary.active_energy_by_request())
        return
    got = list(summary.active_energy_by_request())
    assert [rid for rid, _ in got] == [rid for rid, _ in expected]
    assert [j.hex() for _, j in got] == [j.hex() for _, j in expected]


def _hex(summary: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in summary.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(("int", "str")).flatmap(_credits),
                min_size=1, max_size=3))
def test_request_energy_matches_dict_fold_over_machines(machines):
    """Several machines, as a cluster report folds them; each machine's
    ids share one type, so both folds order them."""
    traces = {f"node{i}": _summary_of(credits)
              for i, credits in enumerate(machines)}
    try:
        expected = _dict_request_energy(traces)
    except TypeError:
        with pytest.raises(TypeError):
            request_energy(traces)
        return
    assert _hex(request_energy(traces)) == _hex(expected)
