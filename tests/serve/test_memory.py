"""Serve accounting holds bounded memory per request.

A request is a full object only while in flight; at its terminal state
the ledger keeps a few columns of it and the sampler keeps its energy
in compact columns (see ``docs/serving.md``, "Memory").  The probe is
the bench's ``serve_memory`` record: tracemalloc growth from a 2,000-
to an 8,000-request ``points`` run with 40 clients, so the per-client
base cancels.  Retained bytes are counted when the event loop returns,
peak bytes over ``run_serve`` with the report.
"""

import pytest

from repro.bench import serve_memory


@pytest.fixture(scope="module")
def memory():
    return serve_memory(2000, 8000, clients=40)


def test_retained_bytes_per_request(memory):
    assert memory["retained_b_per_request"] <= 64


def test_peak_bytes_per_request(memory):
    assert memory["peak_b_per_request"] <= 200
