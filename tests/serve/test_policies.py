"""Unit tests of scheduling policies and DVFS serving modes."""

import pytest

from repro import Machine, tiny_intel
from repro.errors import ConfigError
from repro.serve.policies import (
    FifoPolicy,
    LocalityPolicy,
    SjfPolicy,
    apply_dvfs,
    make_policy,
)
from repro.serve.request import JobTemplate, Request


def req(i, cost=1.0, tables=("t",), arrival=None):
    job = JobTemplate(name=f"j{i}", tables=tuple(tables), cost=cost,
                      make=lambda slot: iter(()))
    return Request(request_id=i, tenant="tenant0", client=i, job=job,
                   arrival_s=float(i) if arrival is None else arrival)


class TestFifo:
    def test_picks_head(self):
        queue = [req(0), req(1), req(2)]
        assert FifoPolicy().select(queue, frozenset()) is queue[0]


class TestSjf:
    def test_picks_cheapest(self):
        queue = [req(0, cost=9.0), req(1, cost=2.0), req(2, cost=5.0)]
        assert SjfPolicy().select(queue, frozenset()) is queue[1]

    def test_ties_break_on_arrival(self):
        queue = [req(0, cost=3.0), req(1, cost=3.0)]
        assert SjfPolicy().select(queue, frozenset()) is queue[0]


class TestLocality:
    def test_prefers_hot_table_overlap(self):
        queue = [req(0, tables=("orders",)), req(1, tables=("lineitem",))]
        policy = LocalityPolicy()
        chosen = policy.select(queue, frozenset({"lineitem"}))
        assert chosen is queue[1]

    def test_falls_back_to_head_without_overlap(self):
        queue = [req(0, tables=("orders",)), req(1, tables=("part",))]
        policy = LocalityPolicy()
        assert policy.select(queue, frozenset({"lineitem"})) is queue[0]

    def test_starvation_guard_forces_head(self):
        policy = LocalityPolicy(max_bypass=2)
        head = req(0, tables=("orders",))
        hot = frozenset({"lineitem"})
        queue = [head, req(1, tables=("lineitem",)), req(2, tables=("lineitem",)),
                 req(3, tables=("lineitem",))]
        assert policy.select(queue, hot) is queue[1]
        queue.pop(1)
        assert policy.select(queue, hot) is queue[1]
        queue.pop(1)
        # Two bypasses used up: the head must be served now.
        assert policy.select(queue, hot) is head

    def test_invalid_guard(self):
        with pytest.raises(ConfigError):
            LocalityPolicy(max_bypass=-1)


class TestFactory:
    def test_known_policies(self):
        assert make_policy("fifo").name == "fifo"
        assert make_policy("sjf").name == "sjf"
        assert make_policy("locality").name == "locality"

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_policy("lifo")


class TestApplyDvfs:
    def test_race_pins_highest(self):
        machine = Machine(tiny_intel())
        apply_dvfs(machine, "race")
        assert machine.pstate == machine.config.pstates.highest
        assert not machine.eist_enabled

    def test_pace_pins_middle(self):
        machine = Machine(tiny_intel())
        apply_dvfs(machine, "pace")
        table = machine.config.pstates
        assert table.lowest < machine.pstate < table.highest

    def test_eist_enables_governor(self):
        machine = Machine(tiny_intel())
        apply_dvfs(machine, "eist")
        assert machine.eist_enabled

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            apply_dvfs(Machine(tiny_intel()), "turbo")
