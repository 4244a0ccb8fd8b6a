"""Unit tests for the TCM allocator."""

import pytest

from repro.errors import AllocationError
from repro.sim.tcm import TCM_BASE, TcmAllocator, TcmConfig


def allocator(size=4096) -> TcmAllocator:
    return TcmAllocator(TcmConfig(size=size).region())


class TestTcmConfig:
    def test_region_at_fixed_base(self):
        region = TcmConfig(size=1024).region()
        assert region.base == TCM_BASE
        assert region.size == 1024


class TestAllocator:
    def test_alloc_within_region(self):
        tcm = allocator()
        region = tcm.alloc(128)
        assert TCM_BASE <= region.base
        assert region.base + region.size <= TCM_BASE + 4096

    def test_alloc_disjoint(self):
        tcm = allocator()
        a = tcm.alloc(100)
        b = tcm.alloc(100)
        assert a.base != b.base

    def test_exhaustion(self):
        tcm = allocator(size=1024)
        tcm.alloc(1024)
        with pytest.raises(AllocationError):
            tcm.alloc(64)

    def test_free_and_reuse(self):
        tcm = allocator(size=1024)
        a = tcm.alloc(1024)
        tcm.free(a)
        b = tcm.alloc(1024)
        assert b.base == a.base

    def test_double_free_rejected(self):
        tcm = allocator()
        a = tcm.alloc(64)
        tcm.free(a)
        with pytest.raises(AllocationError):
            tcm.free(a)

    def test_coalescing(self):
        tcm = allocator(size=4096)
        chunks = [tcm.alloc(1024) for _ in range(4)]
        for chunk in chunks:
            tcm.free(chunk)
        # After freeing everything, one full-size allocation must fit.
        assert tcm.alloc(4096).size == 4096

    def test_bytes_accounting(self):
        tcm = allocator(size=4096)
        tcm.alloc(1000)
        assert tcm.bytes_live == 1024  # line-aligned
        assert tcm.bytes_free == 4096 - 1024

    def test_free_all(self):
        tcm = allocator(size=2048)
        tcm.alloc(512)
        tcm.alloc(512)
        tcm.free_all()
        assert tcm.bytes_free == 2048

    def test_zero_alloc_rejected(self):
        with pytest.raises(AllocationError):
            allocator().alloc(0)


def _quiet_arm(exec_mode: str):
    import dataclasses

    from repro.config import arm1176jzf_s
    from repro.sim.machine import Machine

    config = dataclasses.replace(arm1176jzf_s(), measurement_noise=0.0)
    return Machine(config, exec_mode=exec_mode)


class TestTcmByteAccess:
    """``load_bytes``/``store_bytes`` over the TCM window match the
    per-word ``Cpu.load``/``Cpu.store`` sequence they stand for: a run
    inside the window is accounted in bulk, a run straddling either
    edge takes the per-word path.  Counters, clock, energy and cache
    state are compared on two identical machines."""

    #: ``(name, offset from the window's base or end, nbytes)``.
    CASES = (
        ("interior", ("base", 64), 40),
        ("interior_odd_bytes", ("base", 8), 13),
        ("one_word", ("base", 0), 8),
        ("whole_window_tail", ("end", -64), 64),
        ("straddles_base", ("base", -24), 64),
        ("straddles_end", ("end", -16), 48),
    )

    @staticmethod
    def _addr(machine, anchor) -> int:
        region = machine.hierarchy.tcm_region
        edge, offset = anchor
        return (region.base if edge == "base" else region.end) + offset

    @staticmethod
    def _state(machine) -> dict:
        from tests.helpers import exact_state

        machine.settle()
        return exact_state(machine)

    @pytest.mark.parametrize("exec_mode", ("reference", "batched"))
    @pytest.mark.parametrize("dependent", (False, True))
    @pytest.mark.parametrize("name,anchor,nbytes", CASES)
    def test_load_bytes_is_per_word_loads(self, exec_mode, dependent, name,
                                          anchor, nbytes):
        bulk, words = _quiet_arm(exec_mode), _quiet_arm("reference")
        addr = self._addr(bulk, anchor)
        bulk.load_bytes(addr, nbytes, dependent=dependent)
        words.cpu.load(addr, dependent=dependent)
        for i in range(1, max(1, (nbytes + 7) // 8)):
            words.cpu.load(addr + 8 * i)
        assert self._state(bulk) == self._state(words)
        assert bulk.cpu.counters.n_tcm_load > 0

    @pytest.mark.parametrize("exec_mode", ("reference", "batched"))
    @pytest.mark.parametrize("name,anchor,nbytes", CASES)
    def test_store_bytes_is_per_word_stores(self, exec_mode, name, anchor,
                                            nbytes):
        bulk, words = _quiet_arm(exec_mode), _quiet_arm("reference")
        addr = self._addr(bulk, anchor)
        bulk.store_bytes(addr, nbytes)
        for i in range(max(1, (nbytes + 7) // 8)):
            words.cpu.store(addr + 8 * i)
        assert self._state(bulk) == self._state(words)
        assert bulk.cpu.counters.n_tcm_store > 0
