"""Unit + property tests for the sparse memory and address space."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.faults import AccessKind, MemoryFault
from repro.isa.memory import (
    AddressSpace, MemoryError_, PAGE_SIZE, PhysicalMemory, Region,
)

addr32 = st.integers(min_value=0, max_value=0xFFFFFFF0)


class TestPhysicalMemory:
    def test_zero_filled(self):
        mem = PhysicalMemory()
        assert mem.read(0x1234, 8) == bytes(8)
        assert mem.read_u32(0xDEAD0000, True) == 0

    def test_write_read_roundtrip(self):
        mem = PhysicalMemory()
        mem.write(0x1000, b"hello world")
        assert mem.read(0x1000, 11) == b"hello world"

    def test_cross_page_write(self):
        mem = PhysicalMemory()
        addr = PAGE_SIZE - 3
        mem.write(addr, b"abcdef")
        assert mem.read(addr, 6) == b"abcdef"

    def test_cross_page_u32(self):
        mem = PhysicalMemory()
        addr = PAGE_SIZE - 2
        mem.write_u32(addr, 0x11223344, True)
        assert mem.read_u32(addr, True) == 0x11223344
        mem.write_u32(addr, 0xAABBCCDD, False)
        assert mem.read_u32(addr, False) == 0xAABBCCDD

    def test_endianness(self):
        mem = PhysicalMemory()
        mem.write_u32(0, 0x12345678, True)
        assert mem.read(0, 4) == b"\x78\x56\x34\x12"
        mem.write_u32(0, 0x12345678, False)
        assert mem.read(0, 4) == b"\x12\x34\x56\x78"
        mem.write_u16(8, 0xBEEF, False)
        assert mem.read(8, 2) == b"\xbe\xef"

    @given(addr32, st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.booleans())
    def test_u32_roundtrip(self, addr, value, little):
        mem = PhysicalMemory()
        mem.write_u32(addr, value, little)
        assert mem.read_u32(addr, little) == value

    @given(addr32, st.integers(min_value=0, max_value=0xFFFF),
           st.booleans())
    def test_u16_roundtrip(self, addr, value, little):
        mem = PhysicalMemory()
        mem.write_u16(addr, value, little)
        assert mem.read_u16(addr, little) == value

    @given(addr32, st.binary(min_size=1, max_size=64))
    def test_raw_roundtrip(self, addr, data):
        mem = PhysicalMemory()
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data

    def test_resident_accounting(self):
        mem = PhysicalMemory()
        assert mem.resident_bytes() == 0
        mem.write_u8(0, 1)
        mem.write_u8(10 * PAGE_SIZE, 1)
        assert mem.resident_bytes() == 2 * PAGE_SIZE


class TestAddressSpace:
    def _aspace(self):
        mem = PhysicalMemory()
        aspace = AddressSpace(mem)
        aspace.map_region(Region(0x1000, 0x1000, "rx", "text"))
        aspace.map_region(Region(0x4000, 0x2000, "rw", "data"))
        return aspace

    def test_allowed_access(self):
        aspace = self._aspace()
        aspace.check(0x1000, 4, AccessKind.READ)
        aspace.check(0x1FFC, 4, AccessKind.FETCH)
        aspace.check(0x4000, 4, AccessKind.WRITE)

    def test_unmapped_faults(self):
        aspace = self._aspace()
        with pytest.raises(MemoryFault) as exc:
            aspace.check(0x3000, 4, AccessKind.READ)
        assert exc.value.reason is MemoryFault.Reason.UNMAPPED

    def test_end_of_region_overrun(self):
        aspace = self._aspace()
        with pytest.raises(MemoryFault):
            aspace.check(0x1FFE, 4, AccessKind.READ)

    def test_protection_faults(self):
        aspace = self._aspace()
        with pytest.raises(MemoryFault) as exc:
            aspace.check(0x1000, 4, AccessKind.WRITE)
        assert exc.value.reason is MemoryFault.Reason.PROTECTION
        with pytest.raises(MemoryFault) as exc:
            aspace.check(0x4000, 4, AccessKind.FETCH)
        assert exc.value.reason is MemoryFault.Reason.PROTECTION

    def test_last_region_cache_does_not_leak_permissions(self):
        aspace = self._aspace()
        aspace.check(0x4000, 4, AccessKind.WRITE)    # caches "data"
        with pytest.raises(MemoryFault):
            aspace.check(0x1000, 4, AccessKind.WRITE)  # different region

    def test_overlap_rejected(self):
        aspace = self._aspace()
        with pytest.raises(MemoryError_):
            aspace.map_region(Region(0x1800, 0x1000, "rw", "overlap"))
        with pytest.raises(MemoryError_):
            aspace.map_region(Region(0x0F00, 0x200, "rw", "overlap2"))

    def test_unmap(self):
        aspace = self._aspace()
        aspace.unmap_region("data")
        with pytest.raises(MemoryFault):
            aspace.check(0x4000, 4, AccessKind.READ)
        with pytest.raises(MemoryError_):
            aspace.unmap_region("data")

    def test_translation_off(self):
        aspace = self._aspace()
        aspace.map_region(Region(0xC0000000, 0x1000, "rw", "khigh"))
        aspace.check(0xC0000000, 4, AccessKind.READ)
        aspace.translation_on = False
        with pytest.raises(MemoryFault) as exc:
            aspace.check(0xC0000000, 4, AccessKind.READ)
        assert exc.value.reason is MemoryFault.Reason.NO_TRANSLATION
        # low addresses still work
        aspace.check(0x4000, 4, AccessKind.READ)

    def test_find_region(self):
        aspace = self._aspace()
        assert aspace.find_region(0x4100).name == "data"
        assert aspace.find_region(0x9000) is None
        assert aspace.region_by_name("text").start == 0x1000


def _load(aspace: AddressSpace, addr: int) -> int:
    """A compiled block's word load: read-TLB hit, or check + read +
    fill."""
    mem = aspace.memory
    page = mem.rtlb.get(addr >> 12)
    if page is not None:
        return int.from_bytes(page[addr & 4095:(addr & 4095) + 4], "big")
    aspace.check(addr, 4, AccessKind.READ)
    value = mem.read_u32(addr, False)
    aspace.tlb_fill(addr, False)
    return value


def _store(aspace: AddressSpace, addr: int, value: int) -> None:
    """A compiled block's word store: write-TLB hit, or check + write +
    fill."""
    mem = aspace.memory
    page = mem.wtlb.get(addr >> 12)
    if page is not None:
        page[addr & 4095:(addr & 4095) + 4] = value.to_bytes(4, "big")
        return
    aspace.check(addr, 4, AccessKind.WRITE)
    mem.write_u32(addr, value, False)
    aspace.tlb_fill(addr, True)


class TestSoftTLB:
    """The page cache compiled blocks read and write through: an entry
    only for an access ``check`` would permit on the buffer ``_pages``
    holds, and dropped by every event that could change either."""

    def _space(self) -> AddressSpace:
        aspace = AddressSpace(PhysicalMemory())
        aspace.map_region(Region(0x10000, 0x2000, "rw", "data"))
        aspace.map_region(Region(0x20000, 0x1000, "rx", "text"))
        aspace.memory.write(0x20000, b"\x01" * PAGE_SIZE)
        return aspace

    def test_hit_serves_the_page_buffer(self):
        aspace = self._space()
        _store(aspace, 0x10010, 0xCAFE)
        assert _load(aspace, 0x10010) == 0xCAFE
        mem = aspace.memory
        assert mem.rtlb[0x10] is mem.wtlb[0x10] is mem._pages[0x10]

    def test_page_partly_covered_never_cached(self):
        aspace = AddressSpace(PhysicalMemory())
        aspace.map_region(Region(0x30000, 0x800, "rw", "head"))
        aspace.map_region(Region(0x40800, 0x1800, "rw", "tail"))
        for addr in (0x307FC, 0x40800, 0x41000):
            _store(aspace, addr, 7)
            assert _load(aspace, addr) == 7
        mem = aspace.memory
        assert set(mem.rtlb) == set(mem.wtlb) == {0x41}
        with pytest.raises(MemoryFault):
            _load(aspace, 0x30800)              # one word past "head"

    def test_read_only_region_never_write_cached(self):
        aspace = self._space()
        assert _load(aspace, 0x20000) == 0x01010101
        aspace.tlb_fill(0x20000, True)
        assert 0x20 in aspace.memory.rtlb
        assert 0x20 not in aspace.memory.wtlb
        with pytest.raises(MemoryFault):
            _store(aspace, 0x20000, 0)

    def test_shared_page_never_write_cached(self):
        aspace = self._space()
        aspace.memory.write(0x10000, b"x")
        aspace.memory.fork()
        aspace.check(0x10000, 4, AccessKind.WRITE)
        aspace.tlb_fill(0x10000, True)
        assert not aspace.memory.wtlb

    @pytest.mark.parametrize("event", ["map", "unmap", "clone"])
    def test_layout_change_empties_both(self, event):
        aspace = self._space()
        _store(aspace, 0x10000, 1)
        _load(aspace, 0x10000)
        mem = aspace.memory
        assert mem.rtlb and mem.wtlb
        if event == "map":
            aspace.map_region(Region(0x50000, 0x1000, "r", "new"))
        elif event == "unmap":
            aspace.unmap_region("data")
        else:
            aspace.clone_layout(self._space())
        assert not mem.rtlb and not mem.wtlb
        if event == "unmap":
            with pytest.raises(MemoryFault):
                _store(aspace, 0x10000, 2)

    def test_fork_empties_parent_write_tlb(self):
        aspace = self._space()
        _store(aspace, 0x10000, 1)
        child = aspace.memory.fork()
        assert not aspace.memory.wtlb and not child.wtlb
        _store(aspace, 0x10000, 2)
        assert child.read_u32(0x10000, False) == 1
        assert aspace.memory.read_u32(0x10000, False) == 2

    def test_cow_copy_replaces_stale_read_entry(self):
        aspace = self._space()
        _store(aspace, 0x10000, 1)
        assert _load(aspace, 0x10000) == 1
        child = aspace.memory.fork()
        _store(aspace, 0x10000, 2)              # copies the page out
        assert _load(aspace, 0x10000) == 2
        assert aspace.memory.rtlb[0x10] is aspace.memory._pages[0x10]
        assert child.read_u32(0x10000, False) == 1
