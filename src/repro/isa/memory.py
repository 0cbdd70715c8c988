"""Sparse paged physical memory and the permission-checked address space.

The machines in this reproduction use a 32-bit flat address space laid
out like a Linux 2.4 kernel (text, data, per-task kernel stacks).  The
physical memory is a sparse dictionary of 4 KiB pages so that a 4 GiB
address space costs only what is actually touched.

Permissions are enforced by :class:`AddressSpace`: regions carry
read/write/execute rights, and any access outside a mapped region — or
violating the rights — raises a neutral :class:`~repro.isa.faults.MemoryFault`
that the CPU core translates into its architectural exception (page
fault / #GP on the P4-like core; DSI / ISI / bus error on the G4-like
core).

Compiled blocks (:mod:`repro.compile`) skip the region lookup through a
page-granular *soft TLB* kept on :class:`PhysicalMemory`: ``rtlb`` and
``wtlb`` map a page index to that page's current buffer.  An entry is
made only by :meth:`AddressSpace.tlb_fill`, after :meth:`AddressSpace.check`
permitted an access and the access completed, and only for a resident
page lying wholly inside one region with the right (``r`` or ``w``);
a write entry also requires the page to be private (not copy-on-write
shared).  So every hit is an access ``check`` would permit, on the
buffer ``_pages`` holds.  The entries are dropped whenever that could
stop being true:

* ``map_region``, ``unmap_region`` and ``clone_layout`` clear both;
* :meth:`PhysicalMemory.fork` clears the parent's write TLB (all its
  pages just became shared; the child starts empty);
* a copy-on-write copy in ``_page`` drops that page's read entry.

Hits assume translation is on: blocks are dispatched only then, and it
changes only inside system instructions, which end their block.  One
address space per physical memory is assumed, as every CPU core has.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.bits import MASK32
from repro.isa.faults import AccessKind, MemoryFault

PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: the 32-bit word codec of each byte order, indexed by ``little_endian``:
#: ``unpack_from(buf, offset)[0]`` and ``pack_into(buf, offset, value)``
#: move one word in or out of a page buffer without a temporary
WORD = (struct.Struct(">I"), struct.Struct("<I"))


class MemoryError_(Exception):
    """Raised for host-level misuse of the memory model (not a fault)."""


class PhysicalMemory:
    """Byte-addressable sparse memory backed by 4 KiB pages.

    All multi-byte accessors are endianness-explicit because the two
    simulated processors disagree: the P4-like core is little-endian and
    the G4-like core is big-endian.

    :meth:`fork` produces a copy-on-write twin: both memories keep
    references to the same page buffers, and every write path copies a
    shared page lazily before mutating it, so forking is O(1) in pages
    and an injection run only pays for the pages it actually dirties.

    ``rtlb``/``wtlb`` are the soft TLB of the module docstring: page
    index to buffer for pages a compiled block may read/write without
    a permission check.  They are cleared in place, never rebound, so a
    running block's local references stay live.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        #: page indices whose buffer may be referenced by a relative
        #: (fork parent, fork child, or sibling) — copy before writing
        self._shared: set = set()
        #: pages privatized by copy-on-write (benchmark diagnostics)
        self.cow_page_copies = 0
        self.rtlb: Dict[int, bytearray] = {}
        self.wtlb: Dict[int, bytearray] = {}

    # -- forking ---------------------------------------------------------

    def fork(self) -> "PhysicalMemory":
        """Copy-on-write clone: share every page until someone writes.

        Both sides mark all current pages shared; whichever side writes
        a shared page first replaces its own reference with a private
        copy, leaving the other side's view untouched.  A page copied
        out may remain (harmlessly) marked shared on the other side and
        on earlier forks, costing at most one redundant copy there.
        """
        child = PhysicalMemory()
        child._pages = dict(self._pages)
        self._shared.update(self._pages)
        child._shared = set(self._pages)
        self.wtlb.clear()
        return child

    def flush_tlb(self) -> None:
        """Drop every soft-TLB entry (the region layout changed)."""
        self.rtlb.clear()
        self.wtlb.clear()

    def shared_pages(self) -> int:
        """Pages still marked shared (benchmark diagnostics)."""
        return len(self._shared)

    # -- raw byte access ------------------------------------------------

    def _page(self, page_index: int) -> bytearray:
        """The writable buffer for *page_index* (COW-privatizing)."""
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
        elif page_index in self._shared:
            page = bytearray(page)
            self._pages[page_index] = page
            self._shared.discard(page_index)
            self.rtlb.pop(page_index, None)
            self.cow_page_copies += 1
        return page

    def read(self, addr: int, size: int) -> bytes:
        """Read *size* raw bytes starting at *addr* (may span pages)."""
        addr &= MASK32
        out = bytearray(size)
        pos = 0
        while pos < size:
            page_index = (addr + pos) >> PAGE_SHIFT
            offset = (addr + pos) & (PAGE_SIZE - 1)
            chunk = min(size - pos, PAGE_SIZE - offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[pos:pos + chunk] = page[offset:offset + chunk]
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write raw *data* starting at *addr* (may span pages)."""
        addr &= MASK32
        pos = 0
        size = len(data)
        while pos < size:
            page_index = (addr + pos) >> PAGE_SHIFT
            offset = (addr + pos) & (PAGE_SIZE - 1)
            chunk = min(size - pos, PAGE_SIZE - offset)
            self._page(page_index)[offset:offset + chunk] = \
                data[pos:pos + chunk]
            pos += chunk

    # -- width accessors -------------------------------------------------

    def read_u8(self, addr: int) -> int:
        page = self._pages.get((addr & MASK32) >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[addr & (PAGE_SIZE - 1)]

    def write_u8(self, addr: int, value: int) -> None:
        self._page((addr & MASK32) >> PAGE_SHIFT)[addr & (PAGE_SIZE - 1)] = \
            value & 0xFF

    def read_u16(self, addr: int, little_endian: bool) -> int:
        addr &= MASK32
        offset = addr & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 2:          # single-page fast path
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return 0
            if little_endian:
                return page[offset] | (page[offset + 1] << 8)
            return (page[offset] << 8) | page[offset + 1]
        raw = self.read(addr, 2)
        return int.from_bytes(raw, "little" if little_endian else "big")

    def write_u16(self, addr: int, value: int, little_endian: bool) -> None:
        addr &= MASK32
        offset = addr & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 2:
            page = self._page(addr >> PAGE_SHIFT)
            if little_endian:
                page[offset] = value & 0xFF
                page[offset + 1] = (value >> 8) & 0xFF
            else:
                page[offset] = (value >> 8) & 0xFF
                page[offset + 1] = value & 0xFF
            return
        self.write(addr, (value & 0xFFFF).to_bytes(
            2, "little" if little_endian else "big"))

    def read_u32(self, addr: int, little_endian: bool) -> int:
        addr &= MASK32
        offset = addr & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 4:          # single-page fast path
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return 0
            return WORD[little_endian].unpack_from(page, offset)[0]
        raw = self.read(addr, 4)
        return int.from_bytes(raw, "little" if little_endian else "big")

    def write_u32(self, addr: int, value: int, little_endian: bool) -> None:
        addr &= MASK32
        offset = addr & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 4:
            WORD[little_endian].pack_into(
                self._page(addr >> PAGE_SHIFT), offset, value & MASK32)
            return
        self.write(addr, (value & MASK32).to_bytes(
            4, "little" if little_endian else "big"))

    # -- diagnostics -----------------------------------------------------

    def resident_bytes(self) -> int:
        """Bytes of host memory used by touched pages (for tests)."""
        return len(self._pages) * PAGE_SIZE


@dataclass(frozen=True)
class Region:
    """A mapped range of the address space with access rights.

    ``perm`` is a subset of ``"rwx"``.  ``name`` identifies the region in
    crash dumps (e.g. ``"ktext"``, ``"kdata"``, ``"kstack:pid=4"``).
    """

    start: int
    size: int
    perm: str
    name: str

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end


_KIND_TO_PERM = {
    AccessKind.READ: "r",
    AccessKind.WRITE: "w",
    AccessKind.FETCH: "x",
}


@dataclass
class AddressSpace:
    """Permission-checked view of a :class:`PhysicalMemory`.

    Regions may be added and removed (task stacks come and go); lookup is
    a binary search over region start addresses.  When ``translation_on``
    is False (e.g. a register error cleared the G4's MSR[DR] bit), every
    kernel-high address loses its mapping and faults with
    ``Reason.NO_TRANSLATION`` — the machine check scenario from the
    paper's Section 5.2.
    """

    memory: PhysicalMemory
    translation_on: bool = True
    translation_base: int = 0x80000000
    _starts: List[int] = field(default_factory=list)
    _regions: List[Region] = field(default_factory=list)
    #: most-recently matched region (accesses are highly local)
    _last: Optional[Region] = field(default=None, repr=False)

    def map_region(self, region: Region) -> None:
        index = bisect.bisect_left(self._starts, region.start)
        if index < len(self._regions) and \
                self._regions[index].start < region.end and \
                region.start < self._regions[index].end:
            raise MemoryError_(
                f"region {region.name} overlaps {self._regions[index].name}")
        if index > 0 and self._regions[index - 1].end > region.start:
            raise MemoryError_(
                f"region {region.name} overlaps "
                f"{self._regions[index - 1].name}")
        self._starts.insert(index, region.start)
        self._regions.insert(index, region)
        self._last = None
        self.memory.flush_tlb()

    def clone_layout(self, source: "AddressSpace") -> None:
        """Adopt *source*'s region table and translation state
        wholesale (fork fast path).

        Equivalent to replaying every ``map_region`` call in order —
        regions are immutable and already validated non-overlapping —
        without re-running the overlap checks.  The lists are copied,
        so later map/unmap calls stay private to each space.
        """
        self.translation_on = source.translation_on
        self._starts = list(source._starts)
        self._regions = list(source._regions)
        self._last = None
        self.memory.flush_tlb()

    def unmap_region(self, name: str) -> None:
        for index, region in enumerate(self._regions):
            if region.name == name:
                del self._regions[index]
                del self._starts[index]
                self._last = None
                self.memory.flush_tlb()
                return
        raise MemoryError_(f"no region named {name}")

    def find_region(self, addr: int) -> Optional[Region]:
        addr &= MASK32
        index = bisect.bisect_right(self._starts, addr) - 1
        if index >= 0:
            region = self._regions[index]
            if region.contains(addr):
                return region
        return None

    def region_by_name(self, name: str) -> Optional[Region]:
        for region in self._regions:
            if region.name == name:
                return region
        return None

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    # -- the permission check used by CPU cores ---------------------------

    def check(self, addr: int, size: int, kind: AccessKind) -> None:
        """Validate an access or raise a :class:`MemoryFault`."""
        addr &= MASK32
        if not self.translation_on and addr >= self.translation_base:
            raise MemoryFault(MemoryFault.Reason.NO_TRANSLATION, addr, kind,
                              "address translation disabled")
        region = self._last
        if region is None or not (region.start <= addr
                                  and addr + size <= region.end):
            region = self.find_region(addr)
            if region is None or addr + size > region.end:
                raise MemoryFault(MemoryFault.Reason.UNMAPPED, addr, kind,
                                  "access to unmapped address")
            self._last = region
        if _KIND_TO_PERM[kind] not in region.perm:
            raise MemoryFault(
                MemoryFault.Reason.PROTECTION, addr, kind,
                f"{kind.value} denied on {region.name} ({region.perm})")

    def tlb_fill(self, addr: int, write: bool) -> None:
        """Cache *addr*'s page in the memory's soft TLB, right after
        :meth:`check` permitted an access at *addr* (so ``_last`` is its
        region) and the access completed.  Only a resident page wholly
        inside that region with the right is cached, and for a write
        only a private one."""
        base = addr & ~(PAGE_SIZE - 1)
        region = self._last
        if region.start <= base and base + PAGE_SIZE <= region.end \
                and ("w" if write else "r") in region.perm:
            mem = self.memory
            index = base >> PAGE_SHIFT
            page = mem._pages.get(index)
            if page is None:
                return
            if not write:
                mem.rtlb[index] = page
            elif index not in mem._shared:
                mem.wtlb[index] = page
