"""What the two processor cores share: the tiered fork cache and the
core machinery around it.

:class:`Tiers` is the two-tier cache behind both cores' decode caches
and the compiled-block cache (:class:`repro.compile.BlockCache`):

* ``hot`` holds entries validated on *this* machine: decoded (or
  compiled) here, their fetch checks passed here.  Dispatch loops hold
  a reference to it, so it is only ever emptied in place.
* ``warm`` holds entries that are valid byte-for-byte only: inherited
  at a fork instant (memories bit-identical) or demoted by a text
  write.  A warm entry re-runs the fetch checks before it is promoted
  to ``hot``, exactly as a miss would, so a warm clone raises the
  faults a cold one would, on the same cycle.  The dict may be shared
  with fork relatives; it is copied before this cache first mutates
  it, so inheriting costs O(1), not O(entries).
* the merged ``snapshot`` a fork child inherits is rebuilt only when a
  tier changed since the last fork (``version``), so forking many
  clones from one static base pays the merge once.

:class:`Core` is the base of ``X86CPU`` and ``PPCCPU``: what is not an
ISA's, with each ISA's differences named in class constants.
``step``, ``load``/``store`` and fault attribution stay per ISA.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple, TypeVar,
)

from repro.isa.bits import MASK32
from repro.isa.debug import DebugUnit
from repro.isa.faults import AccessKind
from repro.isa.memory import AddressSpace, PhysicalMemory

if TYPE_CHECKING:
    from repro.compile.blocks import BlockCache

_C = TypeVar("_C", bound="Core")


class Tiers:
    """A hot tier validated here over a copy-on-write warm tier."""

    __slots__ = ("hot", "warm", "version", "_owned", "_snapshot",
                 "_snapshot_version")

    def __init__(self) -> None:
        self.hot: Dict[int, Any] = {}
        self.warm: Dict[int, Any] = {}
        #: bumped whenever either tier changes; guards ``snapshot``
        self.version = 0
        self._owned = True
        self._snapshot: Optional[Dict[int, Any]] = None
        self._snapshot_version = -1

    def own_warm(self) -> Dict[int, Any]:
        """The warm tier, copied first if it is shared."""
        if not self._owned:
            self.warm = dict(self.warm)
            self._owned = True
        return self.warm

    def insert_hot(self, key: int, entry: Any) -> None:
        self.hot[key] = entry
        self.version += 1

    def insert_warm(self, key: int, entry: Any) -> None:
        self.own_warm()[key] = entry
        self.version += 1

    def evict(self, keys: Iterable[int]) -> None:
        """Drop *keys* from both tiers, then demote the surviving hot
        entries: their fetch checks must run again, as after a full
        flush, but their decodes are still valid."""
        hot = self.hot
        for key in keys:
            hot.pop(key, None)
            if key in self.warm:
                del self.own_warm()[key]
        if hot:
            self.own_warm().update(hot)
            hot.clear()
        self.version += 1

    def flush(self) -> None:
        self._restart()
        self.warm = {}
        self._owned = True

    def inherit(self, src: "Tiers") -> None:
        """Adopt *src*'s entries as the warm tier, by reference."""
        self._restart()
        self.warm = src.snapshot()
        self._owned = False

    def _restart(self) -> None:
        """Empty the hot tier (a subclass also drops here what it built
        beside it) and mark the change."""
        self.hot.clear()
        self.version += 1

    def snapshot(self) -> Dict[int, Any]:
        """Both tiers merged, for a fork child; never mutated."""
        if self._snapshot is None or \
                self._snapshot_version != self.version:
            merged = dict(self.warm)
            merged.update(self.hot)
            self._snapshot = merged
            self._snapshot_version = self.version
        return self._snapshot


class Core:
    """The ISA-independent part of a processor core."""

    CLOCK_HZ: int
    #: (instruction breakpoint, data watchpoint) slots of the debug unit
    DEBUG_SLOTS: Tuple[int, int]
    #: how many bytes before a written byte an instruction that spans
    #: it can start
    REACH: int
    #: instructions start at multiples of this
    ALIGN: int
    #: the attributes a fork copies (lists and dicts by value)
    STATE: Tuple[str, ...] = ("cycles", "instret")

    def __init__(self, memory: Optional[PhysicalMemory] = None,
                 aspace: Optional[AddressSpace] = None,
                 debug: Optional[DebugUnit] = None,
                 blocks: Optional[BlockCache] = None) -> None:
        self.mem = memory if memory is not None else PhysicalMemory()
        self.aspace = aspace if aspace is not None else \
            AddressSpace(self.mem)
        self.debug = debug if debug is not None else \
            DebugUnit(*self.DEBUG_SLOTS)
        self.cycles = 0
        self.instret = 0
        self.halted = False
        self.user_mode = False
        # Flight-recorder hook (repro.trace.recorder.TraceRecorder).
        # None when tracing is disabled: every emission site guards on
        # this one attribute, so the disabled hot path pays a single
        # flag test and nothing else.  An armed recorder only reads
        # state — simulated cycles/instret/RNG are untouched.
        self.tracer = None
        #: decoded instructions by address
        self.decodes = Tiers()
        # compiled-block cache (attached by Machine in block exec mode);
        # None means the step core runs alone
        self._block_cache = blocks

    def decode_raw(self, addr: int) -> Any:
        """The instruction at *addr*, decoded from memory alone (no
        fetch check, no fault state touched)."""
        raise NotImplementedError

    def fetch(self, addr: int) -> Any:
        """The instruction at *addr* as block discovery sees it: the
        tiers in ``step``'s order, else a raw decode, then the fetch
        check of everything not hot.  Decoding first is safe on both
        ISAs: reading memory never raises (an unmapped word reads as
        0).  A failed check raises :class:`MemoryFault`, not the
        core's fault, so discovery mutates no fault state (CR2, DAR)."""
        decodes = self.decodes
        instr = decodes.hot.get(addr)
        if instr is None:
            instr = decodes.warm.get(addr)
            if instr is None:
                instr = self.decode_raw(addr)
            self.aspace.check(addr, instr.length, AccessKind.FETCH)
        return instr

    def flush_icache(self) -> None:
        """Forget every decode and compiled block."""
        self.decodes.flush()
        if self._block_cache is not None:
            self._block_cache.flush()

    def invalidate_icache(self, addr: int, size: int = 1) -> None:
        """Evict what a write to ``[addr, addr+size)`` could corrupt:
        every decode starting from ``REACH`` bytes before *addr*, at
        ``ALIGN`` steps (x86: the 14 bytes before; ppc: the overwritten
        words), and the compiled blocks overlapping the write.  The
        survivors are demoted to the warm tiers."""
        start = (addr - self.REACH) & -self.ALIGN
        self.decodes.evict(a & MASK32 for a in range(
            start, addr + max(size, 1), self.ALIGN))
        if self._block_cache is not None:
            self._block_cache.invalidate(addr, size)

    def inherit(self, src: "Core") -> None:
        """Adopt *src*'s decodes and compiled blocks as warm tiers.

        Only valid while both memories hold the same text: a decode or
        a compiled block is a pure function of the bytes, and both
        caches evict on text writes, so nothing inherited can go
        stale; every entry re-runs its fetch checks here before first
        use, so this core behaves bit-for-bit like one that decoded
        and compiled everything itself.
        """
        self.decodes.inherit(src.decodes)
        if self._block_cache is not None and src._block_cache is not None:
            self._block_cache.inherit(src._block_cache)

    def fork(self: _C, memory: PhysicalMemory,
             blocks: Optional[BlockCache] = None) -> _C:
        """A core of this class over *memory* (a fork of this core's)
        at this core's state: its address-space layout, its caches as
        warm tiers (the compiled blocks into *blocks*, the clone's own
        cache, or None for a step-only clone) and the ``STATE``
        attributes.  The debug unit and tracer start fresh."""
        clone = type(self)(memory=memory, blocks=blocks)
        clone.inherit(self)
        clone.aspace.clone_layout(self.aspace)
        for name in self.STATE:
            value = getattr(self, name)
            if isinstance(value, (list, dict)):
                value = value.copy()
            setattr(clone, name, value)
        return clone
