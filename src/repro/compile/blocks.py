"""Compiled-block discovery and the per-machine block cache.

A *superblock* here is a straight-line run of decoded instructions
ending at the first control-flow terminator, system instruction, basic
block leader (from the static CFG), unknown encoding, or size cap.
Each run is handed to the per-arch generator (``gen_x86``/``gen_ppc``)
which emits one Python function with operand fields, register indices
and memory handlers bound at compile time, so per-instruction dispatch
cost is paid once per block instead of once per instruction.

A superblock on a static cycle of superblocks (a loop: every hot
kernel loop is a cycle of two or more, since loop heads are leaders)
compiles with the rest of the cycle into one *region* function that
loops over its members itself, checking the dispatch loop's guards
before each one (see :mod:`repro.compile.emit`).  Every member keeps
its own :class:`CompiledBlock`; the members are inserted into the
cache one by one, each at its own second miss, exactly when it would
have compiled on its own.

When a block compiles: only code that runs again.  ``lookup_block``
compiles on every call, but the dispatch loop
(``Machine.call_kernel``) calls it only for an address that is in the
warm tier or was already missed once (``BlockCache.missed``); an
address's first miss is single-stepped and remembered.  Compiling
costs far more than stepping one instruction, and most first misses
never come back: the successive mid-block addresses just before an
injection instant (whose blocks the pending-action guard would refuse
to run anyway), the tail after a fault fires, crash paths.  The missed
set starts empty in every fork.

Correctness contract (everything the step core observes must match):

* Discovery never mutates CPU state: it fetches through
  ``Core.fetch`` (the decode tiers or a raw decode, plus
  ``aspace.check``) — never ``decode_at`` / ``_validate_fetch``, which
  set ``cr2``/``DAR`` on failure.
* A block only runs from the *hot* tier, and a hot block guarantees
  every one of its instruction addresses is present in the CPU's hot
  decode tier (``_prepare`` re-runs the same permission checks and the
  same warm-tier promotion the step core would).  Any decode
  invalidation or flush is forwarded here and demotes every hot block,
  so staleness is impossible without an intervening re-validation.
* Blocks whose first instruction cannot be compiled (unknown encoding,
  unbounded string op) are cached as *negative markers*
  (``fn is None``) so the dispatch loop falls back to single-stepping
  without re-running discovery every visit.

The cache has the decode cache's tiers (both are
:class:`repro.isa.core.Tiers`): a fork snapshots the parent's blocks
into the child's warm tier (shared dict, copy-on-write on first
eviction), and the first execution re-validates via ``_prepare``
exactly like a warm decode hit does.  A campaign's
machines start with the whole clean window's blocks: the observed
clean pass (``repro.workload.probe``) compiles them once, and the
context's base machine and every ladder rung ``inherit`` its final
cache (see ``repro.checkpoint.ladder``).
"""

from __future__ import annotations

import bisect
import importlib
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.codecache import cached
from repro.isa.core import Tiers
from repro.isa.faults import AccessKind, MemoryFault
from repro.static.effects import (
    KIND_BRANCH, KIND_JUMP, UnknownInstructionError, insn_effects,
)

MASK32 = 0xFFFFFFFF
_FETCH = AccessKind.FETCH

#: Cap on instructions per superblock.  Long enough to swallow typical
#: kcc-emitted basic blocks, short enough that the dispatch-loop guards
#: (budget / pending-action / watchdog headroom) rarely force a
#: fallback to single-stepping.
MAX_BLOCK_INSNS = 32

#: Cap on the superblocks searched for a region (a static cycle of
#: superblocks compiled into one looping function).  Hot kernel loops
#: are cycles of two to six blocks.
MAX_REGION_BLOCKS = 8


class CompiledBlock:
    """One compiled superblock (or a negative marker when ``fn`` is None).

    ``start``/``end`` bound the bytes whose overwrite evicts the block:
    its own extent, or for a region member the region's hull.  ``end``
    is *unwrapped* (may be 2**32 for a block touching the top of the
    address space) so interval overlap tests against write ranges stay
    well-ordered.  ``spans`` are the block's own instructions; a region
    member's ``region`` holds every member's, which is what its shared
    function may fetch (None for a plain block).
    """

    __slots__ = ("start", "end", "n", "spans", "fn", "max_cycles", "region")

    def __init__(self, start: int, end: int, n: int,
                 spans: Tuple[Tuple[int, int], ...], fn, max_cycles: int,
                 region: Optional[Tuple[Tuple[int, int], ...]] = None):
        self.start = start
        self.end = end
        self.n = n
        self.spans = spans          # ((addr, length), ...) per instruction
        self.fn = fn                # fn(cpu, ilim=0, clim=0), or None (marker)
        self.max_cycles = max_cycles
        self.region = region

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "marker" if self.fn is None else f"{self.n} insns"
        return f"CompiledBlock({self.spans[0][0]:#x}, {tag})"


class BlockCache(Tiers):
    """The compiled-block tiers (:class:`repro.isa.core.Tiers`).

    ``hot`` holds blocks whose instructions are all in the hot decode
    tier (safe to run directly); ``warm`` holds inherited or demoted
    blocks that must pass ``_prepare`` before running.  ``missed``
    holds the addresses the dispatch loop has single-stepped on a first
    miss.  ``waiting`` holds region members compiled along with another
    member, until their own second miss (so a tier gains a block
    exactly when it would without regions).  Neither is inherited.
    """

    __slots__ = ("missed", "waiting")

    def __init__(self) -> None:
        super().__init__()
        self.missed: Set[int] = set()
        self.waiting: Dict[int, CompiledBlock] = {}

    def _restart(self) -> None:
        self.waiting.clear()
        super()._restart()

    def invalidate(self, addr: int, size: int = 1) -> None:
        """A write landed in ``[addr, addr+size)``: evict every block
        whose extent overlaps it and demote the rest (their decodes
        were just demoted too, so the hot-tier invariant no longer
        holds).  Waiting members are dropped."""
        self.waiting.clear()
        end = addr + max(size, 1)
        self.evict([a for tier in (self.hot, self.warm)
                    for a, b in tier.items()
                    if b.start < end and b.end > addr])


# ---------------------------------------------------------------------------
# block-leader discovery (static CFG, cached per kernel image)

_STATIC_ATTR = "_compiled_block_statics"

#: the basic blocks on a static-CFG cycle: (sorted starts, their ends)
Looping = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _statics(arch: str, image) -> Tuple[frozenset, Looping]:
    """(leaders, looping) from the static CFG of *image*: the basic-block
    leader addresses, and the extents of the basic blocks that lie on a
    CFG cycle.  A region's cycle is a CFG cycle too (the CFG has every
    jump, branch and fall-through edge), so only a superblock starting
    inside a looping block can be a region member.

    A CFG that fails to build raises.  Cached on the image object
    itself — ``build_kernel`` is lru-cached, so every machine for an
    arch shares one image and one analysis — and in the code cache,
    filed under what ``build_cfg`` reads of the image: its text and
    each function's name, extent and instruction addresses.
    """
    statics = getattr(image, _STATIC_ATTR, None)
    if statics is None:
        leaders, starts, ends = cached(
            f"<{arch} statics>",
            (image.text_base, image.text_bytes,
             tuple((name, info.addr, info.size, tuple(info.insn_addrs))
                   for name, info in sorted(image.functions.items()))),
            lambda: _analyse(arch, image))
        statics = (frozenset(leaders), (starts, ends))
        setattr(image, _STATIC_ATTR, statics)
    return statics


def _analyse(arch: str, image) -> Tuple[Tuple[int, ...], ...]:
    """The sorted leaders, and the looping blocks' starts and ends."""
    from repro.static.cfg import build_cfg
    cfg = build_cfg(arch, image)
    leaders: Set[int] = set()
    looping: List[Tuple[int, int]] = []
    for function in cfg.functions.values():
        blocks = function.blocks
        leaders.update(blocks)
        for start, block in blocks.items():
            seen: Set[int] = set()
            stack = list(block.succs)
            while stack:
                succ = stack.pop()
                if succ == start:
                    looping.append((start, block.end))
                    break
                if succ not in seen and succ in blocks:
                    seen.add(succ)
                    stack.extend(blocks[succ].succs)
    looping.sort()
    return (tuple(sorted(leaders)), tuple(a for a, _ in looping),
            tuple(b for _, b in looping))


def _loops(looping: Optional[Looping], addr: int) -> bool:
    """Whether ``addr`` may lie on a region: inside a looping block, or
    anywhere without an image (``looping`` None)."""
    if looping is None:
        return True
    starts, ends = looping
    index = bisect.bisect_right(starts, addr) - 1
    return index >= 0 and addr < ends[index]


def leaders_for(arch: str, image) -> frozenset:
    """Basic-block leader addresses from the static CFG of *image*
    (see :func:`_statics`).  ``image`` None (raw-memory harnesses with
    no kernel) means no leaders: blocks then end only at terminators
    and the size cap."""
    if image is None:
        return frozenset()
    return _statics(arch, image)[0]


def _generator(arch: str):
    return importlib.import_module(f"repro.compile.gen_{arch}")


# ---------------------------------------------------------------------------
# discovery + compilation


def _discover(cpu, addr: int, gen, leaders):
    """The superblock at ``addr``: (nodes, hard_end, successors), a
    negative marker when its first instruction cannot be compiled, or
    None when even the first fetch fails.  ``hard_end`` marks a last
    instruction that is a terminator or system instruction;
    ``successors`` are the static successor addresses, or None when
    the superblock cannot be a region member."""
    nodes = []
    a = addr
    while True:
        if nodes and a in leaders:
            break
        try:
            instr = cpu.fetch(a)
        except MemoryFault:
            break
        length = instr.length
        unbounded = instr.execute in gen.UNBOUNDED
        if not unbounded:
            try:
                effects = insn_effects(instr, a)
            except UnknownInstructionError:
                unbounded = True
        if unbounded:
            # Not compilable: cycle cost is unbounded (rep movs/stos)
            # or semantics unknown.  Truncate before it; if
            # it is the block head, cache a marker so dispatch stops
            # retrying compilation at this address.
            if not nodes:
                return CompiledBlock(addr, addr + length, 1,
                                     ((addr, length),), None, 0)
            break
        hard_end = effects.is_terminator or effects.system
        nodes.append((a, instr))
        next_a = a + length
        if next_a > MASK32 + 1:
            next_a -= MASK32 + 1        # wrapped mid-instruction
        if hard_end:
            break
        if next_a <= a or len(nodes) >= MAX_BLOCK_INSNS:
            break                       # address wrap or size cap
        a = next_a
    if not nodes:
        return None
    last_a, last_i = nodes[-1]
    after = last_a + last_i.length
    if after > MASK32:
        succs = None                    # falls off the address space
    elif not hard_end:
        succs = (after,)                # cut at a leader or the size cap
    elif effects.system or effects.target is None:
        succs = None
    elif effects.kind == KIND_JUMP:
        succs = (effects.target,)
    elif effects.kind == KIND_BRANCH:
        succs = (effects.target, after)
    else:
        succs = None                    # call, return, halt, illegal
    return nodes, hard_end, succs


def _region(cpu, addr: int, head, gen, leaders, looping) -> dict:
    """The members of the region through ``addr`` (discovered as
    *head*): address to (nodes, hard_end, successors that are members),
    ``addr`` first.  The members are the superblocks on a static cycle
    through ``addr``, among at most ``MAX_REGION_BLOCKS`` that could be
    members, searched breadth-first along successors from it; one that
    cannot (it ends in a call, return, indirect jump or system
    instruction) ends the search on its path and is not counted, and
    one off every static-CFG cycle (see :func:`_loops`) is not
    searched.  Empty when ``addr`` lies on no cycle."""
    found = {addr: head}
    queue = [addr]
    searched = 1
    while queue:
        for succ in found[queue.pop(0)][2]:
            if succ in found or searched >= MAX_REGION_BLOCKS \
                    or not _loops(looping, succ):
                continue
            block = _discover(cpu, succ, gen, leaders)
            if isinstance(block, tuple):
                found[succ] = block
                if block[2] is not None:
                    queue.append(succ)
                    searched += 1
    # keep the superblocks from which addr is reached again
    back: Set[int] = set()
    grew = True
    while grew:
        grew = False
        for a, (_nodes, _hard, succs) in found.items():
            if a not in back and succs is not None and (
                    addr in succs or not back.isdisjoint(succs)):
                back.add(a)
                grew = True
    if addr not in back:
        return {}
    return {a: (nodes, hard, tuple(s for s in succs if s in back))
            for a, (nodes, hard, succs) in found.items() if a in back}


def compile_block(cpu, addr: int, arch: str,
                  image) -> List[CompiledBlock]:
    """Discover and compile the superblock starting at ``addr``.

    Returns the compiled unit's blocks, ``addr``'s first: that block
    alone, or every member of the region ``addr``'s superblock lies on
    (see :mod:`repro.compile.emit`; searched for only where the static
    CFG has a cycle), each with its own ``n``, ``spans``
    and ``max_cycles`` and all sharing one function.  Returns an empty
    list when even the first fetch fails its permission check (the step
    core will raise the properly-attributed fault), and a negative
    marker alone when the first instruction cannot be compiled.
    """
    gen = _generator(arch)
    leaders = leaders_for(arch, image)
    head = _discover(cpu, addr, gen, leaders)
    if not isinstance(head, tuple):
        return [] if head is None else [head]
    looping = None if image is None else _statics(arch, image)[1]
    found = _region(cpu, addr, head, gen, leaders, looping) \
        if head[2] is not None and _loops(looping, addr) else {}
    members = list(found.values()) or [(head[0], head[1], ())]
    fn, max_cycles = gen.generate(members)
    spans = [tuple((a, i.length) for a, i in nodes)
             for nodes, _hard, _succs in members]
    ends = [own[-1][0] + own[-1][1] for own in spans]
    if not found:
        return [CompiledBlock(addr, ends[0], len(members[0][0]), spans[0],
                              fn, max_cycles[0])]
    # every member's extent is the region's hull: a write into any
    # member evicts them all, since they share the function
    region = tuple(span for own in spans for span in own)
    start = min(a for a, _length in region)
    return [CompiledBlock(start, max(ends), len(own), own, fn, cycles,
                          region)
            for own, cycles in zip(spans, max_cycles)]


def _fetchable(aspace, block: CompiledBlock, need) -> bool:
    """Whether every span in *need* passes its fetch check.  One check
    of the block's extent implies them all; it is not tried with
    translation off, where ``check`` tests only an access's first
    address against the translated range."""
    if aspace.translation_on:
        try:
            aspace.check(block.start, block.end - block.start, _FETCH)
            return True
        except MemoryFault:
            pass
    try:
        for a, length in need:
            aspace.check(a, length, _FETCH)
    except MemoryFault:
        return False
    return True


def _prepare(cpu, block: CompiledBlock) -> bool:
    """Re-validate a block before its first hot run: every instruction
    address its function may run (every member's, for a region member)
    must be in the hot decode tier afterwards.  Mirrors the step core's
    warm-hit path — permission check (:func:`_fetchable`), then
    promotion of the *same* decode object from the warm tier (fresh raw
    decode on a true miss), with one ``version`` bump for them all.
    Returns False when any fetch check fails; the caller then
    single-steps, which raises the fault with correct attribution."""
    decodes = cpu.decodes
    hot = decodes.hot
    need = [span for span in block.region or block.spans
            if span[0] not in hot]
    if not need:
        return True
    if not _fetchable(cpu.aspace, block, need):
        return False
    decodes.version += 1
    warm = decodes.warm
    for a, _length in need:
        instr = warm.get(a)
        hot[a] = instr if instr is not None else cpu.decode_raw(a)
    return True


def lookup_block(cpu, cache: BlockCache, addr: int, arch: str,
                 image) -> Optional[CompiledBlock]:
    """Slow path behind a hot-tier miss: try the warm tier, then the
    waiting region members, else compile (always; the dispatch loop's
    second-miss policy decides when to call this).  Returns a hot-ready
    block, a negative marker, or None (caller single-steps)."""
    block = cache.warm.get(addr)
    if block is not None:
        if block.fn is None or _prepare(cpu, block):
            cache.insert_hot(addr, block)
            return block
        return None
    block = cache.waiting.pop(addr, None)
    if block is None:
        blocks = compile_block(cpu, addr, arch, image)
        if not blocks:
            return None
        block = blocks[0]
        cache.waiting.update((member.spans[0][0], member)
                             for member in blocks[1:])
    if block.fn is None or _prepare(cpu, block):
        cache.insert_hot(addr, block)
        return block
    cache.insert_warm(addr, block)      # retry once the fault clears
    return None
