"""Compiled-block discovery and the per-machine block cache.

A *superblock* here is a straight-line run of decoded instructions
ending at the first control-flow terminator, system instruction, basic
block leader (from the static CFG), unknown encoding, or size cap.
Each run is handed to the per-arch generator (``gen_x86``/``gen_ppc``)
which emits one Python function with operand fields, register indices
and memory handlers bound at compile time, so per-instruction dispatch
cost is paid once per block instead of once per instruction.

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

* Discovery never mutates CPU state: fetches go through the icache
  tiers or a raw decode plus ``aspace.check`` — never ``decode_at`` /
  ``_validate_fetch``, which set ``cr2``/``DAR`` on failure.
* A block only runs from the *hot* tier, and a hot block guarantees
  every one of its instruction addresses is present in the CPU's hot
  icache (``_prepare`` re-runs the same permission checks and the same
  warm-tier promotion the step core would).  Any icache invalidation
  or flush is forwarded here and demotes every hot block, so staleness
  is impossible without an intervening re-validation.
* Blocks whose first instruction cannot be compiled (unknown encoding,
  unbounded string op) are cached as *negative markers*
  (``fn is None``) so the dispatch loop falls back to single-stepping
  without re-running discovery every visit.

The cache mirrors the two-tier warm icache: ``fork()`` snapshots the
parent's blocks into the child's warm tier (shared dict, copy-on-write
on first eviction), and the first execution re-validates via
``_prepare`` exactly like a warm icache hit does.  A campaign's
machines start with the whole clean window's blocks: the checkpoint
ladder's capture run compiles them once, and the context's base
machine and every ladder rung ``inherit`` its final cache (see
``repro.checkpoint.ladder``).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.isa.faults import AccessKind, MemoryFault
from repro.static.effects import UnknownInstructionError, insn_effects

MASK32 = 0xFFFFFFFF
_FETCH = AccessKind.FETCH

#: Cap on instructions per superblock.  Long enough to swallow typical
#: kcc-emitted basic blocks, short enough that the dispatch-loop guards
#: (budget / pending-action / watchdog headroom) rarely force a
#: fallback to single-stepping.
MAX_BLOCK_INSNS = 32


class CompiledBlock:
    """One compiled superblock (or a negative marker when ``fn`` is None).

    ``end`` is the *unwrapped* exclusive byte bound (may be 2**32 for a
    block touching the top of the address space) so interval overlap
    tests against write ranges stay well-ordered.
    """

    __slots__ = ("start", "end", "n", "spans", "fn", "max_cycles")

    def __init__(self, start: int, end: int, n: int,
                 spans: Tuple[Tuple[int, int], ...], fn, max_cycles: int):
        self.start = start
        self.end = end
        self.n = n
        self.spans = spans          # ((addr, length), ...) per instruction
        self.fn = fn                # fn(cpu) -> None, or None (marker)
        self.max_cycles = max_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "marker" if self.fn is None else f"{self.n} insns"
        return f"CompiledBlock({self.start:#x}..{self.end:#x}, {tag})"


class BlockCache:
    """Two-tier compiled-block cache, mirroring the warm icache.

    ``hot`` holds blocks whose instructions are all present in the hot
    icache (safe to run directly); ``warm`` holds inherited or demoted
    blocks that must pass ``_prepare`` before running.  The warm dict
    may be shared with forked machines and is copied before the first
    mutation.  ``missed`` holds the addresses the dispatch loop has
    single-stepped on a first miss; it is never inherited.
    """

    __slots__ = ("hot", "warm", "missed", "_warm_owned", "_version",
                 "_snapshot", "_snapshot_version")

    def __init__(self) -> None:
        self.hot: Dict[int, CompiledBlock] = {}
        self.warm: Dict[int, CompiledBlock] = {}
        self.missed: Set[int] = set()
        self._warm_owned = True
        self._version = 0
        self._snapshot: Optional[Dict[int, CompiledBlock]] = None
        self._snapshot_version = -1

    def _own_warm(self) -> Dict[int, CompiledBlock]:
        if not self._warm_owned:
            self.warm = dict(self.warm)
            self._warm_owned = True
        return self.warm

    def insert_hot(self, addr: int, block: CompiledBlock) -> None:
        self.hot[addr] = block
        self._version += 1

    def insert_warm(self, addr: int, block: CompiledBlock) -> None:
        self._own_warm()[addr] = block
        self._version += 1

    def invalidate(self, addr: int, size: int = 1) -> None:
        """A write landed in ``[addr, addr+size)``: evict every block
        whose extent overlaps it, then demote the remaining hot blocks
        (their icache entries were just demoted too, so the hot-tier
        invariant would no longer hold)."""
        end = addr + max(size, 1)
        hot = self.hot
        stale_hot = [a for a, b in hot.items()
                     if b.start < end and b.end > addr]
        stale_warm = [a for a, b in self.warm.items()
                      if b.start < end and b.end > addr]
        if stale_warm:
            warm = self._own_warm()
            for a in stale_warm:
                del warm[a]
        for a in stale_hot:
            del hot[a]
        if hot:
            warm = self._own_warm()
            warm.update(hot)
            hot.clear()
        self._version += 1

    def flush(self) -> None:
        self.hot.clear()
        self.warm = {}
        self._warm_owned = True
        self._version += 1

    def snapshot(self) -> Dict[int, CompiledBlock]:
        """Merged view of both tiers; cached until the next mutation so
        sibling forks share one dict."""
        if self._snapshot is None or self._snapshot_version != self._version:
            merged = dict(self.warm)
            merged.update(self.hot)
            self._snapshot = merged
            self._snapshot_version = self._version
        return self._snapshot

    def inherit(self, src: "BlockCache") -> None:
        self.hot.clear()
        self.warm = src.snapshot()
        self._warm_owned = False
        self._version += 1


# ---------------------------------------------------------------------------
# block-leader discovery (static CFG, cached per kernel image)

_LEADER_ATTR = "_compiled_block_leaders"


def leaders_for(arch: str, image) -> frozenset:
    """Basic-block leader addresses from the static CFG of *image*.

    ``image`` None (raw-memory harnesses with no kernel) means no
    leaders: blocks then end only at terminators and the size cap.  A
    CFG that fails to build on a real image raises.

    Cached on the image object itself — ``build_kernel`` is lru-cached,
    so every machine for an arch shares one image and one leader set.
    """
    if image is None:
        return frozenset()
    cached = getattr(image, _LEADER_ATTR, None)
    if cached is not None:
        return cached
    from repro.static.cfg import build_cfg
    cfg = build_cfg(arch, image)
    leaders = frozenset(address for function in cfg.functions.values()
                        for address in function.blocks)
    setattr(image, _LEADER_ATTR, leaders)
    return leaders


def _generator(arch: str):
    if arch == "x86":
        from repro.compile import gen_x86
        return gen_x86
    from repro.compile import gen_ppc
    return gen_ppc


# ---------------------------------------------------------------------------
# discovery + compilation


def compile_block(cpu, addr: int, arch: str, image) -> Optional[CompiledBlock]:
    """Discover and compile the superblock starting at ``addr``.

    Returns ``None`` when even the first fetch fails its permission
    check (the step core will raise the properly-attributed fault), or
    a negative marker when the first instruction cannot be compiled.
    """
    gen = _generator(arch)
    leaders = leaders_for(arch, image)
    nodes = []
    a = addr
    while True:
        if nodes and a in leaders:
            break
        try:
            instr = gen.fetch(cpu, a)
        except MemoryFault:
            break
        length = gen.insn_length(instr)
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
    fn, max_cycles = gen.generate(nodes, hard_end)
    spans = tuple((na, gen.insn_length(ni)) for na, ni in nodes)
    last_a, last_i = nodes[-1]
    return CompiledBlock(addr, last_a + gen.insn_length(last_i),
                         len(nodes), spans, fn, max_cycles)


def _prepare(cpu, block: CompiledBlock, gen) -> bool:
    """Re-validate a block before its first hot run: every instruction
    address must be in the hot icache afterwards.  Mirrors the step
    core's warm-hit path — permission check, then promotion of the
    *same* decode object from the warm tier (fresh raw decode on a true
    miss).  Returns False when any fetch check fails; the caller then
    single-steps, which raises the fault with correct attribution."""
    icache = cpu._icache
    need = [span for span in block.spans if span[0] not in icache]
    if not need:
        return True
    aspace = cpu.aspace
    try:
        for a, length in need:
            aspace.check(a, length, _FETCH)
    except MemoryFault:
        return False
    warm = cpu._icache_warm
    for a, _length in need:
        instr = warm.get(a)
        if instr is None:
            instr = gen.decode_raw(cpu, a)
        icache[a] = instr
    cpu._icache_version += len(need)
    return True


def lookup_block(cpu, cache: BlockCache, addr: int, arch: str,
                 image) -> Optional[CompiledBlock]:
    """Slow path behind a hot-tier miss: try the warm tier, else
    compile (always; the dispatch loop's second-miss policy decides
    when to call this).  Returns a hot-ready block, a negative marker,
    or None (caller single-steps)."""
    gen = _generator(arch)
    block = cache.warm.get(addr)
    if block is not None:
        if block.fn is None or _prepare(cpu, block, gen):
            cache.insert_hot(addr, block)
            return block
        return None
    block = compile_block(cpu, addr, arch, image)
    if block is None:
        return None
    if block.fn is None or _prepare(cpu, block, gen):
        cache.insert_hot(addr, block)
        return block
    cache.insert_warm(addr, block)      # retry once the fault clears
    return None
