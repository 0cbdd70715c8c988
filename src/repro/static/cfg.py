"""Cross-ISA control-flow graphs over the decoded kernel text.

The linker records every function's exact instruction boundaries
(``FunctionInfo.insn_addrs``), so the CFG builder never has to guess
where instructions start: it decodes each address with the same
decoder the simulated machine uses (``x86.decoder.decode`` over the
raw bytes, ``ppc.decoder.decode`` over big-endian words), asks
:mod:`repro.static.effects` how each instruction terminates, and
splits functions into basic blocks at branch targets and after
terminators.

Reachability is intra-function, from the function entry.  Every
function is a root: the workload dispatches syscalls and traps
dynamically, so no whole-program dead-function claim is made.  A
function containing an indirect jump (``jmp r/m`` / ``bcctr``) has
every block conservatively marked reachable — the target set is
statically unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.kernel.image import KernelImage
from repro.ppc import decoder as pdec
from repro.ppc.insn import PPCInstr
from repro.static.effects import (
    InsnEffects, KIND_BRANCH, KIND_CALL, KIND_JUMP, insn_effects,
)
from repro.x86 import decoder as xdec
from repro.x86.insn import Instr

AnyInstr = Union[Instr, PPCInstr]


@dataclass
class InsnNode:
    """One decoded instruction inside a basic block."""

    addr: int
    length: int
    insn: AnyInstr
    effects: InsnEffects


@dataclass
class BasicBlock:
    """Maximal straight-line run of instructions."""

    start: int
    insns: List[InsnNode] = field(default_factory=list)
    #: intra-function successor block start addresses
    succs: List[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        last = self.insns[-1]
        return last.addr + last.length

    @property
    def terminator(self) -> InsnNode:
        return self.insns[-1]


@dataclass
class FunctionCFG:
    """CFG of one linked function."""

    name: str
    entry: int
    blocks: Dict[int, BasicBlock]
    #: start addresses of blocks reachable from the entry
    reachable: FrozenSet[int]
    #: statically known intra-image call targets
    call_targets: FrozenSet[int]
    #: contains an indirect jump, making reachability conservative
    has_indirect_jump: bool


@dataclass
class KernelCFG:
    """All function CFGs of one kernel image."""

    arch: str
    image: KernelImage
    functions: Dict[str, FunctionCFG]
    #: addr -> (function name, block start) for every instruction
    insn_map: Dict[int, Tuple[str, int]]

    @property
    def total_blocks(self) -> int:
        return sum(len(f.blocks) for f in self.functions.values())

    @property
    def total_unreachable_blocks(self) -> int:
        return sum(len(f.blocks) - len(f.reachable)
                   for f in self.functions.values())


def decode_at(arch: str, image: KernelImage, addr: int) -> AnyInstr:
    """Decode the instruction at a text address, zero-padding at the
    end of the section exactly like ``disasm.disassemble`` does."""
    off = addr - image.text_base
    if arch == "x86":
        window = image.text_bytes[off:off + xdec.MAX_INSN_LEN]
        if len(window) < xdec.MAX_INSN_LEN:
            window = window + bytes(xdec.MAX_INSN_LEN - len(window))
        return xdec.decode(window, addr)
    word = int.from_bytes(image.text_bytes[off:off + 4], "big")
    return pdec.decode(word, addr)


def _function_cfg(arch: str, image: KernelImage, name: str) -> FunctionCFG:
    info = image.functions[name]
    addrs = list(info.insn_addrs)
    end = info.addr + info.size
    in_function = set(addrs)

    nodes: List[InsnNode] = []
    for pos, addr in enumerate(addrs):
        insn = decode_at(arch, image, addr)
        next_addr = addrs[pos + 1] if pos + 1 < len(addrs) else end
        length = next_addr - addr
        if isinstance(insn, Instr) and insn.length != length:
            raise ValueError(
                f"{name}+{addr - info.addr:#x}: decoded length "
                f"{insn.length} != linked length {length}")
        nodes.append(InsnNode(addr, length, insn,
                              insn_effects(insn, addr)))

    # leaders: entry, branch targets inside the function, and the
    # instruction after any terminator
    leaders = {info.addr}
    for node in nodes:
        eff = node.effects
        if eff.is_terminator:
            fall = node.addr + node.length
            if fall in in_function:
                leaders.add(fall)
            if eff.kind in (KIND_JUMP, KIND_BRANCH) \
                    and eff.target in in_function:
                leaders.add(eff.target)

    blocks: Dict[int, BasicBlock] = {}
    current: Optional[BasicBlock] = None
    for node in nodes:
        if node.addr in leaders or current is None:
            current = BasicBlock(start=node.addr)
            blocks[node.addr] = current
        current.insns.append(node)
        if node.effects.is_terminator:
            current = None

    call_targets = set()
    has_indirect = False
    for start in sorted(blocks):
        block = blocks[start]
        eff = block.terminator.effects
        fall = block.end
        succs: List[int] = []
        if eff.kind == KIND_JUMP:
            if eff.target in in_function:
                succs.append(eff.target)
            # a jump out of the function is a tail transfer: no
            # intra-function successor
        elif eff.kind == KIND_BRANCH:
            if eff.target in in_function:
                succs.append(eff.target)
            if fall in in_function:
                succs.append(fall)
        elif eff.kind == "jump-indirect":
            has_indirect = True
        elif eff.kind in ("ret", "illegal", "halt"):
            pass
        else:                      # fall, call, call-indirect, trap-ish
            if fall in in_function:
                succs.append(fall)
        if eff.kind == KIND_CALL and eff.target is not None:
            call_targets.add(eff.target)
        # successors are block starts by construction (leaders)
        block.succs = succs

    if has_indirect:
        reachable = frozenset(blocks)
    else:
        reachable_set = set()
        stack = [info.addr]
        while stack:
            start = stack.pop()
            if start in reachable_set or start not in blocks:
                continue
            reachable_set.add(start)
            stack.extend(blocks[start].succs)
        reachable = frozenset(reachable_set)

    return FunctionCFG(name=name, entry=info.addr, blocks=blocks,
                       reachable=reachable,
                       call_targets=frozenset(call_targets),
                       has_indirect_jump=has_indirect)


def build_cfg(arch: str, image: KernelImage) -> KernelCFG:
    """Build CFGs for every function in a linked kernel image."""
    functions: Dict[str, FunctionCFG] = {}
    insn_map: Dict[int, Tuple[str, int]] = {}
    for name in sorted(image.functions):
        fcfg = _function_cfg(arch, image, name)
        functions[name] = fcfg
        for start, block in fcfg.blocks.items():
            for node in block.insns:
                insn_map[node.addr] = (name, start)
    return KernelCFG(arch=arch, image=image, functions=functions,
                     insn_map=insn_map)
