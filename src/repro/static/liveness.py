"""Backward register- and condition-flag-liveness over the CFG.

Classic backward may-analysis on the :class:`~repro.static.cfg`
basic blocks: a resource is *live* at a point if some path from that
point may read it before redefining it.  The transfer function comes
straight from the per-instruction :class:`InsnEffects` def/use sets.

Conservatism (always toward *more* live, never less):

* calls use every argument-passing register and the stack pointer,
  and clobber exactly the ABI's caller-saved set (kcc emits standard
  cdecl / SysV-PPC conventions);
* function exits (``ret`` / ``bclr`` / ``iret`` / ``rfi``) keep the
  return-value registers, the stack pointer, and all callee-saved
  state live;
* transfers whose destination is statically unknown or outside the
  function (indirect jumps, tail jumps, fall-off) keep *everything*
  live;
* after a guaranteed-illegal instruction or ``hlt`` nothing is live.

The result maps every instruction address to its live-out set; a
definition whose targets are all dead at that point is a candidate
dead-value write for the predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from repro.static.cfg import BasicBlock, FunctionCFG, KernelCFG
from repro.static.effects import (
    InsnEffects, KIND_BRANCH, KIND_CALL, KIND_CALL_INDIRECT, KIND_HALT,
    KIND_ILLEGAL, KIND_JUMP, KIND_JUMP_INDIRECT, KIND_RET,
    PPC_RESOURCES, X86_RESOURCES, resources_for,
)

# return values + stack/frame + callee-saved survive a function exit
X86_EXIT_LIVE = frozenset({"eax", "edx", "esp", "ebp",
                           "ebx", "esi", "edi"})
# r3/r4 return pair, r1 stack, r13-r31 nonvolatile, cr2-cr4 nonvolatile
PPC_EXIT_LIVE = frozenset({"r1", "r3", "r4"}
                          | {f"r{n}" for n in range(13, 32)}
                          | {"cr2", "cr3", "cr4"})

X86_CALL_USES = frozenset({"esp", "ebp"})
X86_CALL_DEFS = frozenset({"eax", "ecx", "edx", "eflags"})

PPC_CALL_USES = frozenset({"r1"} | {f"r{n}" for n in range(3, 11)})
PPC_CALL_DEFS = frozenset({"r0", "lr", "ctr", "xer",
                           "cr0", "cr1", "cr5", "cr6", "cr7"}
                          | {f"r{n}" for n in range(3, 13)})

_ABI = {
    "x86": (X86_EXIT_LIVE, X86_CALL_USES, X86_CALL_DEFS,
            frozenset(X86_RESOURCES)),
    "ppc": (PPC_EXIT_LIVE, PPC_CALL_USES, PPC_CALL_DEFS,
            frozenset(PPC_RESOURCES)),
}


@dataclass
class LivenessResult:
    """Per-instruction live-out sets for one kernel image."""

    arch: str
    #: instruction address -> resources live immediately after it
    live_out: Dict[int, FrozenSet[str]]
    #: function name -> resources live at its entry
    entry_live: Dict[str, FrozenSet[str]]

    def dead_defs(self, addr: int, effects: InsnEffects) -> FrozenSet[str]:
        """The subset of an instruction's defs that nothing reads."""
        live = self.live_out.get(addr)
        if live is None:
            return frozenset()
        return effects.defs - live


def _insn_transfer(eff: InsnEffects, live: Set[str],
                   call_uses: FrozenSet[str],
                   call_defs: FrozenSet[str]) -> Set[str]:
    defs, uses = eff.defs, eff.uses
    if eff.kind in (KIND_CALL, KIND_CALL_INDIRECT):
        defs = defs | call_defs
        uses = uses | call_uses
    return (live - defs) | uses


def _terminator_exit_live(eff: InsnEffects, fcfg: FunctionCFG,
                          exit_live: FrozenSet[str],
                          everything: FrozenSet[str],
                          block: BasicBlock) -> FrozenSet[str]:
    """Live-out contribution of control leaving the function (or the
    analysis' knowledge) at this block's terminator."""
    kind = eff.kind
    if kind == KIND_RET:
        return exit_live
    if kind in (KIND_ILLEGAL, KIND_HALT):
        return frozenset()
    if kind == KIND_JUMP_INDIRECT:
        return everything
    if kind == KIND_JUMP and not block.succs:
        return everything            # tail jump out of the function
    if kind == KIND_BRANCH and eff.target is not None \
            and eff.target not in fcfg.blocks:
        return everything            # branch out of the function
    if not block.succs and kind not in (KIND_JUMP,):
        # falls off the function end (e.g. ends in a noreturn call)
        return everything
    return frozenset()


def _function_liveness(fcfg: FunctionCFG, arch: str,
                       live_out_map: Dict[int, FrozenSet[str]]
                       ) -> FrozenSet[str]:
    exit_live, call_uses, call_defs, everything = _ABI[arch]

    live_in: Dict[int, Set[str]] = {a: set() for a in fcfg.blocks}
    # iterate to fixpoint; blocks in reverse address order converge
    # quickly for the mostly-forward CFGs kcc emits
    changed = True
    while changed:
        changed = False
        for start in sorted(fcfg.blocks, reverse=True):
            block = fcfg.blocks[start]
            eff = block.terminator.effects
            out: Set[str] = set(_terminator_exit_live(
                eff, fcfg, exit_live, everything, block))
            for succ in block.succs:
                out |= live_in[succ]
            live = set(out)
            for node in reversed(block.insns):
                live = _insn_transfer(node.effects, live, call_uses,
                                      call_defs)
            if live != live_in[start]:
                live_in[start] = live
                changed = True

    # final backward walk records per-instruction live-out
    for start, block in fcfg.blocks.items():
        eff = block.terminator.effects
        out = set(_terminator_exit_live(eff, fcfg, exit_live,
                                        everything, block))
        for succ in block.succs:
            out |= live_in[succ]
        live = set(out)
        for node in reversed(block.insns):
            live_out_map[node.addr] = frozenset(live)
            live = _insn_transfer(node.effects, live, call_uses,
                                  call_defs)
    return frozenset(live_in[fcfg.entry])


def compute_liveness(cfg: KernelCFG) -> LivenessResult:
    """Run the backward liveness fixpoint over every function."""
    resources_for(cfg.arch)        # validate arch early
    live_out_map: Dict[int, FrozenSet[str]] = {}
    entry_live: Dict[str, FrozenSet[str]] = {}
    for name, fcfg in cfg.functions.items():
        entry_live[name] = _function_liveness(fcfg, cfg.arch,
                                              live_out_map)
    return LivenessResult(arch=cfg.arch, live_out=live_out_map,
                          entry_live=entry_live)
