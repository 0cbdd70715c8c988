"""Fold reachability + liveness + corruption class + taint into
per-bit predictions.

Decision procedure for one (instruction, bit), in order:

1. decode-identical flip → ``NOT_MANIFESTED`` (class ``NO_CHANGE``);
2. instruction statically unreachable → ``NOT_ACTIVATED``;
3. flipped decode is guaranteed-illegal or (x86) changes the
   instruction length, desynchronizing the following stream →
   ``MANIFESTED``;
4. otherwise the flip substitutes the operation or an operand; the
   effect model decides:

   * supervisor state, memory writes, or traps appear/disappear/move
     → ``MANIFESTED`` (wild stores and bad-address loads are the
     paper's dominant crash causes);
   * control flow changes shape, target, or condition inputs →
     ``MANIFESTED``;
   * a memory *read* keeps its operation but its address registers
     change → ``MANIFESTED`` (bad paging / bad area);
   * the stack/frame pointer becomes a destination → ``MANIFESTED``
     (every later frame access goes wild);
   * otherwise only register dataflow changed, and the taint engine
     (:mod:`repro.static.taint`) decides: seed the registers the
     flip can wrong (old defs ∪ new defs) and follow them —

     - **provable death** (liveness kills the seed immediately, or
       the taint fixpoint shows every tainted resource overwritten
       before any sink) → ``NOT_MANIFESTED``, proof-backed; the
       ``DEAD_WRITE`` class marks the immediate-liveness case;
     - **sink within the calibrated horizon** — the wrong value
       feeds a memory address within ``MEM_SINK_HORIZON``
       instructions, a supervisor/trap operand anywhere, or
       (when control conditions are its only reachable effect) a
       branch decision within ``CONTROL_ONLY_WINDOW`` →
       ``MANIFESTED``, with the evidence chain and the
       distance-to-sink bound recorded on the prediction;
     - anything else (escape, distant sink, workload-output-only
       sink) → ``NOT_MANIFESTED``, the calibrated fallback —
       campaigns show long-range value substitutions are
       predominantly masked (overwritten, compared equal, or never
       part of the workload's result), the paper's own explanation
       for its large non-manifestation counts.

Inertness soundness: a bit is *taint-prunable* (injecting it can never
manifest) only when its death proof holds under the dynamic fault model
too — the substituted instruction must not be a block terminator and
must keep an identical fault surface (same operation and memory
access, destination-register change only) so the corrupted run cannot
fault where the clean run does not.  ``dead_bits`` keeps
PR 4's stricter decode-identical/unreachable-only meaning.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.kernel.image import KernelImage
from repro.kernel.build import build_kernel
from repro.static.cfg import AnyInstr, KernelCFG, build_cfg
from repro.static.corruption import (
    _PPC_SEMANTIC_SLOTS, _X86_SEMANTIC_SLOTS, CorruptionClass,
    classify_flip,
)
from repro.static.effects import InsnEffects, insn_effects
from repro.static.liveness import LivenessResult, compute_liveness
from repro.static.report import (
    BitPrediction, PredictedOutcome, StaticSensitivityReport,
)
from repro.static.taint import TaintEngine, TaintVerdict, VERDICT_DEAD
from repro.x86.insn import Instr

#: stack/frame registers: corrupting them derails every later access
_PIVOT_REGS = {"x86": frozenset({"esp", "ebp"}),
               "ppc": frozenset({"r1"})}

#: a ``mem-addr`` sink within this many instructions of the
#: corruption predicts a manifestation: the wrong value becomes a
#: pointer before anything can overwrite or mask it.  Farther
#: address sinks are predominantly re-ranged (index arithmetic,
#: rebounded loops) before dereference — calibrated against the
#: deterministic validation campaigns (tests/test_validate_static.py)
MEM_SINK_HORIZON = 2

#: when the taint's *only* reachable sinks are control conditions,
#: nothing can mask the wrong value — its entire downstream effect
#: is a branch decision.  Distance 1 (the adjacent compare→branch
#: pair) still masks dynamically: a substituted comparison usually
#: reaches the same verdict on related operands.  Calibrated window.
CONTROL_ONLY_WINDOW = (2, 4)

#: sink kinds that predict a manifestation at any distance: a wrong
#: privileged operand or trap operand has no masking story at all
ALWAYS_MANIFEST_SINKS = frozenset({"supervisor", "trap-operand"})


def _substitution_manifests(arch: str, orig: InsnEffects,
                            flipped: InsnEffects) -> bool:
    """Decide an opcode/operand substitution at a reachable insn:
    does the corruption do structural damage (memory, control flow,
    supervisor state, new fault sources), or does it merely put a
    wrong value in a register?"""
    # supervisor state involved on either side
    if orig.system or flipped.system:
        return True
    # a store appears, disappears, or may move
    if orig.writes_mem or flipped.writes_mem:
        return True
    # control flow changes shape or destination
    if orig.kind != flipped.kind or orig.target != flipped.target:
        return True
    if orig.is_terminator and orig.uses != flipped.uses:
        return True                # condition inputs changed
    # a trap/fault source appears where none was
    if flipped.may_fault and not orig.may_fault:
        return True
    # a load's address registers changed (same operation class)
    if flipped.reads_mem and (not orig.reads_mem
                              or flipped.uses != orig.uses):
        return True
    # the stack/frame pointer becomes a destination
    changed = orig.defs | flipped.defs
    if changed & _PIVOT_REGS[arch]:
        return True
    # pure register dataflow: the taint engine decides
    return False


def _same_fault_surface(orig: AnyInstr, flipped: AnyInstr) -> bool:
    """True when the substitution provably cannot change *where or
    whether* the instruction faults: same operation, and every
    operand field except the pure-destination register is identical
    (so any memory access has the same address and width)."""
    if orig.execute is not flipped.execute:
        return False
    if isinstance(orig, Instr):
        slots: Tuple[str, ...] = _X86_SEMANTIC_SLOTS
        dest = "reg"
    else:
        slots = _PPC_SEMANTIC_SLOTS
        dest = "rt"
    return all(getattr(orig, s) == getattr(flipped, s)
               for s in slots if s != dest)


def _taint_prune_eligible(orig_eff: InsnEffects,
                          flip_eff: InsnEffects, orig_insn: AnyInstr,
                          flip_insn: AnyInstr) -> bool:
    """A taint death proof licenses pruning only when the dynamic
    fault model agrees with the static one: no terminator semantics
    involved (a condition-sense substitution changes behaviour
    without changing any tracked definition) and an unchanged fault
    surface (a substituted divisor or load address could fault where
    the clean run does not)."""
    if orig_eff.is_terminator or flip_eff.is_terminator:
        return False
    if not (orig_eff.may_fault or flip_eff.may_fault):
        return True
    return _same_fault_surface(orig_insn, flip_insn)


def analyze_image(arch: str, image: KernelImage,
                  cfg: Optional[KernelCFG] = None,
                  liveness: Optional[LivenessResult] = None,
                  taint: bool = True) -> StaticSensitivityReport:
    """Predict the outcome of every (addr, bit) in a kernel image.

    ``taint=False`` skips the propagation engine (every pure-dataflow
    substitution takes the calibrated fallback, as in PR 4); the
    pinned digests and the taint-masked bit set require the default
    ``taint=True``.
    """
    if cfg is None:
        cfg = build_cfg(arch, image)
    if liveness is None:
        liveness = compute_liveness(cfg)
    engine = TaintEngine(cfg) if taint else None

    predictions: Dict[Tuple[int, int], BitPrediction] = {}
    insn_count = 0
    for fcfg in cfg.functions.values():
        for start, block in fcfg.blocks.items():
            reachable = start in fcfg.reachable
            for node in block.insns:
                insn_count += 1
                live_out = liveness.live_out.get(node.addr, frozenset())
                for bit in range(node.length * 8):
                    predictions[(node.addr, bit)] = _predict_bit(
                        arch, image, node.addr, bit, node.insn,
                        node.effects, reachable, live_out, engine)

    return StaticSensitivityReport(
        arch=arch,
        text_bytes=len(image.text_bytes),
        insn_count=insn_count,
        function_count=len(cfg.functions),
        block_count=cfg.total_blocks,
        unreachable_block_count=cfg.total_unreachable_blocks,
        predictions=predictions,
    )


def _sink_manifests(verdict: TaintVerdict) -> bool:
    """The calibrated sink policy (see the module docstring and the
    horizon constants above).  The ``store-data`` and
    ``workload-output`` sinks only say the wrong value *escaped the
    register file*, not that the run fails — campaigns show those
    predominantly masked, so they never predict a manifestation on
    their own."""
    kinds = {hit.kind for hit in verdict.sinks}
    if kinds & ALWAYS_MANIFEST_SINKS:
        return True
    if any(hit.kind == "mem-addr"
           and hit.distance <= MEM_SINK_HORIZON
           for hit in verdict.sinks):
        return True
    if kinds == {"control"}:
        low, high = CONTROL_ONLY_WINDOW
        return any(low <= hit.distance <= high
                   for hit in verdict.sinks)
    return False


def _predict_bit(arch: str, image: KernelImage, addr: int, bit: int,
                 orig_insn: AnyInstr, orig_effects: InsnEffects,
                 reachable: bool, live_out: FrozenSet[str],
                 engine: Optional[TaintEngine]) -> BitPrediction:
    corruption, flipped = classify_flip(arch, image, addr, bit)
    if corruption is CorruptionClass.NO_CHANGE:
        outcome = (PredictedOutcome.NOT_MANIFESTED if reachable
                   else PredictedOutcome.NOT_ACTIVATED)
        return BitPrediction(addr, bit, corruption, outcome)
    if not reachable:
        return BitPrediction(addr, bit, corruption,
                             PredictedOutcome.NOT_ACTIVATED)
    if corruption in (CorruptionClass.ILLEGAL,
                      CorruptionClass.LENGTH_CHANGE):
        return BitPrediction(addr, bit, corruption,
                             PredictedOutcome.MANIFESTED)
    flipped_effects = insn_effects(flipped, addr)
    if _substitution_manifests(arch, orig_effects, flipped_effects):
        return BitPrediction(addr, bit, corruption,
                             PredictedOutcome.MANIFESTED)
    # pure register dataflow: follow the wrong values
    changed = orig_effects.defs | flipped_effects.defs
    eligible = _taint_prune_eligible(orig_effects, flipped_effects,
                                     orig_insn, flipped)
    if not (changed & live_out):
        # liveness proves the seed dead on the spot — the degenerate
        # (distance-zero) taint death proof
        return BitPrediction(addr, bit, CorruptionClass.DEAD_WRITE,
                             PredictedOutcome.NOT_MANIFESTED,
                             verdict=VERDICT_DEAD,
                             taint_prunable=eligible)
    if engine is None:
        return BitPrediction(addr, bit, corruption,
                             PredictedOutcome.NOT_MANIFESTED)
    verdict = engine.propagate(addr, frozenset(changed))
    if verdict.provably_dead:
        return BitPrediction(addr, bit, corruption,
                             PredictedOutcome.NOT_MANIFESTED,
                             verdict=verdict.verdict,
                             taint_prunable=eligible)
    outcome = (PredictedOutcome.MANIFESTED if _sink_manifests(verdict)
               else PredictedOutcome.NOT_MANIFESTED)
    return BitPrediction(addr, bit, corruption, outcome,
                         verdict=verdict.verdict, sink=verdict.sink,
                         distance=verdict.distance,
                         evidence=verdict.path)


def analyze_kernel(arch: str,
                   taint: bool = True) -> StaticSensitivityReport:
    """Build (or fetch the cached) kernel image and analyze it."""
    image = build_kernel(arch)
    return analyze_image(arch, image, taint=taint)
