"""Taint engine: lattice properties, synthetic-CFG fixpoints, micro
verdicts, and the dynamic soundness / distance-latency gates.

The hypothesis suites exercise :func:`repro.static.taint.transfer` and
:class:`repro.static.taint.TaintEngine` on randomly generated
single-function CFGs built from synthetic instructions (plain objects,
so the sink taxonomy takes its generic fallback paths).  The dynamic
gates re-run the deterministic campaigns: taint-pruned bits must never
manifest, and static distance-to-sink bounds must rank-agree with
trace-measured propagation distances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.validate_static import (
    distance_latency_probe, validate_propagation, validate_prune,
)
from repro.static.cfg import (
    BasicBlock, FunctionCFG, InsnNode, KernelCFG,
)
from repro.static.effects import (
    EFLAGS, InsnEffects, KIND_BRANCH, KIND_FALL, KIND_JUMP, KIND_RET,
)
from repro.static.sinks import (
    SINK_CONTROL, SINK_KINDS, SINK_MEM_ADDR, sink_triggers,
)
from repro.static.taint import (
    TaintEngine, VERDICT_DEAD, VERDICT_SINK, VERDICTS, transfer,
)

#: register pool for synthetic CFGs — real x86 names so the engine's
#: exit-live / return-register tables resolve
REGS = ("eax", "ebx", "ecx", "edx", "esi", "edi")

regsets = st.frozensets(st.sampled_from(REGS), max_size=4)


def effects(uses=frozenset(), defs=frozenset(), kind=KIND_FALL,
            target=None, reads_mem=False, writes_mem=False):
    return InsnEffects(uses=frozenset(uses), defs=frozenset(defs),
                       reads_mem=reads_mem, writes_mem=writes_mem,
                       kind=kind, target=target)


effects_st = st.builds(
    effects, uses=regsets, defs=regsets,
    reads_mem=st.booleans(), writes_mem=st.booleans())


class TestTransfer:
    """Pure-function lattice properties of the per-insn transfer."""

    @given(eff=effects_st, taint=regsets, extra=regsets)
    def test_monotone(self, eff, taint, extra):
        """taint1 ⊆ taint2 ⇒ transfer(taint1) ⊆ transfer(taint2)."""
        assert transfer(eff, taint) <= transfer(eff, taint | extra)

    @given(eff=effects_st, taint=regsets)
    def test_gen_kill_semantics(self, eff, taint):
        out = transfer(eff, taint)
        if taint & eff.uses:
            assert eff.defs <= out          # gen: defs become tainted
            assert taint <= out
        else:
            assert not (out & eff.defs)     # kill: defs overwritten
        # frame: transfer never invents taint outside taint ∪ defs
        # and never kills taint outside defs
        assert out <= taint | eff.defs
        assert taint - eff.defs <= out

    @given(eff=effects_st)
    def test_bottom_is_fixed(self, eff):
        assert transfer(eff, frozenset()) == frozenset()


# -- synthetic CFGs for engine properties --------------------------------

BASE = 0x1000
STRIDE = 0x100
ILEN = 4


def _build_cfg(blocks_spec):
    """Assemble a synthetic single-function KernelCFG.

    ``blocks_spec`` is a list of (insn_effects_list, term_kind,
    term_target_index) tuples; targets index into the block list.
    """
    n = len(blocks_spec)
    starts = [BASE + i * STRIDE for i in range(n)]
    blocks = {}
    insn_map = {}
    for i, (effs, term_kind, term_target) in enumerate(blocks_spec):
        start = starts[i]
        insns = []
        for j, eff in enumerate(effs):
            insns.append(InsnNode(addr=start + j * ILEN, length=ILEN,
                                  insn=object(), effects=eff))
        succs = []
        taddr = starts[term_target] if term_target is not None else None
        if term_kind == KIND_JUMP:
            succs = [taddr]
        elif term_kind == KIND_BRANCH:
            succs = [taddr] + ([starts[i + 1]] if i + 1 < n else [])
        elif term_kind == KIND_FALL and i + 1 < n:
            succs = [starts[i + 1]]
        term = insns[-1]
        insns[-1] = InsnNode(
            addr=term.addr, length=term.length, insn=term.insn,
            effects=InsnEffects(
                uses=term.effects.uses, defs=term.effects.defs,
                reads_mem=term.effects.reads_mem,
                writes_mem=term.effects.writes_mem,
                kind=term_kind, target=taddr))
        blocks[start] = BasicBlock(start=start, insns=insns,
                                   succs=succs)
        for node in insns:
            insn_map[node.addr] = ("synth", start)
    # reachability: BFS over succs from the entry
    seen, work = set(), [starts[0]]
    while work:
        cur = work.pop()
        if cur in seen:
            continue
        seen.add(cur)
        work.extend(blocks[cur].succs)
    fcfg = FunctionCFG(name="synth", entry=starts[0], blocks=blocks,
                       reachable=frozenset(seen),
                       call_targets=frozenset(),
                       has_indirect_jump=False)
    return KernelCFG(arch="x86", image=None,
                     functions={"synth": fcfg}, insn_map=insn_map)


TERM_KINDS = (KIND_FALL, KIND_JUMP, KIND_BRANCH, KIND_RET)


@st.composite
def synthetic_cfgs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    spec = []
    for i in range(n):
        count = draw(st.integers(min_value=1, max_value=4))
        effs = [draw(effects_st) for _ in range(count)]
        kind = draw(st.sampled_from(TERM_KINDS))
        target = None
        if kind in (KIND_JUMP, KIND_BRANCH):
            target = draw(st.integers(min_value=0, max_value=n - 1))
        spec.append((effs, kind, target))
    return _build_cfg(spec)


@st.composite
def cfg_seed_points(draw):
    cfg = draw(synthetic_cfgs())
    addrs = sorted(cfg.insn_map)
    addr = draw(st.sampled_from(addrs))
    seed = draw(st.frozensets(st.sampled_from(REGS), min_size=1,
                              max_size=3))
    return cfg, addr, seed


class TestEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(point=cfg_seed_points())
    def test_fixpoint_converges_and_is_deterministic(self, point):
        """propagate() terminates on arbitrary CFGs (loops included)
        and a fresh engine reproduces the verdict exactly."""
        cfg, addr, seed = point
        verdict = TaintEngine(cfg).propagate(addr, seed)
        assert verdict.verdict in VERDICTS
        assert "fixpoint-budget" not in verdict.escapes, \
            "monotone join must converge without the budget backstop"
        again = TaintEngine(cfg).propagate(addr, seed)
        assert again == verdict

    @settings(max_examples=60, deadline=None)
    @given(point=cfg_seed_points())
    def test_verdict_shape_invariants(self, point):
        cfg, addr, seed = point
        v = TaintEngine(cfg).propagate(addr, seed)
        if v.reached_sink:
            assert v.sinks and v.distance == v.sinks[0].distance
            assert all(h.kind in SINK_KINDS for h in v.sinks)
            # sinks sorted ascending by distance; path anchored at
            # the corruption site and ending at the first sink
            dists = [h.distance for h in v.sinks]
            assert dists == sorted(dists)
            assert v.path[0] == addr
            assert v.path[-1] == v.sinks[0].addr
        else:
            assert not v.sinks and v.distance is None and not v.path
        if v.provably_dead:
            assert not v.escapes

    @settings(max_examples=60, deadline=None)
    @given(point=cfg_seed_points(),
           extra=st.frozensets(st.sampled_from(REGS), min_size=1,
                               max_size=2))
    def test_seed_subset_implies_verdict_monotone(self, point, extra):
        """A larger corruption seed can only reach more: sub-seed
        sinks stay sinks (at a distance no larger), and super-seed
        death proofs cover every sub-seed."""
        cfg, addr, seed = point
        engine = TaintEngine(cfg)
        small = engine.propagate(addr, seed)
        big = engine.propagate(addr, seed | extra)
        if small.reached_sink:
            assert big.reached_sink
            assert big.distance <= small.distance
        if big.provably_dead:
            assert small.provably_dead


class TestMicroVerdicts:
    """Hand-built CFGs with known ground truth."""

    def test_store_address_is_a_sink(self):
        cfg = _build_cfg([(
            [effects(defs={"eax"}),
             effects(uses={"eax"}, writes_mem=True),
             effects()],
            KIND_RET, None)])
        v = TaintEngine(cfg).propagate(BASE, frozenset({"eax"}))
        assert v.verdict == VERDICT_SINK
        assert v.sink == SINK_MEM_ADDR
        assert v.distance == 1                 # one insn seed → store
        assert v.path == (BASE, BASE + ILEN)

    def test_overwritten_taint_is_dead(self):
        # eax is clobbered before the return; nothing live escapes
        cfg = _build_cfg([(
            [effects(defs={"eax"}),
             effects(defs={"eax"}),              # clean overwrite
             effects()],
            KIND_RET, None)])
        v = TaintEngine(cfg).propagate(BASE, frozenset({"eax"}))
        assert v.verdict == VERDICT_DEAD
        assert not v.sinks and not v.escapes

    def test_tainted_branch_is_a_control_sink(self):
        cfg = _build_cfg([
            ([effects(defs={"ebx"}),
              effects(uses={"ebx"}, defs={EFLAGS}),
              effects(uses={EFLAGS})], KIND_BRANCH, 1),
            ([effects()], KIND_RET, None),
        ])
        v = TaintEngine(cfg).propagate(BASE, frozenset({"ebx"}))
        assert v.reached_sink
        assert v.sink == SINK_CONTROL

    def test_return_value_taint_is_an_output_sink(self):
        # eax is the x86 ABI result register: taint surviving to the
        # ret is the caller's wrong answer
        cfg = _build_cfg([(
            [effects(defs={"eax"}), effects()], KIND_RET, None)])
        v = TaintEngine(cfg).propagate(BASE, frozenset({"eax"}))
        assert v.reached_sink
        assert v.sink == "workload-output"

    def test_empty_seed_escapes(self):
        cfg = _build_cfg([([effects()], KIND_RET, None)])
        v = TaintEngine(cfg).propagate(BASE, frozenset())
        assert v.verdict == "escape"
        assert v.escapes == ("empty-seed",)

    def test_loop_terminates_with_kill(self):
        # a 2-block loop whose body overwrites the seed register
        cfg = _build_cfg([
            ([effects(defs={"ecx"}), effects(defs={"ecx"})],
             KIND_BRANCH, 0),
            ([effects()], KIND_RET, None),
        ])
        v = TaintEngine(cfg).propagate(BASE, frozenset({"ecx"}))
        assert v.verdict in VERDICTS   # termination is the assertion

    def test_generic_sink_triggers_for_synthetic_insns(self):
        node = InsnNode(addr=0, length=4, insn=object(),
                        effects=effects(uses={"eax", EFLAGS},
                                        writes_mem=True))
        kinds = {k for k, _ in sink_triggers(node, "x86")}
        assert SINK_MEM_ADDR in kinds
        # the flags unit never feeds an address computation
        for kind, res in sink_triggers(node, "x86"):
            if kind == SINK_MEM_ADDR:
                assert EFLAGS not in res


class TestDynamicGates:
    """The engine's claims checked against the real machines."""

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_taint_pruned_bits_never_manifest(self, arch):
        """Soundness battery: every sampled taint-pruned bit must
        stay masked when actually injected (the full sweep is the
        release check; sampling is evenly strided)."""
        validation = validate_prune(arch, seed=0, ops=36, limit=48,
                                    policy="taint")
        assert validation.policy == "taint"
        assert validation.prunable_bits > 0
        assert validation.injected == min(48, validation.prunable_bits)
        assert validation.ok, validation.render()

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_distance_bounds_rank_agree_with_traces(self, arch):
        """Static distance-to-sink must rank-agree with the
        trace-measured dynamic distance (first divergent non-register
        event in the faulty-vs-twin diff)."""
        probe = distance_latency_probe(arch, seed=0, ops=36,
                                       per_distance=2, max_distance=8)
        assert probe.comparable >= 4, probe.render()
        assert probe.agreement is not None
        assert probe.agreement > 0.5, probe.render()

    def test_evidence_chains_are_executed(self):
        """The static evidence chain of a sink verdict should lie on
        the faulty run's actual fetch path."""
        validation = validate_propagation("x86", seed=0, ops=36,
                                          count=60, sample=2)
        assert validation.joins, "no sink-verdict experiments joined"
        coverage = validation.mean_chain_coverage
        if coverage is not None:      # at least one trace diverged
            assert coverage >= 0.5, validation.render()


class TestEngineCaches:
    def test_clear_cache_resets_memos(self):
        cfg = _build_cfg([(
            [effects(defs={"eax"}), effects()], KIND_RET, None)])
        engine = TaintEngine(cfg)
        v1 = engine.propagate(BASE, frozenset({"eax"}))
        assert engine._verdicts
        engine.clear_cache()
        assert not engine._verdicts
        assert engine.propagate(BASE, frozenset({"eax"})) == v1
