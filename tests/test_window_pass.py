"""The clean window: pinned rungs and blocks, and a step-only oracle.

``tests/data/window_pins.json`` was recorded once and is never
re-recorded.  For both arches at two (seed, ops) contexts it holds the
rung instrets and ``last_pet`` of ``ladder(8)`` and ``ladder(5)``, and
every compiled block the clean window leaves on the base machine (start
address and instruction count).  However the context builds its ladder
and its blocks, it must reproduce these exactly.

The oracle is the plainest observed pass: every instruction stepped,
every fetch, load and store seen through the CPU tracer hooks.  The
probe's pass must match it field by field.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.machine.machine as machine_mod
from repro.injection.campaign import CampaignContext
from repro.machine.machine import Machine, MachineConfig
from repro.trace.recorder import TraceRecorder
from repro.workload.driver import UnixBenchDriver
from repro.workload.probe import SAMPLE_EVERY, probe_clean_run
from repro.workload.programs import clone_programs

PINS = json.loads(
    (Path(__file__).parent / "data" / "window_pins.json").read_text())


@pytest.mark.parametrize("key", sorted(PINS))
def test_window_matches_pins(key):
    pins = PINS[key]
    context = CampaignContext.get(pins["arch"], pins["seed"], pins["ops"])
    for count in (8, 5):
        rungs = [[checkpoint.instret, checkpoint.last_pet]
                 for checkpoint in context.ladder(count).checkpoints]
        assert rungs == pins[f"ladder{count}"], count
    blocks = context.base_machine.cpu._block_cache.snapshot()
    assert [[addr, blocks[addr].n] for addr in sorted(blocks)] == \
        pins["window_blocks"]


class _StepObserver:
    """Every fetch, load and store of a step-only run."""

    def __init__(self) -> None:
        self.accesses, self.executed = [], set()
        self.first_executed, self.pc_samples = {}, {}
        self.fetches = 0

    def on_fetch(self, cpu, pc: int) -> None:
        self.executed.add(pc)
        self.first_executed.setdefault(pc, cpu.instret)
        self.fetches += 1
        if self.fetches % SAMPLE_EVERY == 0:
            self.pc_samples[pc] = self.pc_samples.get(pc, 0) + 1

    def on_load(self, cpu, addr: int, width: int, value: int) -> None:
        self.accesses.append((cpu.instret, addr, width, "r"))

    def on_store(self, cpu, addr: int, width: int, value: int) -> None:
        self.accesses.append((cpu.instret, addr, width, "w"))

    def on_reg_write(self, cpu, reg: str, old: int, new: int) -> None:
        pass


def _step_only_pass(arch: str, seed: int, ops: int) -> dict:
    observer = _StepObserver()
    machine = Machine(arch, config=MachineConfig(seed=seed,
                                                 exec_mode="step"))
    machine.cpu.tracer = observer
    machine.boot()
    driver = UnixBenchDriver(machine, seed=seed)
    driver.setup()
    boot_instret = machine.cpu.instret
    observer.first_executed = {}
    result = driver.run(ops)
    return {"accesses": observer.accesses,
            "executed_pcs": observer.executed,
            "first_executed": observer.first_executed,
            "pc_samples": list(observer.pc_samples.items()),
            "boot_instret": boot_instret,
            "total_instret": machine.cpu.instret,
            "total_cycles": machine.cpu.cycles,
            "fsv_clean": result.fail_silence_violated}


@pytest.mark.parametrize("ops", [12, 36])
@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_probe_matches_step_only_oracle(arch, ops):
    probe = probe_clean_run(arch, seed=0, ops=ops)
    for name, expected in _step_only_pass(arch, 0, ops).items():
        observed = getattr(probe, name)
        if name == "pc_samples":
            # insertion order too: hot-function ties break on it
            observed = list(observed.items())
        assert observed == expected, name


def test_flight_recorder_keeps_the_step_core(x86_context, monkeypatch):
    """A machine armed through ``attach_tracer`` runs no compiled block,
    even when it starts with the window's blocks."""
    looked_up = []
    real = machine_mod.lookup_block

    def counting(cpu, cache, addr, *args):
        looked_up.append(addr)
        return real(cpu, cache, addr, *args)
    monkeypatch.setattr(machine_mod, "lookup_block", counting)
    machine = x86_context.base_machine.fork()
    cache = machine.cpu._block_cache
    assert cache.warm
    machine.attach_tracer(TraceRecorder())
    UnixBenchDriver(machine, seed=0, programs=clone_programs(
        x86_context.base_programs)).run(4)
    assert machine.cpu.instret > x86_context.probe.boot_instret
    assert not looked_up and not cache.hot
