"""Register flips that nothing reads end at the injection instant.

``register_semantics.ABSORBING`` names the registers that no code
outside an instruction body reads and whose writes have no effect;
``CampaignContext.absorbing_registers`` keeps them when the clean
window runs no ``system`` instruction and has no fail-silence
violation, and the injector ends such a register's run at the flip.

* the poisoned-register runs check the table itself: with every
  absorbing register raising on read, the clean window still runs to
  its last instruction in both exec modes;
* the differential runs check the early end: each campaign gives the
  same results, field by field, with the table emptied (every
  experiment simulated to the end) as with the table shipped;
* replay, which attaches a tracer and so simulates the whole tail,
  agrees with the journaled early-ended records.
"""

from __future__ import annotations

import pytest

from repro.injection import injector
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.outcomes import CampaignKind, Outcome
from repro.machine.machine import MachineConfig
from repro.machine.register_semantics import ABSORBING
from repro.ppc.registers import G4_SUPERVISOR_REGISTERS, SPR_SRR0
from repro.store.manifest import CampaignManifest
from repro.store.store import CampaignStore
from repro.trace.replay import Replayer
from repro.workload.driver import UnixBenchDriver
from repro.workload.programs import clone_programs
from repro.x86.cpu import X86CPU
from repro.x86.registers import P4_SYSTEM_REGISTERS

ARCHES = ("x86", "ppc")


def _context(request, arch):
    return request.getfixturevalue(f"{arch}_context")


def test_table_names_only_catalogue_registers():
    """Every absorbing name is a catalogue register, and the registers
    with a machine-level effect stay simulated."""
    catalogue = {"x86": {reg.name for reg in P4_SYSTEM_REGISTERS},
                 "ppc": {reg.name for reg in G4_SUPERVISOR_REGISTERS}}
    simulated = {
        "x86": {"EFLAGS", "CR0", "CR3", "ESP", "EIP", "FS", "GS",
                "IDTR_BASE", "IDTR_LIMIT"},
        "ppc": {"MSR", "SDR1", "IBAT0U", "IBAT0L", "DBAT0U", "DBAT0L",
                "HID0", "SPRG2"}}
    for arch in ARCHES:
        assert ABSORBING[arch] <= catalogue[arch]
        assert catalogue[arch] - ABSORBING[arch] == simulated[arch]


# -- poisoned absorbing registers ---------------------------------------------


def _raising(attr: str) -> property:
    def read(cpu):
        raise AssertionError(f"absorbing register {attr} was read")

    def write(cpu, value):
        cpu.__dict__[attr] = value
    return property(read, write)


class _PoisonedSPRs(dict):
    """An SPR file whose absorbing numbers raise when read."""

    def __init__(self, sprs, poisoned):
        super().__init__(sprs)
        self.poisoned = poisoned

    def _check(self, spr):
        if spr in self.poisoned:
            raise AssertionError(f"absorbing SPR {spr} was read")

    def __getitem__(self, spr):
        self._check(spr)
        return super().__getitem__(spr)

    def get(self, spr, default=None):
        self._check(spr)
        return super().get(spr, default)


def _poison(machine) -> None:
    cpu = machine.cpu
    names = ABSORBING[machine.arch]
    if machine.arch == "x86":
        attrs = [reg.attr for reg in P4_SYSTEM_REGISTERS
                 if reg.name in names]
        cpu.__class__ = type("PoisonedX86CPU", (X86CPU,),
                             {attr: _raising(attr) for attr in attrs})
    else:
        cpu.spr = _PoisonedSPRs(cpu.spr, {
            reg.spr for reg in G4_SUPERVISOR_REGISTERS
            if reg.name in names})


@pytest.mark.parametrize("exec_mode", ["block", "step"])
@pytest.mark.parametrize("arch", ARCHES)
def test_clean_window_never_reads_an_absorbing_register(
        arch, exec_mode, request):
    context = _context(request, arch)
    probe = context.probe
    machine = context.base_machine.fork(
        config=MachineConfig(seed=context.seed, exec_mode=exec_mode))
    _poison(machine)
    driver = UnixBenchDriver(machine, seed=context.seed,
                             programs=clone_programs(context.base_programs))
    result = driver.run(context.ops)
    assert machine.cpu.instret == probe.total_instret
    assert result.fail_silence_violated == probe.fsv_clean


def test_poisoning_catches_a_read(request):
    """The poisoned machine does raise on a read of a table entry."""
    for arch in ARCHES:
        machine = _context(request, arch).base_machine.fork()
        _poison(machine)
        with pytest.raises(AssertionError, match="absorbing"):
            if arch == "x86":
                machine.cpu.cr2
            else:
                machine.cpu.get_spr(SPR_SRR0)


# -- absorbed equals simulated ------------------------------------------------

#: (fault model, checkpoints, exec mode): each value of each knob once
COMBOS = [("single-bit", 8, "step"), ("burst", 0, "block"),
          ("intermittent", 8, "block")]


@pytest.fixture
def absorbed_runs(monkeypatch):
    """Counts the runs that end at their injection instant."""
    ended = []

    class Counted(injector._Absorbed):
        def __init__(self):
            super().__init__()
            ended.append(1)
    monkeypatch.setattr(injector, "_Absorbed", Counted)
    return ended


@pytest.mark.parametrize("model,checkpoints,exec_mode", COMBOS,
                         ids=["-".join(map(str, combo))
                              for combo in COMBOS])
@pytest.mark.parametrize("arch", ARCHES)
def test_absorbed_equals_simulated(arch, model, checkpoints, exec_mode,
                                   request, monkeypatch, absorbed_runs):
    context = _context(request, arch)
    assert context.absorbing_registers == ABSORBING[arch]
    config = CampaignConfig(arch=arch, kind=CampaignKind.REGISTER,
                            count=60, seed=context.seed, ops=context.ops,
                            fault_model=model, checkpoints=checkpoints,
                            exec_mode=exec_mode)
    shipped = Campaign(config, context).run().results
    absorbed = len(absorbed_runs)
    assert absorbed >= 1
    assert absorbed == sum(result.target.name in ABSORBING[arch]
                           for result in shipped)
    monkeypatch.setitem(ABSORBING, arch, frozenset())
    simulated = Campaign(config, context).run().results
    assert len(absorbed_runs) == absorbed
    assert shipped == simulated


@pytest.mark.parametrize("arch", ARCHES)
def test_replay_simulates_absorbed_experiments(arch, request, tmp_path,
                                               absorbed_runs):
    """Replay attaches a tracer, so it simulates the tail of an
    absorbed experiment in full; it must agree with the journaled
    record of the run that ended at the flip."""
    context = _context(request, arch)
    config = CampaignConfig(arch=arch, kind=CampaignKind.REGISTER,
                            count=12, seed=context.seed, ops=context.ops)
    store = CampaignStore(tmp_path)
    result = Campaign(config, context).run(store=store)
    indices = [index for index, record in enumerate(result.results)
               if record.target.name in ABSORBING[arch]][:2]
    assert len(indices) == 2 and len(absorbed_runs) >= 2
    replayer = Replayer(store,
                        CampaignManifest.from_config(config).campaign_id)
    ended = len(absorbed_runs)
    for index in indices:
        outcome = replayer.replay(index)
        assert outcome.spec.absorbing
        assert outcome.replayed == outcome.journaled
        assert outcome.journaled.outcome is Outcome.NOT_MANIFESTED
        assert outcome.recorder.total_emitted > 0
    assert len(absorbed_runs) == ended
