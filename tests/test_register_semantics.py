"""Register-corruption semantics tests (paper Section 5.2)."""

import pytest

from repro.kernel.abi import Syscall
from repro.machine.events import KernelCrash
from repro.machine.register_semantics import (
    apply_ppc_spr_effect, apply_x86_register_flip,
)
from repro.ppc.exceptions import PPCVector
from repro.ppc.registers import HID0_BTIC, SPR_HID0, SPR_SDR1
from repro.x86.exceptions import X86Vector


class TestPPCSprEffects:
    def test_sdr1_change_poisons_data_path(self, fresh_ppc):
        machine = fresh_ppc
        apply_ppc_spr_effect(machine, SPR_SDR1,
                             old=0, new=0x00400000)
        with pytest.raises(KernelCrash) as exc:
            machine.syscall(Syscall.GETPID)
        assert exc.value.report.vector in (PPCVector.DSI,
                                           PPCVector.PROGRAM)

    def test_dbat_change_poisons_data_path(self, fresh_ppc):
        machine = fresh_ppc
        apply_ppc_spr_effect(machine, 536, old=0, new=4)
        assert machine.cpu._high_data_fault == "dsi"

    def test_ibat_change_poisons_fetch_path(self, fresh_ppc):
        machine = fresh_ppc
        apply_ppc_spr_effect(machine, 528, old=0, new=4)
        assert machine.cpu._high_fetch_fault == "isi"
        with pytest.raises(KernelCrash) as exc:
            machine.syscall(Syscall.GETPID)
        assert exc.value.report.vector == PPCVector.ISI

    def test_hid0_btic_enable_poisons_branches(self, fresh_ppc):
        machine = fresh_ppc
        apply_ppc_spr_effect(machine, SPR_HID0, old=0, new=HID0_BTIC)
        assert machine.cpu.btic_poisoned
        with pytest.raises(KernelCrash) as exc:
            machine.syscall(Syscall.GETPID)
        assert exc.value.report.vector == PPCVector.PROGRAM

    def test_hid0_btic_disable_is_benign(self, fresh_ppc):
        machine = fresh_ppc
        apply_ppc_spr_effect(machine, SPR_HID0, old=HID0_BTIC, new=0)
        assert not machine.cpu.btic_poisoned
        machine.syscall(Syscall.GETPID)

    def test_unchanged_value_is_noop(self, fresh_ppc):
        apply_ppc_spr_effect(fresh_ppc, SPR_SDR1, old=5, new=5)
        assert fresh_ppc.cpu._high_data_fault is None

    def test_benign_sprs_absorb_writes(self, fresh_ppc):
        machine = fresh_ppc
        for spr in (953, 1020, 272, 4096):     # PMC1, THRM1, SPRG0, SR0
            apply_ppc_spr_effect(machine, spr, old=0, new=0xFFFF)
        machine.syscall(Syscall.GETPID)

    def test_mtspr_from_kernel_code_triggers_hook(self, fresh_ppc):
        """The same semantics apply when (corrupted) kernel code
        executes mtspr."""
        machine = fresh_ppc
        machine.cpu.set_spr(SPR_SDR1, 0x12345678)
        assert machine.cpu._high_data_fault == "dsi"


class TestX86RegisterFlips:
    def test_cr0_goes_through_set_cr(self, fresh_x86):
        machine = fresh_x86
        apply_x86_register_flip(machine, "cr0",
                                machine.cpu.cr0 & ~0x80000000)
        assert not machine.cpu.aspace.translation_on

    def test_cr3_flip_breaks_translation(self, fresh_x86):
        machine = fresh_x86
        apply_x86_register_flip(machine, "cr3",
                                machine.cpu.cr3 ^ 0x1000)
        with pytest.raises(KernelCrash) as exc:
            machine.syscall(Syscall.GETPID)
        assert exc.value.report.vector in (
            X86Vector.PAGE_FAULT, X86Vector.GENERAL_PROTECTION,
            X86Vector.DOUBLE_FAULT)

    def test_plain_attribute_flip(self, fresh_x86):
        machine = fresh_x86
        apply_x86_register_flip(machine, "dr3", 0xDEAD)
        assert machine.cpu.dr3 == 0xDEAD
        machine.syscall(Syscall.GETPID)        # benign

    def test_esp_alias_flip(self, fresh_x86):
        machine = fresh_x86
        apply_x86_register_flip(machine, "esp_alias", 0x00001000)
        assert machine.cpu.regs[4] == 0x00001000

    def test_eip_flip_crashes_quickly(self, fresh_x86):
        machine = fresh_x86

        def action():
            apply_x86_register_flip(machine, "eip",
                                    machine.cpu.eip ^ 0x00800000)

        machine.schedule_action(machine.cpu.instret + 20, action)
        with pytest.raises(KernelCrash):
            machine.syscall(Syscall.GETPID)

    def test_idtr_base_flip_is_silent_until_next_interrupt(
            self, fresh_x86):
        machine = fresh_x86
        apply_x86_register_flip(machine, "idtr_base",
                                machine.cpu.idtr_base ^ 0x100)
        machine.syscall(Syscall.GETPID)        # still fine
        with pytest.raises(KernelCrash) as exc:
            machine.deliver_timer()            # vectoring fails
        assert exc.value.report.dump_failed    # triple-fault-like


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_fork_keeps_state_derived_from_corrupted_registers(arch, request):
    """A fork of a damaged machine is damaged the same way: the fault
    flags a corrupted register left behind travel with the CPU state,
    and a fork does not heal broken translation."""
    machine = request.getfixturevalue(f"fresh_{arch}")
    if arch == "ppc":
        apply_ppc_spr_effect(machine, SPR_SDR1, old=0, new=0x00400000)
        apply_ppc_spr_effect(machine, 528, old=0, new=4)        # IBAT0U
        apply_ppc_spr_effect(machine, SPR_HID0, old=0, new=HID0_BTIC)
        watched = ("_high_data_fault", "_high_fetch_fault",
                   "btic_poisoned")
    else:
        apply_x86_register_flip(machine, "cr3", machine.cpu.cr3 ^ 0x1000)
        watched = ("dr0", "dr1", "dr2", "dr3", "dr6", "dr7")
        for value, name in enumerate(watched, start=0x400):
            apply_x86_register_flip(machine, name, value)
    expected = {name: getattr(machine.cpu, name) for name in watched}
    clone = machine.fork().cpu
    assert {name: getattr(clone, name) for name in watched} == expected
    if arch == "ppc":
        assert expected == {"_high_data_fault": "dsi",
                            "_high_fetch_fault": "isi",
                            "btic_poisoned": True}
    else:
        assert not machine.cpu.aspace.translation_on
        assert not clone.aspace.translation_on
