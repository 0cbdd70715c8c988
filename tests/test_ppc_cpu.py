"""Execution-semantics tests for the G4-like core."""

import pytest

from repro.isa.memory import Region
from repro.ppc.assembler import PPCAssembler
from repro.ppc.cpu import PPCCPU
from repro.ppc.exceptions import PPCFault, PPCVector, ProgramReason
from repro.ppc.registers import MSR_DR, MSR_IR, SPR_SDR1, SPR_SPRG2

TEXT = 0xC0100000
DATA = 0xC0300000
STACK = 0xC0500000


def make_cpu() -> PPCCPU:
    cpu = PPCCPU()
    cpu.aspace.map_region(Region(TEXT, 0x1000, "rx", "text"))
    cpu.aspace.map_region(Region(DATA, 0x1000, "rwx", "data"))
    cpu.aspace.map_region(Region(STACK, 0x2000, "rw", "stack"))
    cpu.gpr[1] = STACK + 0x2000 - 64
    cpu.pc = TEXT
    return cpu


def run(asm: PPCAssembler, steps: int = None, cpu: PPCCPU = None
        ) -> PPCCPU:
    if cpu is None:
        cpu = make_cpu()
    cpu.mem.write(TEXT, asm.finish())
    count = steps if steps is not None else len(asm.insn_offsets)
    for _ in range(count):
        cpu.step()
    return cpu


class TestArithmetic:
    def test_add_chain(self):
        asm = PPCAssembler()
        asm.li(3, 7)
        asm.li(4, 5)
        asm.add(3, 3, 4)
        asm.mulli(5, 3, 10)
        cpu = run(asm)
        assert cpu.gpr[3] == 12
        assert cpu.gpr[5] == 120

    def test_subf_order(self):
        asm = PPCAssembler()
        asm.li(3, 5)
        asm.li(4, 30)
        asm.subf(5, 3, 4)                      # r5 = r4 - r3
        cpu = run(asm)
        assert cpu.gpr[5] == 25

    def test_divw_by_zero_is_silent(self):
        """No divide-error exception on PowerPC (Table 4 has no Divide
        Error category)."""
        asm = PPCAssembler()
        asm.li(3, 100)
        asm.li(4, 0)
        asm.divw(5, 3, 4)
        cpu = run(asm)
        assert cpu.gpr[5] == 0                 # boundedly undefined

    def test_rlwinm_mask(self):
        asm = PPCAssembler()
        asm.load_imm32(3, 0xDEADBEEF)
        asm.rlwinm(4, 3, 0, 24, 31)            # low byte
        asm.rlwinm(5, 3, 0, 16, 31)            # low halfword
        cpu = run(asm)
        assert cpu.gpr[4] == 0xEF
        assert cpu.gpr[5] == 0xBEEF

    def test_srawi_sign(self):
        asm = PPCAssembler()
        asm.load_imm32(3, 0x80000000)
        asm.srawi(4, 3, 4)
        cpu = run(asm)
        assert cpu.gpr[4] == 0xF8000000


class TestMemory:
    def test_word_roundtrip_bigendian(self):
        asm = PPCAssembler()
        asm.load_imm32(3, 0x11223344)
        asm.load_imm32(4, DATA)
        asm.stw(3, 0, 4)
        asm.lwz(5, 0, 4)
        cpu = run(asm)
        assert cpu.gpr[5] == 0x11223344
        assert cpu.mem.read(DATA, 4) == b"\x11\x22\x33\x44"

    def test_unaligned_lwz_completes(self):
        """Ordinary misaligned loads complete in hardware on the 7450
        family (the paper's Figure 9 reads from 0x4d with no alignment
        interrupt)."""
        asm = PPCAssembler()
        asm.load_imm32(3, 0xAABBCCDD)
        asm.load_imm32(4, DATA)
        asm.stw(3, 0, 4)
        asm.lwz(5, 2, 4)                       # misaligned: no trap
        cpu = run(asm)
        assert cpu.gpr[5] == 0xCCDD0000

    def test_lmw_alignment_exception(self):
        asm = PPCAssembler()
        asm.load_imm32(4, DATA + 2)
        asm.lmw(29, 1, 4)                      # DATA+3: unaligned
        with pytest.raises(PPCFault) as exc:
            run(asm)
        assert exc.value.vector == PPCVector.ALIGNMENT

    def test_stmw_lmw_roundtrip(self):
        asm = PPCAssembler()
        asm.li(29, 11)
        asm.li(30, 22)
        asm.li(31, 33)
        asm.load_imm32(4, DATA)
        asm.stmw(29, 0, 4)
        asm.li(29, 0)
        asm.li(30, 0)
        asm.li(31, 0)
        asm.lmw(29, 0, 4)
        cpu = run(asm)
        assert (cpu.gpr[29], cpu.gpr[30], cpu.gpr[31]) == (11, 22, 33)

    def test_bad_area_dsi(self):
        asm = PPCAssembler()
        asm.li(11, 1)
        asm.lwz(9, 76, 11)                     # paper figure 9: 0x4d
        with pytest.raises(PPCFault) as exc:
            run(asm)
        assert exc.value.vector == PPCVector.DSI
        assert exc.value.address == 77

    def test_write_to_text_is_protection_dsi(self):
        asm = PPCAssembler()
        asm.load_imm32(4, TEXT)
        asm.li(3, 1)
        asm.stw(3, 0, 4)
        with pytest.raises(PPCFault) as exc:
            run(asm)
        assert exc.value.vector == PPCVector.DSI
        assert exc.value.dsisr & 0x08000000    # protection bit


class TestBranches:
    def test_bl_blr(self):
        asm = PPCAssembler()
        asm.li(3, 0)
        asm.b_label("over")
        asm.label("target")
        asm.li(3, 42)
        asm.blr()
        asm.label("over")
        asm.load_imm32(5, TEXT + 8)            # address of 'target'
        asm.mtlr(5)
        asm.mtctr(5)
        asm.bctr()
        cpu = run(asm, 9)
        assert cpu.gpr[3] == 42

    def test_ctr_loop(self):
        asm = PPCAssembler()
        asm.li(3, 0)
        asm.li(4, 5)
        asm.mtctr(4)
        asm.label("loop")
        asm.addi(3, 3, 1)
        # bdnz: BO=16 (decrement, branch if CTR!=0)
        asm.bc_label(16, 0, "loop")
        cpu = run(asm, 3 + 5 * 2)
        assert cpu.gpr[3] == 5


class TestSystem:
    def test_msr_dr_clear_machine_checks(self):
        cpu = make_cpu()
        cpu.set_msr(cpu.msr & ~MSR_DR)
        with pytest.raises(PPCFault) as exc:
            cpu.load(DATA, 4)
        assert exc.value.vector == PPCVector.MACHINE_CHECK
        # low addresses unaffected
        cpu.aspace.map_region(Region(0x8000, 0x1000, "rw", "low"))
        cpu.load(0x8000, 4)

    def test_msr_ir_clear_machine_checks_fetch(self):
        cpu = make_cpu()
        cpu.mem.write(TEXT, b"\x60\x00\x00\x00")   # nop
        cpu.step()
        cpu.set_msr(cpu.msr & ~MSR_IR)
        cpu.flush_icache()
        cpu.pc = TEXT
        with pytest.raises(PPCFault) as exc:
            cpu.step()
        assert exc.value.vector == PPCVector.MACHINE_CHECK

    def test_spr_write_hook(self):
        cpu = make_cpu()
        seen = []
        cpu.on_spr_write = lambda spr, old, new: seen.append(
            (spr, old, new))
        cpu.set_spr(SPR_SPRG2, 0x1234)
        assert seen == [(SPR_SPRG2, 0, 0x1234)]

    def test_lr_ctr_via_spr_interface(self):
        cpu = make_cpu()
        cpu.set_spr(8, 0xAABB)
        assert cpu.lr == 0xAABB
        cpu.set_spr(9, 7)
        assert cpu.ctr == 7
        assert cpu.get_spr(9) == 7

    def test_privileged_spr_in_user_mode(self):
        cpu = make_cpu()
        cpu.user_mode = True
        with pytest.raises(PPCFault) as exc:
            cpu.check_supervisor_spr(SPR_SDR1)
        assert exc.value.program_reason is ProgramReason.PRIVILEGED

    def test_btic_poison_faults_on_next_taken_branch(self):
        cpu = make_cpu()
        cpu.btic_poisoned = True
        with pytest.raises(PPCFault) as exc:
            cpu.branch(TEXT + 0x100)
        assert exc.value.vector == PPCVector.PROGRAM
        assert not cpu.btic_poisoned           # one-shot

    def test_trap_instruction(self):
        asm = PPCAssembler()
        asm.trap()
        with pytest.raises(PPCFault) as exc:
            run(asm, 1)
        assert exc.value.program_reason is ProgramReason.TRAP

    def test_pc_low_bits_masked(self):
        """Flips in PC bits 0-1 are architecturally invisible."""
        cpu = make_cpu()
        cpu.mem.write(TEXT, b"\x38\x60\x00\x07")   # li r3,7
        cpu.pc = TEXT + 2                          # corrupted low bits
        cpu.step()
        assert cpu.gpr[3] == 7

    def test_high_data_fault_dsi_mode(self):
        cpu = make_cpu()
        cpu._high_data_fault = "dsi"               # SDR1 corrupted
        with pytest.raises(PPCFault) as exc:
            cpu.load(DATA, 4)
        assert exc.value.vector == PPCVector.DSI
