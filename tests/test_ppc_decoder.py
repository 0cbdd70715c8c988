"""Decoder tests for the G4-like core: fields, density, paper cases."""

from hypothesis import given, strategies as st

from repro.ppc.decoder import decode, exec_illegal, exec_lhax, exec_mfspr
from tests.ppc_words import dform, xform

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestKnownEncodings:
    def test_stwu(self):
        instr = decode(0x9421FFE0)             # stwu r1,-32(r1)
        assert instr.mnemonic == "stwu"
        assert instr.rt == 1 and instr.ra == 1
        assert instr.imm == 0xFFFFFFE0

    def test_mflr(self):
        instr = decode(0x7C0802A6)             # mflr r0
        assert instr.execute is exec_mfspr
        assert instr.imm == 8                  # SPR_LR

    def test_paper_figure15_flip(self):
        """7c 08 02 a6 (mflr r0) + one bit -> 7c 08 02 ae (lhax)."""
        corrupted = decode(0x7C0802AE)
        assert corrupted.execute is exec_lhax
        assert corrupted.rt == 0
        assert corrupted.ra == 8
        assert corrupted.rb == 0

    def test_paper_figure9_lwz(self):
        instr = decode(0x817F0028)             # lwz r11,40(r31)
        assert instr.mnemonic == "lwz"
        assert instr.rt == 11 and instr.ra == 31 and instr.imm == 40

    def test_branch_forms(self):
        instr = decode(0x4182FFC4)             # beq -60
        assert instr.mnemonic == "bc"
        assert instr.imm == 0xFFFFFFC4
        blr = decode(0x4E800020)
        assert blr.mnemonic == "bclr"

    def test_sc(self):
        assert decode(0x44000002).mnemonic == "sc"

    def test_illegal_primary(self):
        instr = decode(0x00000000)
        assert instr.execute is exec_illegal
        instr = decode((57 << 26))             # unassigned in subset
        assert instr.execute is exec_illegal

    def test_illegal_extended(self):
        # opcode 31 with a bogus extended opcode
        word = xform(31, 1, 2, 3, 999)
        assert decode(word).execute is exec_illegal


class TestDensity:
    def test_sparse_opcode_space(self):
        """Unlike the P4's byte opcodes, a random 32-bit word is
        usually an undefined encoding — the G4's Illegal-Instruction
        story."""
        import random
        rng = random.Random(42)
        illegal = sum(
            1 for _ in range(2000)
            if decode(rng.randrange(1 << 32)).execute is exec_illegal)
        assert illegal >= 800, f"only {illegal}/2000 illegal"

    def test_bitflip_of_valid_often_illegal(self):
        """Flip every bit of a valid instruction: a healthy share of
        results must be undefined encodings (paper Section 5.3)."""
        base = dform(32, 11, 31, 40)           # lwz r11,40(r31)
        illegal = sum(
            1 for bit in range(32)
            if decode(base ^ (1 << bit)).execute is exec_illegal)
        assert illegal >= 2

    @given(u32)
    def test_never_raises(self, word):
        instr = decode(word)
        assert instr.cycles >= 1
