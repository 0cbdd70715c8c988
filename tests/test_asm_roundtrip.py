"""Assembler <-> decoder round-trip tests for both architectures."""

from hypothesis import given, strategies as st

from repro.ppc import decoder as ppc_decoder
from repro.ppc.assembler import PPCAssembler, dform, xform
from repro.ppc.disasm import disassemble_word
from repro.x86 import decoder as x86_decoder
from repro.x86.assembler import Mem, X86Assembler
from repro.x86.disasm import disassemble_range

reg = st.integers(min_value=0, max_value=7)
ppc_reg = st.integers(min_value=0, max_value=31)
imm16s = st.integers(min_value=-0x8000, max_value=0x7FFF)


class TestX86Roundtrip:
    def _decode_all(self, asm: X86Assembler):
        code = asm.finish()
        offsets = list(asm.insn_offsets)
        decoded = []
        pos = 0
        while pos < len(code):
            instr = x86_decoder.decode(
                code[pos:] + b"\x00" * x86_decoder.MAX_INSN_LEN, pos)
            decoded.append((pos, instr))
            pos += instr.length
        assert [p for p, _ in decoded] == offsets, \
            "decoded boundaries disagree with emitted boundaries"
        return decoded

    def test_every_assembler_form_roundtrips(self):
        asm = X86Assembler()
        asm.push_r(5)
        asm.mov_rm_r(5, 4)
        asm.alu_rm_imm("sub", 4, 0x10)
        asm.alu_rm_imm("add", 4, 0x12345)
        asm.mov_r_imm(0, 0xDEADBEEF)
        asm.mov_r_rm(1, Mem(base=5, disp=-8))
        asm.mov_rm_r(Mem(base=5, disp=-0x123), 1)
        asm.mov_r_rm(2, Mem(disp=0xC0300000))
        asm.mov_rm_r(Mem(index=1, scale=4, disp=0xC0300000), 0)
        asm.movzx(3, Mem(base=0), 1)
        asm.movsx(3, Mem(base=0), 2)
        asm.lea(4, Mem(base=5, disp=-12))
        asm.test_rm_r(0, 0)
        asm.imul_r_rm(0, 1)
        asm.imul_r_rm_imm(1, 1, 28)
        asm.div_rm(1)
        asm.neg_rm(0)
        asm.not_rm(0)
        asm.shift_rm_imm("shl", 0, 4)
        asm.shift_rm_imm("shr", 0, 1)
        asm.shift_rm_cl("sar", 0)
        asm.inc_r(6)
        asm.dec_r(7)
        asm.cdq()
        asm.push_imm(5)
        asm.push_imm(0x1234)
        asm.push_rm(Mem(base=5, disp=8))
        asm.pop_r(3)
        asm.xchg_r_rm(0, 3)
        asm.nop()
        asm.ud2a()
        asm.int_n(0x80)
        asm.hlt()
        asm.ret()
        self._decode_all(asm)

    def test_mov16_prefix(self):
        asm = X86Assembler()
        asm.mov_rm_r(Mem(base=5, disp=-32), 0, width=2)
        asm.mov_r_rm(0, Mem(base=5, disp=-32), width=2)
        decoded = self._decode_all(asm)
        assert all(instr.width == 2 for _, instr in decoded)

    def test_byte_width(self):
        asm = X86Assembler()
        asm.mov_rm_r(Mem(base=3), 1, width=1)
        decoded = self._decode_all(asm)
        assert decoded[0][1].width == 1

    @given(reg, reg, st.integers(min_value=-0x1000, max_value=0x1000))
    def test_mov_mem_forms(self, dst, base, disp):
        if base == 4:
            return                        # ESP base needs SIB; skip
        asm = X86Assembler()
        asm.mov_r_rm(dst, Mem(base=base, disp=disp))
        code = asm.finish()
        instr = x86_decoder.decode(
            code + b"\x00" * x86_decoder.MAX_INSN_LEN, 0)
        assert instr.mnemonic == "mov"
        assert instr.reg == dst
        assert instr.base == base
        assert instr.disp & 0xFFFFFFFF == disp & 0xFFFFFFFF
        assert instr.length == len(code)

    def test_disassembly_smoke(self):
        asm = X86Assembler()
        asm.push_r(5)
        asm.mov_rm_r(5, 4)
        asm.lea(4, Mem(base=5, disp=-12))
        lines = disassemble_range(asm.finish(), 0xC013EC60, 10)
        assert "push %ebp" in lines[0]
        assert "lea -0xc(%ebp),%esp" in lines[2]


class TestPPCRoundtrip:
    def _roundtrip(self, asm: PPCAssembler):
        code = asm.finish()
        out = []
        for index in range(len(code) // 4):
            word = int.from_bytes(code[index * 4:index * 4 + 4], "big")
            instr = ppc_decoder.decode(word)
            assert instr.execute is not ppc_decoder.exec_illegal, \
                f"word {index} ({word:#010x}) decodes illegal"
            out.append(instr)
        return out

    def test_every_assembler_form_roundtrips(self):
        asm = PPCAssembler()
        asm.addi(3, 1, -32)
        asm.addis(4, 0, 0x1234)
        asm.mulli(5, 3, 100)
        asm.add(3, 4, 5)
        asm.subf(3, 4, 5)
        asm.neg(3, 4)
        asm.mullw(3, 4, 5)
        asm.divw(3, 4, 5)
        asm.divwu(3, 4, 5)
        asm.and_(3, 4, 5)
        asm.or_(3, 4, 5)
        asm.mr(3, 4)
        asm.xor_(3, 4, 5)
        asm.nor(3, 4, 5)
        asm.slw(3, 4, 5)
        asm.srw(3, 4, 5)
        asm.sraw(3, 4, 5)
        asm.srawi(3, 4, 7)
        asm.ori(3, 4, 0xFFFF)
        asm.xori(3, 4, 1)
        asm.andi_dot(3, 4, 0xFF)
        asm.rlwinm(3, 4, 2, 0, 29)
        asm.cmpwi(3, -1)
        asm.cmplwi(3, 10)
        asm.cmpw(3, 4)
        asm.cmplw(3, 4)
        asm.lwz(11, 40, 31)
        asm.lwzu(11, 4, 31)
        asm.lbz(3, 0, 4)
        asm.lhz(3, 2, 4)
        asm.lha(3, 2, 4)
        asm.stw(3, 0, 1)
        asm.stwu(1, -32, 1)
        asm.stb(3, 1, 4)
        asm.sth(3, 2, 4)
        asm.lmw(29, 8, 1)
        asm.stmw(29, 8, 1)
        asm.lwzx(3, 4, 5)
        asm.stwx(3, 4, 5)
        asm.lhzx(3, 4, 5)
        asm.sthx(3, 4, 5)
        asm.lbzx(3, 4, 5)
        asm.stbx(3, 4, 5)
        asm.mflr(0)
        asm.mtlr(0)
        asm.mfctr(9)
        asm.mtctr(9)
        asm.mfspr(3, 274)
        asm.mtspr(274, 3)
        asm.mfmsr(3)
        asm.mtmsr(3)
        asm.sc()
        asm.twi(31, 0, 0)
        asm.trap()
        asm.isync()
        asm.sync()
        asm.blr()
        asm.bctr()
        asm.nop()
        self._roundtrip(asm)

    @given(ppc_reg, ppc_reg, imm16s)
    def test_dform_fields(self, rt, ra, imm):
        asm = PPCAssembler()
        asm.lwz(rt, imm, ra)
        word = asm.words[0]
        instr = ppc_decoder.decode(word)
        assert instr.rt == rt
        assert instr.ra == ra
        assert instr.imm == imm & 0xFFFFFFFF

    @given(st.integers(min_value=0, max_value=1023))
    def test_spr_field_swap(self, spr):
        asm = PPCAssembler()
        asm.mfspr(5, spr)
        instr = ppc_decoder.decode(asm.words[0])
        assert instr.imm == spr

    def test_disassembly_matches_paper(self):
        _, text = disassemble_word(0x9421FFE0)
        assert text == "stwu r1,-32(r1)"
        _, text = disassemble_word(0x7C0802A6)
        assert text == "mflr r0"
        _, text = disassemble_word(0x817F0028)
        assert text == "lwz r11,40(r31)"
        _, text = disassemble_word(0x2C0B0000)
        assert text == "cmpwi r11,0"

    def test_disassembly_operands(self):
        """Every row formats its operands (the table's syntax column),
        including the ones the disassembler once printed bare."""
        cases = {
            0x6C640010: "xoris r4,r3,16",
            dform(29, 3, 4, 0xFF00): "andis. r4,r3,65280",
            dform(8, 3, 4, 50): "subfic r3,r4,50",
            dform(8, 3, 4, -1): "subfic r3,r4,-1",
            xform(31, 5, 6, 7, 138): "adde r5,r6,r7",
            xform(31, 5, 6, 0, 202): "addze r5,r6",
            xform(31, 4, 3, 0, 26): "cntlzw r3,r4",
            xform(31, 4, 3, 0, 954): "extsb r3,r4",
            xform(31, 4, 3, 0, 922): "extsh r3,r4",
        }
        for word, expected in cases.items():
            assert disassemble_word(word)[1] == expected
