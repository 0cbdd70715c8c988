"""Assembler <-> decoder round-trip tests for both architectures.

The x86 byte table below is an oracle independent of the instruction
table the assembler emits from: every builder method's bytes, written
out, over each addressing form, width and immediate edge.  On PPC,
every emitter derived from the table is driven with random operands
and read back through the decoder and the disassembler, whose text is
checked against objdump-style rules written out here; the pseudo-ops'
text is written out too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import Assembler, AssemblerError
from repro.ppc import decoder as ppc_decoder
from repro.ppc.assembler import PPCAssembler, method_name, operands
from repro.ppc.disasm import disassemble_word, format_instr
from repro.ppc.isa import TABLE, op_of as ppc_op_of
from repro.x86 import decoder as x86_decoder
from repro.x86.assembler import Mem, X86Assembler
from repro.x86.disasm import disassemble_range
from repro.x86.isa import op_of
from repro.x86.registers import SEG_FS, SEG_GS
from tests.ppc_words import dform, xform

reg = st.integers(min_value=0, max_value=7)
ppc_reg = st.integers(min_value=0, max_value=31)
imm16s = st.integers(min_value=-0x8000, max_value=0x7FFF)

DISP8 = Mem(base=5, disp=-8)
DISP32 = Mem(base=1, disp=0x1234)
ESP_SIB = Mem(base=4, disp=8)
ABSOLUTE = Mem(disp=0xC0300000)
INDEX = Mem(index=1, scale=4, disp=0xC0300000)
BASE_INDEX = Mem(base=3, index=6, scale=2)
FS = Mem(base=5, disp=8, seg=SEG_FS)
GS = Mem(disp=0x10, seg=SEG_GS)

#: (builder, arguments, bytes, decoded row, op2, width); labels point
#: at offset 0, a relocation is the trailing zero field
X86_BYTES = [
    ("mov_r_rm", (0, 3), "8b c3", "mov_r_rm", 0, 4),
    ("mov_rm_r", (3, 2), "89 d3", "mov_rm_r", 0, 4),
    ("mov_r_rm", (0, DISP8), "8b 45 f8", "mov_r_rm", 0, 4),
    ("mov_rm_r", (DISP8, 2), "89 55 f8", "mov_rm_r", 0, 4),
    ("mov_r_rm", (0, DISP32), "8b 81 34 12 00 00", "mov_r_rm", 0, 4),
    ("mov_rm_r", (DISP32, 2), "89 91 34 12 00 00", "mov_rm_r", 0, 4),
    ("mov_r_rm", (0, ESP_SIB), "8b 44 24 08", "mov_r_rm", 0, 4),
    ("mov_rm_r", (ESP_SIB, 2), "89 54 24 08", "mov_rm_r", 0, 4),
    ("mov_r_rm", (0, ABSOLUTE), "8b 05 00 00 30 c0", "mov_r_rm", 0, 4),
    ("mov_rm_r", (ABSOLUTE, 2), "89 15 00 00 30 c0", "mov_rm_r", 0, 4),
    ("mov_r_rm", (0, INDEX), "8b 04 8d 00 00 30 c0", "mov_r_rm", 0, 4),
    ("mov_rm_r", (INDEX, 2), "89 14 8d 00 00 30 c0", "mov_rm_r", 0, 4),
    ("mov_r_rm", (0, BASE_INDEX), "8b 04 73", "mov_r_rm", 0, 4),
    ("mov_rm_r", (BASE_INDEX, 2), "89 14 73", "mov_rm_r", 0, 4),
    ("mov_r_rm", (0, FS), "64 8b 45 08", "mov_r_rm", 0, 4),
    ("mov_rm_r", (FS, 2), "64 89 55 08", "mov_rm_r", 0, 4),
    ("mov_r_rm", (0, GS), "65 8b 05 10 00 00 00", "mov_r_rm", 0, 4),
    ("mov_rm_r", (GS, 2), "65 89 15 10 00 00 00", "mov_rm_r", 0, 4),
    ("mov_r_rm", (1, DISP8, 1), "8a 4d f8", "mov_r_rm", 0, 1),
    ("mov_rm_r", (ESP_SIB, 2, 1), "88 54 24 08", "mov_rm_r", 0, 1),
    ("mov_rm_r", (FS, 0, 1), "64 88 45 08", "mov_rm_r", 0, 1),
    ("mov_r_rm", (1, DISP8, 2), "66 8b 4d f8", "mov_r_rm", 0, 2),
    ("mov_rm_r", (ESP_SIB, 2, 2), "66 89 54 24 08", "mov_rm_r", 0, 2),
    ("mov_rm_r", (FS, 0, 2), "64 66 89 45 08", "mov_rm_r", 0, 2),
    ("mov_r_imm", (0, 0xDEADBEEF), "b8 ef be ad de", "mov_r_imm", 0, 4),
    ("mov_r_imm", (7, 5), "bf 05 00 00 00", "mov_r_imm", 0, 4),
    ("mov_r_imm_sym", (3, "jiffies"), "bb 00 00 00 00", "mov_r_imm", 0, 4),
    ("mov_rm_imm", (Mem(base=5, disp=-4), 0x1234, 1), "c6 45 fc 34", "mov_rm_imm", 0, 1),
    ("mov_rm_imm", (Mem(base=5, disp=-4), 0x1234, 2), "66 c7 45 fc 34 12", "mov_rm_imm", 0, 2),
    ("mov_rm_imm", (Mem(base=5, disp=-4), 0x1234, 4), "c7 45 fc 34 12 00 00", "mov_rm_imm", 0, 4),
    ("mov_rm_imm", (GS, 7), "65 c7 05 10 00 00 00 07 00 00 00", "mov_rm_imm", 0, 4),
    ("movzx", (3, Mem(base=0), 1), "0f b6 18", "movzx", 1, 4),
    ("movzx", (3, 1, 2), "0f b7 d9", "movzx", 2, 4),
    ("movsx", (2, Mem(base=5, disp=-2), 1), "0f be 55 fe", "movsx", 1, 4),
    ("movsx", (3, Mem(base=0), 2), "0f bf 18", "movsx", 2, 4),
    ("lea", (4, Mem(base=5, disp=-12)), "8d 65 f4", "lea", 0, 4),
    ("lea", (0, Mem(index=1, scale=8, disp=4)), "8d 04 cd 04 00 00 00", "lea", 0, 4),
    ("lea", (1, Mem(base=4, disp=0x200)), "8d 8c 24 00 02 00 00", "lea", 0, 4),
    ("xchg_r_rm", (0, 3), "87 c3", "xchg_r_rm", 0, 4),
    ("xchg_r_rm", (1, Mem(base=5, disp=8)), "87 4d 08", "xchg_r_rm", 0, 4),
    ("alu_r_rm", ("add", 0, 1, 4), "03 c1", "alu_r_rm", 0, 4),
    ("alu_rm_r", ("add", 1, 3, 4), "01 d9", "alu_rm_r", 0, 4),
    ("alu_r_rm", ("or", 0, DISP8, 4), "0b 45 f8", "alu_r_rm", 1, 4),
    ("alu_rm_r", ("or", DISP8, 3, 4), "09 5d f8", "alu_rm_r", 1, 4),
    ("alu_r_rm", ("adc", 0, 2, 1), "12 c2", "alu_r_rm", 2, 1),
    ("alu_rm_r", ("adc", 2, 3, 1), "10 da", "alu_rm_r", 2, 1),
    ("alu_r_rm", ("sbb", 0, Mem(base=4), 2), "66 1b 04 24", "alu_r_rm", 3, 2),
    ("alu_rm_r", ("sbb", Mem(base=4), 3, 2), "66 19 1c 24", "alu_rm_r", 3, 2),
    ("alu_r_rm", ("and", 0, ABSOLUTE, 4), "23 05 00 00 30 c0", "alu_r_rm", 4, 4),
    ("alu_rm_r", ("and", ABSOLUTE, 3, 4), "21 1d 00 00 30 c0", "alu_rm_r", 4, 4),
    ("alu_r_rm", ("sub", 0, FS, 4), "64 2b 45 08", "alu_r_rm", 5, 4),
    ("alu_rm_r", ("sub", FS, 3, 4), "64 29 5d 08", "alu_rm_r", 5, 4),
    ("alu_r_rm", ("xor", 0, 0, 4), "33 c0", "alu_r_rm", 6, 4),
    ("alu_rm_r", ("xor", 0, 3, 4), "31 d8", "alu_rm_r", 6, 4),
    ("alu_r_rm", ("cmp", 0, Mem(base=6, disp=0x100), 1), "3a 86 00 01 00 00", "alu_r_rm", 7, 1),
    ("alu_rm_r", ("cmp", Mem(base=6, disp=0x100), 3, 1), "38 9e 00 01 00 00", "alu_rm_r", 7, 1),
    ("alu_rm_imm", ("add", 4, 0x7F), "83 c4 7f", "grp1_rm_imm", 0, 4),
    ("push_imm", (0x7F,), "6a 7f", "push_imm", 0, 4),
    ("alu_rm_imm", ("add", 4, 0x80), "81 c4 80 00 00 00", "grp1_rm_imm", 0, 4),
    ("push_imm", (0x80,), "68 80 00 00 00", "push_imm", 0, 4),
    # -128 is 0xFFFFFF80 taken as 32 bits: the short form either way
    ("alu_rm_imm", ("add", 4, -128), "83 c4 80", "grp1_rm_imm", 0, 4),
    ("push_imm", (-128,), "6a 80", "push_imm", 0, 4),
    ("alu_rm_imm", ("add", 4, -129), "81 c4 7f ff ff ff", "grp1_rm_imm", 0, 4),
    ("push_imm", (-129,), "68 7f ff ff ff", "push_imm", 0, 4),
    ("alu_rm_imm", ("add", 4, 0xFFFFFF80), "83 c4 80", "grp1_rm_imm", 0, 4),
    ("push_imm", (0xFFFFFF80,), "6a 80", "push_imm", 0, 4),
    ("alu_rm_imm", ("add", 4, 0xDEADBEEF), "81 c4 ef be ad de", "grp1_rm_imm", 0, 4),
    ("push_imm", (0xDEADBEEF,), "68 ef be ad de", "push_imm", 0, 4),
    ("alu_rm_imm", ("cmp", DISP8, 0x80, 1), "80 7d f8 80", "grp1_rm_imm", 7, 1),
    ("alu_rm_imm", ("and", 0, 0x7F, 1), "80 e0 7f", "grp1_rm_imm", 4, 1),
    ("alu_rm_imm", ("cmp", DISP8, 0x80, 2), "66 81 7d f8 80 00", "grp1_rm_imm", 7, 2),
    ("alu_rm_imm", ("and", 0, 0x7F, 2), "66 83 e0 7f", "grp1_rm_imm", 4, 2),
    ("alu_rm_imm", ("sub", Mem(base=5, disp=8, seg=SEG_GS), 0x10),
     "65 83 6d 08 10", "grp1_rm_imm", 5, 4),
    ("test_rm_r", (Mem(base=3), 0, 1), "84 03", "test_rm_r", 0, 1),
    ("test_rm_r", (Mem(base=3), 0, 2), "66 85 03", "test_rm_r", 0, 2),
    ("test_rm_r", (Mem(base=3), 0, 4), "85 03", "test_rm_r", 0, 4),
    ("test_rm_r", (0, 0), "85 c0", "test_rm_r", 0, 4),
    ("imul_r_rm", (0, 1), "0f af c1", "imul_r_rm", 0, 4),
    ("imul_r_rm", (2, DISP8), "0f af 55 f8", "imul_r_rm", 0, 4),
    ("imul_r_rm_imm", (1, 1, 28), "69 c9 1c 00 00 00", "imul_rmi", 0, 4),
    ("imul_r_rm_imm", (0, Mem(base=4, disp=4), 0x12345),
     "69 44 24 04 45 23 01 00", "imul_rmi", 0, 4),
    ("div_rm", (1,), "f7 f1", "grp3", 6, 4),
    ("div_rm", (DISP8,), "f7 75 f8", "grp3", 6, 4),
    ("idiv_rm", (1,), "f7 f9", "grp3", 7, 4),
    ("idiv_rm", (DISP8,), "f7 7d f8", "grp3", 7, 4),
    ("neg_rm", (1,), "f7 d9", "grp3", 3, 4),
    ("neg_rm", (DISP8,), "f7 5d f8", "grp3", 3, 4),
    ("not_rm", (1,), "f7 d1", "grp3", 2, 4),
    ("not_rm", (DISP8,), "f7 55 f8", "grp3", 2, 4),
    ("shift_rm_imm", ("rol", 0, 1), "d1 c0", "grp2", 8, 4),
    ("shift_rm_imm", ("rol", 0, 4), "c1 c0 04", "grp2", 0, 4),
    ("shift_rm_cl", ("rol", 2), "d3 c2", "grp2", 16, 4),
    ("shift_rm_imm", ("ror", 0, 1), "d1 c8", "grp2", 9, 4),
    ("shift_rm_imm", ("ror", 0, 4), "c1 c8 04", "grp2", 1, 4),
    ("shift_rm_cl", ("ror", 2), "d3 ca", "grp2", 17, 4),
    ("shift_rm_imm", ("shl", 0, 1), "d1 e0", "grp2", 12, 4),
    ("shift_rm_imm", ("shl", 0, 4), "c1 e0 04", "grp2", 4, 4),
    ("shift_rm_cl", ("shl", 2), "d3 e2", "grp2", 20, 4),
    ("shift_rm_imm", ("shr", 0, 1), "d1 e8", "grp2", 13, 4),
    ("shift_rm_imm", ("shr", 0, 4), "c1 e8 04", "grp2", 5, 4),
    ("shift_rm_cl", ("shr", 2), "d3 ea", "grp2", 21, 4),
    ("shift_rm_imm", ("sar", 0, 1), "d1 f8", "grp2", 15, 4),
    ("shift_rm_imm", ("sar", 0, 4), "c1 f8 04", "grp2", 7, 4),
    ("shift_rm_cl", ("sar", 2), "d3 fa", "grp2", 23, 4),
    ("shift_rm_imm", ("shl", DISP8, 1), "d1 65 f8", "grp2", 12, 4),
    ("shift_rm_imm", ("sar", DISP8, 31), "c1 7d f8 1f", "grp2", 7, 4),
    ("shift_rm_cl", ("shr", Mem(base=4)), "d3 2c 24", "grp2", 21, 4),
    ("inc_r", (6,), "46", "inc_r", 0, 4),
    ("dec_r", (7,), "4f", "dec_r", 0, 4),
    ("cdq", (), "99", "cdq", 0, 4),
    ("push_r", (5,), "55", "push_r", 0, 4),
    ("pop_r", (3,), "5b", "pop_r", 0, 4),
    ("push_rm", (Mem(base=5, disp=8),), "ff 75 08", "grp5", 6, 4),
    ("push_rm", (2,), "ff f2", "grp5", 6, 4),
    ("push_rm", (GS,), "65 ff 35 10 00 00 00", "grp5", 6, 4),
    ("call_sym", ("schedule",), "e8 00 00 00 00", "call_rel", 0, 4),
    ("call_rm", (0,), "ff d0", "grp5", 2, 4),
    ("call_rm", (Mem(base=5, disp=0x7F),), "ff 55 7f", "grp5", 2, 4),
    ("jmp_label", ("top",), "e9 fb ff ff ff", "jmp_rel", 0, 4),
    ("jcc_label", ("e", "top"), "0f 84 fa ff ff ff", "jcc", 4, 4),
    ("jcc_label", ("g", "top"), "0f 8f fa ff ff ff", "jcc", 15, 4),
    ("jcc_label", ("o", "top"), "0f 80 fa ff ff ff", "jcc", 0, 4),
    ("ret", (), "c3", "ret", 0, 4),
    ("nop", (), "90", "nop", 0, 4),
    ("ud2a", (), "0f 0b", "ud2", 0, 4),
    ("int_n", (0x80,), "cd 80", "int", 0, 4),
    ("hlt", (), "f4", "hlt", 0, 4),
]


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
        builders = {name for name in dir(X86Assembler)
                    if not name.startswith(("_", "emit"))} - set(
                        dir(Assembler))
        assert builders == {case[0] for case in X86_BYTES}
        for builder, args, expected, row, op2, width in X86_BYTES:
            one = X86Assembler()
            one.label("top")
            getattr(one, builder)(*args)
            code = one.finish()
            assert code.hex(" ") == expected, (builder, args)
            assert all(r.offset == len(code) - 4 for r in one.relocs)
            instr = x86_decoder.decode(
                code + b"\x00" * x86_decoder.MAX_INSN_LEN, 0)
            assert instr.length == len(code), (builder, args)
            assert (op_of(instr).name, instr.op2, instr.width) == \
                (row, op2, width), (builder, args)

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

    @pytest.mark.parametrize("builder,args", [
        ("lea", (0, FS)), ("xchg_r_rm", (0, FS)), ("imul_r_rm", (0, FS)),
        ("imul_r_rm_imm", (0, FS, 3)), ("shift_rm_imm", ("shl", FS, 3)),
        ("shift_rm_cl", ("sar", FS)), ("div_rm", (FS,)),
        ("idiv_rm", (FS,)), ("neg_rm", (FS,)), ("not_rm", (FS,)),
        ("call_rm", (FS,)),
    ])
    def test_segment_prefix_on_every_rm_form(self, builder, args):
        plain, prefixed = X86Assembler(), X86Assembler()
        getattr(plain, builder)(*(Mem(base=5, disp=8) if arg is FS else arg
                                  for arg in args))
        getattr(prefixed, builder)(*args)
        code = prefixed.finish()
        assert code == b"\x64" + plain.finish()
        instr = x86_decoder.decode(
            code + b"\x00" * x86_decoder.MAX_INSN_LEN, 0)
        assert instr.length == len(code)
        assert instr.seg == SEG_FS

    def test_encode_inverts_decode(self):
        """Each encoding, emitted with zero operands, decodes to the
        row, op2 and width it was looked up by."""
        from repro.x86.decoder import _ENCODINGS
        for (row, op2, width, _), enc in _ENCODINGS.items():
            code = bytearray(b"\x66" if width == 2 else b"")
            if enc.code >> 8:
                code.append(enc.code >> 8)
            # register 1 in the opcode: 0x90 + 0 is nop, not xchg
            code.append(enc.code & 0xFF | enc.low3)
            if enc.modrm:
                code.append(0xC0 | (enc.digit or 0) << 3)
            instr = x86_decoder.decode(
                bytes(code) + b"\x00" * x86_decoder.MAX_INSN_LEN, 0)
            assert (op_of(instr).name, instr.op2, instr.width) == \
                (row, op2, width), hex(enc.code)

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


_S16 = st.integers(-0x8000, 0x7FFF)
_U16 = st.integers(0, 0xFFFF)
_BIT = st.integers(0, 1)
_CRF = st.integers(0, 7)

#: operand fields of each PPC form -> values it encodes exactly (the
#: decoder gives each back as ``value & 0xFFFFFFFF``); op2 is the CR
#: field of a compare, the LK bit of a branch, ME of rlwinm
PPC_FIELDS = {
    "D": {"rt": ppc_reg, "ra": ppc_reg, "imm": _S16},
    "DU": {"rt": ppc_reg, "ra": ppc_reg, "imm": _U16},
    "CMPI": {"ra": ppc_reg, "imm": _S16, "op2": _CRF},
    "CMPLI": {"ra": ppc_reg, "imm": _U16, "op2": _CRF},
    "M": {"rt": ppc_reg, "ra": ppc_reg, "rb": ppc_reg, "imm": ppc_reg,
          "op2": ppc_reg},
    "B": {"imm": st.integers(-(1 << 23), (1 << 23) - 1).map(lambda n: 4 * n),
          "op2": _BIT},
    "BC": {"rt": ppc_reg, "ra": ppc_reg,
           "imm": st.integers(-(1 << 13), (1 << 13) - 1).map(
               lambda n: 4 * n), "op2": _BIT},
    "XL": {"rt": ppc_reg, "ra": ppc_reg, "op2": _BIT},
    "X": {"rt": ppc_reg, "ra": ppc_reg, "rb": ppc_reg},
    "XCMP": {"ra": ppc_reg, "rb": ppc_reg, "op2": _CRF},
    "XFX": {"rt": ppc_reg, "imm": st.integers(0, 1023)},
    "NONE": {},
    "SC": {},
}


def _cond(f):
    if f["rt"] & 0x10:
        return "bc"
    true = f["rt"] & 8       # branch if the CR bit is set
    return "b" + (("lt", "gt", "eq", "so") if true else
                  ("ge", "le", "ne", "ns"))[f["ra"] & 3]


#: how each syntax name reads, objdump style, from the operand fields
#: an emitter was given (a branch target at address 0)
PPC_TEXT = {
    "rt": lambda f: f"r{f['rt']}", "ra": lambda f: f"r{f['ra']}",
    "rb": lambda f: f"r{f['rb']}", "si": lambda f: f["imm"],
    "ui": lambda f: f["imm"], "d": lambda f: f"{f['imm']}(r{f['ra']})",
    "sh": lambda f: f["rb"], "mb": lambda f: f["imm"],
    "me": lambda f: f["op2"], "to": lambda f: f["rt"],
    "spr": lambda f: f["imm"], "bo": lambda f: f["rt"],
    "bi": lambda f: f["ra"], "target": lambda f: f"{f['imm'] & 0xFFFFFFFF:#x}",
    "cond": _cond,
    "crb": lambda f: f"cr{f['ra'] >> 2}," if f["ra"] >> 2
    and not f["rt"] & 0x10 else "",
    "crf": lambda f: f"cr{f['op2']}," if f["op2"] else "",
    "lk": lambda f: "l" if f["op2"] else "",
}


def _word(asm: PPCAssembler) -> int:
    code = asm.finish()
    assert len(code) == 4
    return int.from_bytes(code, "big")


class TestPPCRoundtrip:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_assembler_form_roundtrips(self, data):
        """Each row's emitter: its word decodes to that row and the
        fields it was given (the rest 0), and disassembles as the row's
        syntax filled with the same operands.  A form's op2 (CR field,
        LK bit) must be an operand, so that both show."""
        for op in TABLE:
            domain = PPC_FIELDS[op.form]
            fields, option = operands(op)
            given_ = {field: data.draw(domain[field], label=op.name)
                      for field in fields}
            options = {}
            if option is not None:
                options[option] = given_["op2"] = data.draw(domain["op2"])
            assert "op2" in given_ or "op2" not in domain \
                or op.mnemonics, f"{op.name} drops its op2 field"
            asm = PPCAssembler()
            getattr(asm, method_name(op.name))(
                *(given_[field] for field in fields), **options)
            instr = ppc_decoder.decode(_word(asm))
            assert ppc_op_of(instr) is op
            every = {"rt": 0, "ra": 0, "rb": 0, "imm": 0, "op2": 0, **given_}
            assert (instr.rt, instr.ra, instr.rb, instr.imm, instr.op2) == \
                tuple(value & 0xFFFFFFFF for value in every.values()), \
                op.name
            syntax = next((text for applies, text in op.aliases
                           if applies(instr)), op.asm)
            name = op.mnemonics[instr.op2] if op.mnemonics else op.name
            assert format_instr(instr) == syntax.format(
                name=name, **{key: text(every)
                              for key, text in PPC_TEXT.items()}), given_

    @pytest.mark.parametrize("emit,text", [
        (lambda a: a.li(3, -5), "li r3,-5"),
        (lambda a: a.lis(3, 0x1234), "lis r3,4660"),
        (lambda a: a.mr(3, 4), "mr r3,r4"),
        (lambda a: a.nop(), "nop"),
        (lambda a: a.mflr(0), "mflr r0"),
        (lambda a: a.mtlr(0), "mtlr r0"),
        (lambda a: a.mfctr(9), "mfctr r9"),
        (lambda a: a.mtctr(9), "mtctr r9"),
        (lambda a: a.trap(), "tw 31,r0,r0"),
        (lambda a: a.blr(), "blr"),
        (lambda a: a.bctr(), "bctr"),
        (lambda a: a.bctrl(), "bctrl"),
        (lambda a: a.beq(".x", crf=1), "beq cr1,0x0"),
        (lambda a: a.bne(".x"), "bne 0x0"),
        (lambda a: a.blt(".x"), "blt 0x0"),
        (lambda a: a.bge(".x"), "bge 0x0"),
        (lambda a: a.bgt(".x"), "bgt 0x0"),
        (lambda a: a.ble(".x", crf=7), "ble cr7,0x0"),
        (lambda a: a.bc_label(16, 0, ".x"), "bc 0x0"),
        (lambda a: a.b_label(".x"), "b 0x0"),
    ])
    def test_pseudo_ops(self, emit, text):
        asm = PPCAssembler()
        asm.label(".x")
        emit(asm)
        assert disassemble_word(_word(asm))[1] == text

    def test_symbol_forms_leave_relocations(self):
        asm = PPCAssembler()
        asm.nop()
        asm.bl_sym("callee")
        asm.load_addr_sym(5, "table")
        code = asm.finish()
        assert [(r.offset, r.symbol, r.kind) for r in asm.relocs] == [
            (4, "callee", "rel24"), (8, "table", "hi16"),
            (12, "table", "lo16")]
        assert asm.insn_offsets == [0, 4, 8, 12]
        assert [disassemble_word(int.from_bytes(code[n:n + 4], "big"))[1]
                for n in range(4, 16, 4)] == [
            "bl 0x0", "lis r5,0", "ori r5,r5,0"]

    @given(ppc_reg, ppc_reg, imm16s)
    def test_dform_fields(self, rt, ra, imm):
        asm = PPCAssembler()
        asm.lwz(rt, imm, ra)
        word = _word(asm)
        instr = ppc_decoder.decode(word)
        assert instr.rt == rt
        assert instr.ra == ra
        assert instr.imm == imm & 0xFFFFFFFF

    @given(st.integers(min_value=0, max_value=1023))
    def test_spr_field_swap(self, spr):
        asm = PPCAssembler()
        asm.mfspr(5, spr)
        instr = ppc_decoder.decode(_word(asm))
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


def _assembler(arch: str):
    return X86Assembler() if arch == "x86" else PPCAssembler()


def _jump(asm, label: str) -> None:
    if isinstance(asm, X86Assembler):
        asm.jmp_label(label)
    else:
        asm.b_label(label)


def _pad(asm, size: int) -> None:
    """*size* zero bytes of never-executed padding."""
    asm.code.extend(bytes(size))


class TestLoudFailures:
    """Labels and displacements that cannot be resolved raise
    :class:`AssemblerError` on both ISAs, never emit a wrong word."""

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_duplicate_label(self, arch):
        asm = _assembler(arch)
        asm.label("here")
        with pytest.raises(AssemblerError, match="duplicate label here"):
            asm.label("here")

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_undefined_label(self, arch):
        asm = _assembler(arch)
        _jump(asm, "nowhere")
        asm.label("elsewhere")
        with pytest.raises(AssemblerError, match="undefined label nowhere"):
            asm.finish()

    @pytest.mark.parametrize("distance,fits", [
        (0x7FFC, True), (0x8000, False), (-0x8000, True), (-0x8004, False)])
    def test_bc_label_range(self, distance, fits):
        """A conditional branch reaches ±32 KiB (rel14)."""
        asm = PPCAssembler()
        if distance < 0:
            asm.label("far")
            _pad(asm, -distance)
        asm.beq("far")
        if distance > 0:
            _pad(asm, distance - 4)
            asm.label("far")
        if not fits:
            with pytest.raises(AssemblerError, match="rel14 overflow"):
                asm.finish()
            return
        code = asm.finish()
        at = max(0, -distance)
        instr = ppc_decoder.decode(int.from_bytes(code[at:at + 4], "big"))
        assert instr.imm == distance & 0xFFFFFFFF

    @pytest.mark.parametrize("distance,fits", [
        ((1 << 25) - 4, True), (1 << 25, False)])
    def test_b_label_range(self, distance, fits):
        """An unconditional branch reaches ±32 MiB (rel24)."""
        asm = PPCAssembler()
        asm.b_label("far")
        _pad(asm, distance - 4)
        asm.label("far")
        if not fits:
            with pytest.raises(AssemblerError, match="rel24 overflow"):
                asm.finish()
            return
        word = int.from_bytes(asm.finish()[:4], "big")
        assert ppc_decoder.decode(word).imm == distance
