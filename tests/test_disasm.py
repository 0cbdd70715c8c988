"""Disassembler formatting tests for both architectures."""

import pytest

from repro.x86.disasm import disassemble, disassemble_range
from repro.ppc.disasm import disassemble_word, disassemble_range as \
    ppc_range


class TestX86Format:
    @pytest.mark.parametrize("raw,expected", [
        (b"\x55", "push %ebp"),
        (b"\x89\xe5", "mov %esp,%ebp"),
        (b"\x8b\x45\xe0", "mov -0x20(%ebp),%eax"),
        (b"\x89\x45\xfc", "mov %eax,-0x4(%ebp)"),
        (b"\x8d\x65\xf4", "lea -0xc(%ebp),%esp"),
        (b"\xc3", "ret"),
        (b"\x0f\x0b", "ud2a"),
        (b"\xcd\x80", "int $0x80"),
        (b"\x85\xc0", "test %eax,%eax"),
        (b"\x31\xd2", "xor %edx,%edx"),
        (b"\xf7\xf1", "div %ecx"),
        (b"\x90", "nop"),
        (b"\xb8\x2a\x00\x00\x00", "mov $0x2a,%eax"),
        (b"\x66\x8b\x45\xe0", "mov -0x20(%ebp),%ax"),
        (b"\x8a\x45\xe0", "mov -0x20(%ebp),%al"),
        (b"\x8b\x8a\xe0\x7a\x43\xc0", "mov 0xc0437ae0(%edx),%ecx"),
        (b"\xff\xd0", "call *%eax"),
        (b"\x0f\xaf\xc1", "imul %ecx,%eax"),
        (b"\xcf", "iret"),
    ])
    def test_att_rendering(self, raw, expected):
        _, text = disassemble(raw)
        assert text == expected

    def test_jump_targets_absolute(self):
        _, text = disassemble(b"\x74\x27", addr=0xC02ABF25)
        assert text == "je 0xc02abf4e"         # paper figure 7

    def test_range_includes_hex_bytes(self):
        lines = disassemble_range(b"\x55\x89\xe5", 0xC0100000, 4)
        assert lines[0].startswith("c0100000: 55")
        assert len(lines) == 2

    def test_bad_bytes_render(self):
        _, text = disassemble(b"\xd8\x00")
        assert "bad" in text

    @pytest.mark.parametrize("raw,expected", [
        (b"\x0f\x94\xc0", "sete %al"),
        (b"\x0f\x9f\x45\xfc", "setg -0x4(%ebp)"),
        (b"\x0f\x44\xc1", "cmove %ecx,%eax"),
        (b"\x0f\x4c\x43\x08", "cmovl 0x8(%ebx),%eax"),
        (b"\x0f\xa3\xc8", "bt %ecx,%eax"),
        (b"\x0f\xab\x0b", "bts %ecx,(%ebx)"),
        (b"\x0f\xb3\xd0", "btr %edx,%eax"),
        (b"\x0f\xbb\xd0", "btc %edx,%eax"),
        (b"\x0f\xba\xe0\x05", "bt $0x5,%eax"),
        (b"\x0f\xba\x6b\x04\x1f", "bts $0x1f,0x4(%ebx)"),
        (b"\x0f\xba\xf1\x03", "btr $0x3,%ecx"),
        (b"\x0f\xba\xfa\x07", "btc $0x7,%edx"),
        (b"\x0f\xbc\xc1", "bsf %ecx,%eax"),
        (b"\x0f\xbd\x03", "bsr (%ebx),%eax"),
        (b"\x0f\xa4\xc8\x05", "shld $0x5,%ecx,%eax"),
        (b"\x0f\xac\xd0\x03", "shrd $0x3,%edx,%eax"),
        (b"\x0f\xc1\xc8", "xadd %ecx,%eax"),
        (b"\x0f\xc0\x0b", "xadd %cl,(%ebx)"),
        (b"\x0f\xb1\x0b", "cmpxchg %ecx,(%ebx)"),
        (b"\x06", "push %es"),
        (b"\x0e", "push %cs"),
        (b"\x16", "push %ss"),
        (b"\x1e", "push %ds"),
        (b"\x07", "pop %es"),
        (b"\x17", "pop %ss"),
        (b"\x1f", "pop %ds"),
    ])
    def test_disassembly_operands(self, raw, expected):
        """Every row formats its operands (the table's syntax column),
        including the ones the disassembler once printed bare."""
        _, text = disassemble(raw)
        assert text == expected


class TestPPCFormat:
    @pytest.mark.parametrize("word,expected", [
        (0x9421FFE0, "stwu r1,-32(r1)"),
        (0x7C0802A6, "mflr r0"),
        (0x7C0803A6, "mtlr r0"),
        (0x817F0028, "lwz r11,40(r31)"),
        (0x2C0B0000, "cmpwi r11,0"),
        (0x38600007, "li r3,7"),
        (0x3C60C030, "lis r3,-16336"),
        (0x4E800020, "blr"),
        (0x44000002, "sc"),
        (0x7C631A14, "add r3,r3,r3"),
        (0x60000000, "nop"),
        (0x7C0902A6, "mfctr r0"),
    ])
    def test_rendering(self, word, expected):
        _, text = disassemble_word(word)
        assert text == expected

    def test_illegal_rendering(self):
        _, text = disassemble_word(0x00000000)
        assert "illegal" in text

    def test_range(self):
        raw = (0x9421FFE0).to_bytes(4, "big") + \
            (0x7C0802A6).to_bytes(4, "big")
        lines = ppc_range(raw, 0xC0048FAC, 4)
        assert len(lines) == 2
        assert "stwu" in lines[0]
        assert lines[0].startswith("c0048fac: 94 21 ff e0")
