"""Additional x86 instruction-semantics coverage (corruption-reachable
corners: string ops, adc/sbb, flag ops, leave, moffs, iret, sreg
moves)."""

import pytest

from repro.isa.memory import Region
from repro.x86.cpu import X86CPU
from repro.x86.exceptions import X86Fault, X86Vector
from repro.x86.registers import FLAG_CF, FLAG_ZF

TEXT = 0xC0100000
DATA = 0xC0300000
STACK = 0xC0500000


def make_cpu(code: bytes) -> X86CPU:
    cpu = X86CPU()
    cpu.aspace.map_region(Region(TEXT, 0x1000, "rx", "text"))
    cpu.aspace.map_region(Region(DATA, 0x1000, "rwx", "data"))
    cpu.aspace.map_region(Region(STACK, 0x2000, "rw", "stack"))
    cpu.regs[4] = STACK + 0x2000 - 16
    cpu.mem.write(TEXT, code)
    cpu.eip = TEXT
    return cpu


def run_bytes(code: bytes, steps: int, setup=None) -> X86CPU:
    cpu = make_cpu(code)
    if setup:
        setup(cpu)
    for _ in range(steps):
        cpu.step()
    return cpu


class TestStringOps:
    def test_rep_movsd(self):
        def setup(cpu):
            cpu.mem.write(DATA, bytes(range(32)))
            cpu.regs[6] = DATA            # esi
            cpu.regs[7] = DATA + 0x100    # edi
            cpu.regs[1] = 8               # ecx: 8 dwords

        cpu = run_bytes(b"\xf3\xa5", 1, setup)
        assert cpu.mem.read(DATA + 0x100, 32) == bytes(range(32))
        assert cpu.regs[1] == 0
        assert cpu.regs[6] == DATA + 32

    def test_rep_stosb(self):
        def setup(cpu):
            cpu.regs[0] = 0xAB
            cpu.regs[7] = DATA
            cpu.regs[1] = 16

        cpu = run_bytes(b"\xf3\xaa", 1, setup)
        assert cpu.mem.read(DATA, 16) == b"\xab" * 16

    def test_single_movsb(self):
        def setup(cpu):
            cpu.mem.write_u8(DATA, 0x5A)
            cpu.regs[6] = DATA
            cpu.regs[7] = DATA + 1

        cpu = run_bytes(b"\xa4", 1, setup)
        assert cpu.mem.read_u8(DATA + 1) == 0x5A


class TestCarryChain:
    def test_adc(self):
        # stc; adc eax, ecx  (0x11 /r is adc rm,r)
        code = b"\xf9\x11\xc8"
        def setup(cpu):
            cpu.regs[0] = 5
            cpu.regs[1] = 10
        cpu = run_bytes(code, 2, setup)
        assert cpu.regs[0] == 16            # 5 + 10 + carry

    def test_sbb(self):
        code = b"\xf9\x19\xc8"              # stc; sbb eax, ecx
        def setup(cpu):
            cpu.regs[0] = 10
            cpu.regs[1] = 3
        cpu = run_bytes(code, 2, setup)
        assert cpu.regs[0] == 6             # 10 - 3 - carry


class TestMisc:
    def test_leave(self):
        def setup(cpu):
            cpu.regs[5] = STACK + 0x1000    # ebp
            cpu.mem.write_u32(STACK + 0x1000, 0xCAFE, True)
        cpu = run_bytes(b"\xc9", 1, setup)
        assert cpu.regs[4] == STACK + 0x1004
        assert cpu.regs[5] == 0xCAFE

    def test_cwde_cdq(self):
        def setup(cpu):
            cpu.regs[0] = 0x8000            # negative 16-bit
        cpu = run_bytes(b"\x98\x99", 2, setup)
        assert cpu.regs[0] == 0xFFFF8000
        assert cpu.regs[2] == 0xFFFFFFFF

    def test_pushfd_popfd(self):
        def setup(cpu):
            cpu.eflags |= FLAG_CF
        cpu = run_bytes(b"\x9c\x58", 2, setup)  # pushfd; pop eax
        assert cpu.regs[0] & FLAG_CF

    def test_moffs(self):
        def setup(cpu):
            cpu.mem.write_u32(DATA + 8, 0x1234, True)
        code = b"\xa1" + (DATA + 8).to_bytes(4, "little") + \
            b"\xa3" + (DATA + 12).to_bytes(4, "little")
        cpu = run_bytes(code, 2, setup)
        assert cpu.regs[0] == 0x1234
        assert cpu.mem.read_u32(DATA + 12, True) == 0x1234

    def test_into_without_of_is_nop(self):
        cpu = run_bytes(b"\xce", 1)
        assert cpu.eip == TEXT + 1

    def test_into_with_of_traps(self):
        def setup(cpu):
            cpu.eflags |= 0x800             # OF
        with pytest.raises(X86Fault) as exc:
            run_bytes(b"\xce", 1, setup)
        assert exc.value.vector == X86Vector.OVERFLOW

    def test_iret_without_nt_pops_frame(self):
        def setup(cpu):
            cpu.push32(0x2)                 # eflags
            cpu.push32(0x10)                # cs
            cpu.push32(TEXT + 0x100)        # eip
        cpu = run_bytes(b"\xcf", 1, setup)
        assert cpu.eip == TEXT + 0x100

    def test_mov_sreg_roundtrip(self):
        # mov ax, 0x3b ; mov gs, ax ; mov cx, gs
        code = b"\x66\xb8\x3b\x00\x8e\xe8\x8c\xe9"
        cpu = run_bytes(code, 3)
        assert cpu.sregs[5] == 0x3B
        assert cpu.regs[1] & 0xFFFF == 0x3B

    def test_push_pop_segment_legacy(self):
        # push ds; pop es
        cpu = run_bytes(b"\x1e\x07", 2)
        assert cpu.sregs[0] == cpu.sregs[3]

    def test_int3_and_stray_int_survive(self):
        cpu = run_bytes(b"\xcc\xcd\x10\x90", 3)
        assert cpu.eip == TEXT + 4

    def test_int80_is_syscall_vector(self):
        with pytest.raises(X86Fault) as exc:
            run_bytes(b"\xcd\x80", 1)
        assert exc.value.vector == X86Vector.SYSCALL

    def test_grp5_push_memory(self):
        def setup(cpu):
            cpu.mem.write_u32(DATA, 0x77, True)
            cpu.regs[3] = DATA
        cpu = run_bytes(b"\xff\x33\x58", 2, setup)  # push [ebx]; pop eax
        assert cpu.regs[0] == 0x77

    def test_xchg_memory(self):
        def setup(cpu):
            cpu.mem.write_u32(DATA, 111, True)
            cpu.regs[0] = 222
            cpu.regs[3] = DATA
        cpu = run_bytes(b"\x87\x03", 1, setup)      # xchg [ebx], eax
        assert cpu.regs[0] == 111
        assert cpu.mem.read_u32(DATA, True) == 222

    def test_zero_flag_chain(self):
        # xor eax,eax ; jz +2 ; ud2 ; nop
        code = b"\x31\xc0\x74\x02\x0f\x0b\x90"
        cpu = run_bytes(code, 3)
        assert cpu.eflags & FLAG_ZF
        assert cpu.eip == TEXT + 7


class TestUndefinedSegmentRegister:
    """ModRM reg 6 and 7 name no segment register: ``8C``/``8E`` with
    those digits raise #UD (they once indexed past ``cpu.sregs``)."""

    CODES = [bytes([op, modrm]) for op in (0x8C, 0x8E)
             for modrm in (0xF0, 0xF8, 0x30, 0x38)]

    @pytest.mark.parametrize("code", CODES, ids=lambda c: c.hex())
    def test_step_raises_invalid_opcode(self, code):
        def setup(cpu):
            cpu.regs[0] = DATA
        with pytest.raises(X86Fault) as exc:
            run_bytes(code + b"\x90" * 8, 1, setup)
        assert exc.value.vector == X86Vector.INVALID_OPCODE

    @pytest.mark.parametrize("code", CODES, ids=lambda c: c.hex())
    def test_block_matches_step(self, code):
        from tests.test_block_equiv import run_lockstep
        # mov $DATA,%eax ; nop ; the segment move
        prefix = b"\xb8" + DATA.to_bytes(4, "little") + b"\x90"
        _, _, fault = run_lockstep("x86", prefix + code + b"\x90" * 8, 8)
        assert fault is not None and fault[1] == X86Vector.INVALID_OPCODE

    @pytest.mark.parametrize("code", CODES, ids=lambda c: c.hex())
    def test_disassembles_as_bad(self, code):
        from repro.x86.disasm import disassemble
        assert disassemble(code)[1] == "(bad)"
