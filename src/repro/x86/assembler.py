"""Structured IA-32 assembler used by the ``kcc`` x86 backend.

This is a builder API, not a text assembler: the compiler backend calls
methods like :meth:`X86Assembler.mov_r_rm` and the encoder produces the
same byte sequences GCC 3.2 emits for the paper's examples (``8d 65 f4
lea -0xc(%ebp),%esp``; ``5b pop %ebx``; ...).  Code, labels,
instruction offsets and relocations live in the shared core
(:mod:`repro.isa.assembler`): a jump to a label is a ``rel32`` fixup
resolved by ``finish()``, a call or address of a symbol a ``rel32`` or
``abs32`` relocation resolved by the linker.

Every byte comes from the instruction table (:mod:`repro.x86.isa`):
each builder names a row, its op2 (ALU, condition and group numbers
are positions in the table's name tuples) and a width, and
:func:`repro.x86.decoder.encode` supplies the opcode, the ModRM digit
and the immediate size.  This module adds only the prefixes and
ModRM/SIB addressing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.assembler import Assembler
from repro.isa.bits import to_unsigned
from repro.x86.decoder import encode
from repro.x86.isa import (
    ALU_NAMES, COND_NAMES, GRP2, GRP2_CL, GRP2_ONE, GRP3, GRP5,
)
from repro.x86.registers import SEG_DS, SEG_FS, SEG_GS

_SEG_PREFIX = {SEG_FS: 0x64, SEG_GS: 0x65}


@dataclass(frozen=True)
class Mem:
    """A memory operand: ``disp(base, index, scale)``."""

    base: int = -1
    index: int = -1
    scale: int = 1
    disp: int = 0
    seg: int = SEG_DS


def _fits8(imm: int) -> bool:
    """True when *imm* (taken as 32 bits) fits a sign-extended byte."""
    imm &= 0xFFFFFFFF
    signed = imm - (1 << 32) if imm & 0x80000000 else imm
    return -128 <= signed <= 127


class X86Assembler(Assembler):
    """Encodes IA-32 instructions into the shared assembler core."""

    # -- plumbing ---------------------------------------------------------

    def emit(self, *values: int) -> None:
        self.code.extend(values)

    def emit32(self, value: int) -> None:
        self.code.extend(to_unsigned(value).to_bytes(4, "little"))

    def _modrm(self, reg: int, rm: "int | Mem") -> None:
        """Emit ModRM (+SIB +disp) addressing *rm* with /reg field *reg*."""
        if isinstance(rm, int):
            self.emit(0xC0 | (reg << 3) | rm)
            return
        mem = rm
        if mem.base < 0 and mem.index < 0:
            # absolute: mod=00 rm=101 disp32
            self.emit((reg << 3) | 5)
            self.emit32(mem.disp)
            return
        disp = mem.disp & 0xFFFFFFFF
        signed = disp - (1 << 32) if disp & 0x80000000 else disp
        if mem.base < 0:
            # index without base: SIB with base=101, mod=00, disp32
            self.emit((reg << 3) | 4)
            scale = {1: 0, 2: 1, 4: 2, 8: 3}[mem.scale]
            self.emit((scale << 6) | (mem.index << 3) | 5)
            self.emit32(disp)
            return
        if disp == 0 and mem.base != 5:
            mod = 0
        elif -128 <= signed <= 127:
            mod = 1
        else:
            mod = 2
        if mem.index >= 0 or mem.base == 4:
            self.emit((mod << 6) | (reg << 3) | 4)
            index = mem.index if mem.index >= 0 else 4
            scale = {1: 0, 2: 1, 4: 2, 8: 3}[mem.scale]
            self.emit((scale << 6) | (index << 3) | mem.base)
        else:
            self.emit((mod << 6) | (reg << 3) | mem.base)
        if mod == 1:
            self.emit(signed & 0xFF)
        elif mod == 2:
            self.emit32(disp)

    def _op(self, name: str, op2: int = 0, width: int = 4, reg: int = 0,
            rm: "int | Mem" = 0, imm: int = 0,
            form: Optional[str] = None) -> None:
        """Emit one instruction of table row *name* (see
        :func:`repro.x86.decoder.encode`): prefixes, opcode, ModRM with
        *reg* or the row's digit, immediate."""
        opcode, digit, modrm, low3, size = encode(name, op2, width, form)
        code = self.code
        self.insn_offsets.append(len(code))
        if isinstance(rm, Mem) and rm.seg in _SEG_PREFIX:
            code.append(_SEG_PREFIX[rm.seg])
        if width == 2:
            code.append(0x66)
        if opcode >> 8:
            code.append(opcode >> 8)
        code.append(opcode & 0xFF | (reg if low3 else 0))
        if modrm:
            self._modrm(reg if digit is None else digit, rm)
        if size:
            code += (imm & ((1 << 8 * size) - 1)).to_bytes(size, "little")

    # -- data movement ------------------------------------------------------

    def mov_r_imm(self, reg: int, imm: int) -> None:
        self._op("mov_r_imm", reg=reg, imm=imm)

    def mov_r_imm_sym(self, reg: int, symbol: str) -> None:
        """mov reg, &symbol — resolved at link time."""
        self._op("mov_r_imm", reg=reg)
        self._reloc(symbol, "abs32")

    def mov_r_rm(self, reg: int, rm: "int | Mem", width: int = 4) -> None:
        self._op("mov_r_rm", 0, width, reg, rm)

    def mov_rm_r(self, rm: "int | Mem", reg: int, width: int = 4) -> None:
        self._op("mov_rm_r", 0, width, reg, rm)

    def mov_rm_imm(self, rm: "int | Mem", imm: int, width: int = 4) -> None:
        self._op("mov_rm_imm", 0, width, rm=rm, imm=imm)

    def movzx(self, reg: int, rm: "int | Mem", src_width: int) -> None:
        self._op("movzx", src_width, reg=reg, rm=rm)

    def movsx(self, reg: int, rm: "int | Mem", src_width: int) -> None:
        self._op("movsx", src_width, reg=reg, rm=rm)

    def lea(self, reg: int, mem: Mem) -> None:
        self._op("lea", reg=reg, rm=mem)

    def xchg_r_rm(self, reg: int, rm: "int | Mem") -> None:
        self._op("xchg_r_rm", reg=reg, rm=rm)

    # -- ALU -----------------------------------------------------------------

    def alu_r_rm(self, op: str, reg: int, rm: "int | Mem",
                 width: int = 4) -> None:
        self._op("alu_r_rm", ALU_NAMES.index(op), width, reg, rm)

    def alu_rm_r(self, op: str, rm: "int | Mem", reg: int,
                 width: int = 4) -> None:
        self._op("alu_rm_r", ALU_NAMES.index(op), width, reg, rm)

    def alu_rm_imm(self, op: str, rm: "int | Mem", imm: int,
                   width: int = 4) -> None:
        self._op("grp1_rm_imm", ALU_NAMES.index(op), width, rm=rm, imm=imm,
                 form="rm,imm8s" if width != 1 and _fits8(imm) else None)

    def test_rm_r(self, rm: "int | Mem", reg: int, width: int = 4) -> None:
        self._op("test_rm_r", 0, width, reg, rm)

    def imul_r_rm(self, reg: int, rm: "int | Mem") -> None:
        self._op("imul_r_rm", reg=reg, rm=rm)

    def imul_r_rm_imm(self, reg: int, rm: "int | Mem", imm: int) -> None:
        self._op("imul_rmi", reg=reg, rm=rm, imm=imm)

    def div_rm(self, rm: "int | Mem") -> None:
        self._op("grp3", GRP3.index("div"), rm=rm)

    def idiv_rm(self, rm: "int | Mem") -> None:
        self._op("grp3", GRP3.index("idiv"), rm=rm)

    def neg_rm(self, rm: "int | Mem") -> None:
        self._op("grp3", GRP3.index("neg"), rm=rm)

    def not_rm(self, rm: "int | Mem") -> None:
        self._op("grp3", GRP3.index("not"), rm=rm)

    def shift_rm_imm(self, op: str, rm: "int | Mem", count: int) -> None:
        self._op("grp2", GRP2.index(op) | (GRP2_ONE if count == 1 else 0),
                 rm=rm, imm=count & 0x1F)

    def shift_rm_cl(self, op: str, rm: "int | Mem") -> None:
        self._op("grp2", GRP2.index(op) | GRP2_CL, rm=rm)

    def inc_r(self, reg: int) -> None:
        self._op("inc_r", reg=reg)

    def dec_r(self, reg: int) -> None:
        self._op("dec_r", reg=reg)

    def cdq(self) -> None:
        self._op("cdq")

    # -- stack ---------------------------------------------------------------

    def push_r(self, reg: int) -> None:
        self._op("push_r", reg=reg)

    def pop_r(self, reg: int) -> None:
        self._op("pop_r", reg=reg)

    def push_imm(self, imm: int) -> None:
        self._op("push_imm", imm=imm, form="imm8s" if _fits8(imm) else None)

    def push_rm(self, rm: "int | Mem") -> None:
        self._op("grp5", GRP5.index("push"), rm=rm)

    # -- control flow ---------------------------------------------------------

    def call_sym(self, symbol: str) -> None:
        self._op("call_rel")
        self._reloc(symbol, "rel32")

    def call_rm(self, rm: "int | Mem") -> None:
        self._op("grp5", GRP5.index("call"), rm=rm)

    def jmp_label(self, label: str) -> None:
        self._op("jmp_rel", form="rel32")
        self._fixup(label, "rel32")

    def jcc_label(self, cond: str, label: str) -> None:
        self._op("jcc", COND_NAMES.index(cond), form="rel32")
        self._fixup(label, "rel32")

    def ret(self) -> None:
        self._op("ret", form="none")

    def nop(self) -> None:
        self._op("nop")

    def ud2a(self) -> None:
        self._op("ud2")

    def int_n(self, vector: int) -> None:
        self._op("int", imm=vector)

    def hlt(self) -> None:
        self._op("hlt")
