"""AT&T-style disassembler for the P4-like core.

Produces output shaped like the paper's figures::

    c013ec65: 8d 65 f4    lea  -0xc(%ebp),%esp
    c013ec68: 5b          pop  %ebx

Each row of :mod:`repro.x86.isa` carries its syntax; this module only
fills in the operands.  Used by crash dumps, the case-study examples,
and round-trip tests against the assembler.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.isa.bits import to_signed
from repro.x86 import decoder
from repro.x86.insn import Instr
from repro.x86.isa import GPR_OPERANDS, MEMORY, NUMBER, WIDTH, op_of
from repro.x86.registers import (
    GPR8_NAMES, GPR16_NAMES, GPR_NAMES, SEGMENT_NAMES, SEG_DS,
)

def _reg_name(reg: int, width: int) -> str:
    if width == 1:
        return "%" + GPR8_NAMES[reg]
    if width == 2:
        return "%" + GPR16_NAMES[reg]
    return "%" + GPR_NAMES[reg]


def _hex(value: int) -> str:
    return f"0x{value & 0xFFFFFFFF:x}"


def _disp_str(disp: int) -> str:
    signed = to_signed(disp, 32)
    if signed == 0:
        return ""
    if signed < 0:
        if -signed > 0x00800000:
            # large "negative" displacements are kernel addresses;
            # render unsigned like objdump (0xc0437ae0(%edx))
            return f"0x{disp & 0xFFFFFFFF:x}"
        return f"-0x{-signed:x}"
    return f"0x{signed:x}"


def _mem_str(i: Instr) -> str:
    prefix = ""
    if i.seg != SEG_DS:
        prefix = f"%{SEGMENT_NAMES[i.seg]}:"
    parts = ""
    if i.base >= 0 or i.index >= 0:
        base = "%" + GPR_NAMES[i.base] if i.base >= 0 else ""
        if i.index >= 0:
            parts = f"({base},%{GPR_NAMES[i.index]},{i.scale})"
        else:
            parts = f"({base})"
        return f"{prefix}{_disp_str(i.disp)}{parts}"
    return f"{prefix}{_hex(i.disp)}"


class _Fields(dict):
    """The operand texts of one instruction, formatted on demand."""

    def __init__(self, i: Instr, addr: int) -> None:
        super().__init__()
        self.i = i
        self.addr = addr

    def __missing__(self, key: str) -> str:
        i = self.i
        if key in GPR_OPERANDS:
            if key in MEMORY and i.rm_reg < 0:
                return _mem_str(i)
            return _reg_name(NUMBER[key](i), WIDTH[key](i))
        return str(_FIELDS[key](i, self.addr))


_FIELDS = {
    "name": lambda i, a: i.mnemonic,
    "op": lambda i, a: op_of(i).names[i.op2],
    "suffix": lambda i, a: {4: "l", 2: "w"}.get(i.width, "b"),
    "imm": lambda i, a: f"${_hex(i.imm)}",
    "target": lambda i, a: _hex(a + i.length + i.imm),
    "mem": lambda i, a: _mem_str(i),
    "moffs": lambda i, a: _hex(i.disp),
    "sreg": lambda i, a: SEGMENT_NAMES[i.reg],
    "regno": lambda i, a: i.reg,
    "gprm": lambda i, a: "%" + GPR_NAMES[i.rm_reg],
}


def format_instr(i: Instr, addr: int = 0) -> str:
    """Render a decoded instruction in AT&T syntax, from its table
    row's syntax column."""
    return op_of(i).syntax(i).format_map(_Fields(i, addr))


def disassemble(raw: bytes, addr: int = 0) -> Tuple[Instr, str]:
    """Decode one instruction from *raw* and return (instr, text)."""
    padded = raw + b"\x00" * decoder.MAX_INSN_LEN
    instr = decoder.decode(padded, addr)
    return instr, format_instr(instr, addr)


def disassemble_range(raw: bytes, addr: int, count: int = 16
                      ) -> List[str]:
    """Disassemble up to *count* instructions, paper-figure style."""
    lines: List[str] = []
    pos = 0
    for _ in range(count):
        if pos >= len(raw):
            break
        instr, text = disassemble(raw[pos:pos + decoder.MAX_INSN_LEN],
                                  addr + pos)
        hexbytes = " ".join(f"{b:02x}"
                            for b in raw[pos:pos + instr.length])
        lines.append(f"{addr + pos:08x}: {hexbytes:<24} {text}")
        pos += instr.length
    return lines
