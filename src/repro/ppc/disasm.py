"""PowerPC disassembler producing paper-figure-style listings::

    c008d798: 81 7f 00 28   lwz r11,40(r31)
    c008d79c: 2c 0b 00 00   cmpwi r11,0

Each row of :mod:`repro.ppc.isa` carries its syntax (and aliases such
as ``li``/``mr``/``blr``); this module only fills in the operands.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.isa.bits import to_signed
from repro.ppc import decoder
from repro.ppc.insn import PPCInstr
from repro.ppc.isa import op_of


def _bc_name(bo: int, bi: int) -> str:
    if bo & 0x10:
        return "bc"
    cond = ("lt", "gt", "eq", "so")[bi & 3]
    crf = bi >> 2
    prefix = "b" if bo & 0x8 else "bn"
    suffix = f" cr{crf}," if crf else ""
    return f"{prefix}{cond}{suffix}".rstrip(",")


def format_instr(i: PPCInstr, addr: int = 0) -> str:
    op = op_of(i)
    syntax = next((text for applies, text in op.aliases if applies(i)),
                  op.asm)
    target = i.imm if i.op2 & 2 else (addr + i.imm) & 0xFFFFFFFF
    return syntax.format(
        name=i.mnemonic, rt=f"r{i.rt}", ra=f"r{i.ra}", rb=f"r{i.rb}",
        si=to_signed(i.imm), ui=i.imm, d=f"{to_signed(i.imm)}(r{i.ra})",
        sh=i.rb, mb=i.imm, me=i.op2, to=i.rt, spr=i.imm, bo=i.rt, bi=i.ra,
        target=f"{target:#x}", cond=_bc_name(i.rt, i.ra), word=i.word)


def disassemble_word(word: int, addr: int = 0) -> Tuple[PPCInstr, str]:
    instr = decoder.decode(word, addr)
    return instr, format_instr(instr, addr)


def disassemble_range(raw: bytes, addr: int, count: int = 16) -> List[str]:
    lines: List[str] = []
    for index in range(min(count, len(raw) // 4)):
        word = int.from_bytes(raw[index * 4:index * 4 + 4], "big")
        _, text = disassemble_word(word, addr + index * 4)
        hexbytes = " ".join(f"{b:02x}"
                            for b in raw[index * 4:index * 4 + 4])
        lines.append(f"{addr + index * 4:08x}: {hexbytes}   {text}")
    return lines
