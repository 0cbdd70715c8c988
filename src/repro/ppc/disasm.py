"""PowerPC disassembler producing paper-figure-style listings::

    c008d798: 81 7f 00 28   lwz r11,40(r31)
    c008d79c: 2c 0b 00 00   cmpwi r11,0

Each row of :mod:`repro.ppc.isa` carries its syntax (and aliases such
as ``li``/``mr``/``blr``); this module only fills in the operands, each
syntax name from the fields :data:`repro.ppc.isa.SYNTAX` gives it.  A
compare's CR field and a branch's LK bit show only when set
(``cmpwi cr7,r11,5``, ``bctrl``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.isa.bits import to_signed
from repro.ppc import decoder
from repro.ppc.insn import PPCInstr
from repro.ppc.isa import SYNTAX, op_of


def _cond(bo: int, bi: int) -> str:
    if bo & 0x10:
        return "bc"
    taken = ("lt", "gt", "eq", "so") if bo & 0x8 else ("ge", "le", "ne", "ns")
    return "b" + taken[bi & 3]


#: syntax name -> its text, from the values of its fields (the
#: :data:`repro.ppc.isa.SYNTAX` table); ``target`` depends on the
#: address and is formatted in :func:`format_instr`
_TEXT: Dict[str, Callable[..., object]] = {
    "rt": "r{}".format, "ra": "r{}".format, "rb": "r{}".format,
    "si": to_signed, "ui": int, "mb": int, "spr": int, "sh": int,
    "me": int, "to": int, "bo": int, "bi": int,
    "d": lambda imm, ra: f"{to_signed(imm)}(r{ra})",
    "cond": _cond,
    "crb": lambda bo, bi: f"cr{bi >> 2}," if bi >> 2 and not bo & 0x10
    else "",
    "crf": lambda crf: f"cr{crf}," if crf else "",
    "lk": lambda op2: "l" if op2 & 1 else "",
}


def format_instr(i: PPCInstr, addr: int = 0) -> str:
    op = op_of(i)
    syntax = next((text for applies, text in op.aliases if applies(i)),
                  op.asm)
    target = i.imm if i.op2 & 2 else (addr + i.imm) & 0xFFFFFFFF
    return syntax.format(
        name=i.mnemonic, target=f"{target:#x}", word=i.word,
        **{name: text(*[getattr(i, field) for field in SYNTAX[name]])
           for name, text in _TEXT.items()})


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
