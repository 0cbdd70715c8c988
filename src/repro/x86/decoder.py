"""IA-32 subset decoder for the P4-like core, derived from
:mod:`repro.x86.isa`.

Decoding is table-driven over the *first byte* exactly as real hardware
is: when a bit flip lands in an instruction, the bytes that follow are
re-interpreted from scratch, instruction lengths change, and the stream
re-synchronizes into a different sequence of mostly valid instructions
(the paper's Figure 14 mechanism).  Undefined encodings decode to an
instruction whose execution raises #UD, so the disassembler can still
render them as ``(bad)``.

The subset covers what the ``kcc`` x86 backend emits plus the
instructions that matter when corrupted code is executed (``bound``,
``int``, ``iret``, ``hlt``, string ops, segment moves, ...).  Roughly
65% of one-byte opcode space decodes to something valid, comparable to
real IA-32 density, which is what gives the P4 its low
Invalid-Instruction crash share in code campaigns (24% in the paper
versus 41% on the G4).

The opcode maps (one-byte, ``0x0F`` and ``rep``) are built from the
table rows' encodings; the step executor of each row is re-exported
here as ``exec_<op>``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.bits import sign_extend
from repro.x86.insn import Instr
from repro.x86.isa import FORMS, OPS, TABLE, Op
from repro.x86.registers import (
    SEG_CS, SEG_DS, SEG_ES, SEG_FS, SEG_GS, SEG_SS,
)

MAX_INSN_LEN = 12

# ---------------------------------------------------------------------------
# helpers


def _le16(buf: bytes, pos: int) -> int:
    return buf[pos] | (buf[pos + 1] << 8)


def _le32(buf: bytes, pos: int) -> int:
    return (buf[pos] | (buf[pos + 1] << 8) | (buf[pos + 2] << 16)
            | (buf[pos + 3] << 24))


class _ModRM:
    __slots__ = ("reg", "rm_reg", "base", "index", "scale", "disp", "length")

    def __init__(self) -> None:
        self.reg = 0
        self.rm_reg = -1
        self.base = -1
        self.index = -1
        self.scale = 1
        self.disp = 0
        self.length = 0


def _parse_modrm(buf: bytes, pos: int) -> _ModRM:
    """Parse a ModRM (+ optional SIB + displacement) at *pos*."""
    out = _ModRM()
    start = pos
    modrm = buf[pos]
    pos += 1
    mod = modrm >> 6
    out.reg = (modrm >> 3) & 7
    rm = modrm & 7
    if mod == 3:
        out.rm_reg = rm
    else:
        force_disp32 = False
        if rm == 4:
            sib = buf[pos]
            pos += 1
            out.scale = 1 << (sib >> 6)
            index = (sib >> 3) & 7
            base = sib & 7
            if index != 4:
                out.index = index
            if base == 5 and mod == 0:
                force_disp32 = True
            else:
                out.base = base
        elif rm == 5 and mod == 0:
            force_disp32 = True
        else:
            out.base = rm
        if mod == 1:
            out.disp = sign_extend(buf[pos], 8)
            pos += 1
        elif mod == 2 or force_disp32:
            out.disp = _le32(buf, pos)
            pos += 4
    out.length = pos - start
    return out


def _immediate(buf: bytes, pos: int, kind: Optional[str], width: int,
               digit: int):
    """(value, size) of an immediate of *kind* at *pos*."""
    if kind == "grp3":
        kind = "z" if digit < 2 else None
    if kind == "z":
        kind = {1: "b", 2: "w"}.get(width, "d")
    if kind is None:
        return 0, 0
    if kind == "b":
        return buf[pos], 1
    if kind == "bs":
        return sign_extend(buf[pos], 8), 1
    if kind == "w":
        return _le16(buf, pos), 2
    return _le32(buf, pos), 4


# ---------------------------------------------------------------------------
# the opcode maps

exec_invalid = OPS["invalid"].execute


def _bad(pos_end: int, mnemonic: str = "(bad)") -> Instr:
    return Instr(mnemonic, max(pos_end, 1), 1, exec_invalid)


class _Entry:
    """The decode of one opcode of a row; ``pos`` is just past the
    opcode byte(s)."""

    __slots__ = ("execute", "modrm", "imm", "reg", "keep_seg", "moffs",
                 "cycles", "digits", "sized", "width", "op2s", "names")

    def __init__(self, op: Op, code: int, form: str) -> None:
        self.execute = op.execute
        self.modrm, self.imm, reg_from, self.keep_seg = FORMS[form]
        self.moffs = form == "moffs"           # a 32-bit address
        self.reg = code & 7 if reg_from == "low3" else \
            (code >> 3) & 7 if reg_from == "sreg" else 0
        self.cycles = op.cycles if isinstance(op.cycles, int) \
            else op.cycles.get(code, 1)
        self.digits = op.digits.get(code)
        rule = op.width
        #: the operand size decides the width, else it is ``width``
        self.sized = rule == "w" or (
            isinstance(rule, str) and bool(code & (8 if rule == "bw3" else 1)))
        self.width = rule if isinstance(rule, int) else 1
        #: op2 and mnemonic by ModRM digit
        self.op2s = tuple(op.op2(code, d) if callable(op.op2) else op.op2
                          for d in range(8))
        self.names = tuple(op.mnemonic(code, op2) if callable(op.mnemonic)
                           else str(op.mnemonic) for op2 in self.op2s)

    def build(self, buf: bytes, pos: int, width: int, seg: int) -> Instr:
        w = width if self.sized else self.width
        if not self.modrm:
            disp = 0
            if self.moffs:
                disp = _le32(buf, pos)
                pos += 4
            imm, size = _immediate(buf, pos, self.imm, w, 0)
            return Instr(self.names[0], pos + size, self.cycles, self.execute,
                         reg=self.reg, disp=disp, imm=imm, width=w,
                         seg=seg if self.keep_seg else SEG_DS,
                         op2=self.op2s[0])
        digit = (buf[pos] >> 3) & 7
        if self.digits is not None and digit not in self.digits:
            return _bad(pos + 1)
        m = _parse_modrm(buf, pos)
        imm, size = _immediate(buf, pos + m.length, self.imm, w, digit)
        return Instr(self.names[digit], pos + m.length + size,
                     self.cycles + (2 if m.rm_reg < 0 else 0), self.execute,
                     reg=m.reg, rm_reg=m.rm_reg, base=m.base, index=m.index,
                     scale=m.scale, disp=m.disp, imm=imm, width=w, seg=seg,
                     op2=self.op2s[digit])


def _maps() -> List[Dict[int, _Entry]]:
    """The one-byte, ``0x0F`` and ``rep`` maps, by the byte that
    selects the entry."""
    maps: List[Dict[int, _Entry]] = [{}, {}, {}]
    for op in TABLE:
        for code, form in op.enc.items():
            table = maps[{0: 0, 0x0F: 1, 0xF3: 2}[code >> 8]]
            assert code & 0xFF not in table, f"{code:#x} decoded twice"
            table[code & 0xFF] = _Entry(op, code, form)
    return maps


_ONE_BYTE, _TWO_BYTE, _REP = _maps()

for _op in TABLE:
    globals()[f"exec_{_op.name}"] = _op.execute


# ---------------------------------------------------------------------------
# the decoder


def decode(buf: bytes, addr: int = 0) -> Instr:
    """Decode one instruction from *buf* (>= MAX_INSN_LEN bytes).

    Never raises: undefined encodings produce an Instr that faults with
    #UD when executed, matching hardware behaviour.
    """
    pos = 0
    width = 4
    seg = SEG_DS
    # prefixes (at most 4 considered; more makes the insn undefined)
    for _ in range(4):
        byte = buf[pos]
        if byte == 0x66:
            width = 2
            pos += 1
        elif byte == 0x64:
            seg = SEG_FS
            pos += 1
        elif byte == 0x65:
            seg = SEG_GS
            pos += 1
        elif byte == 0x2E:
            seg = SEG_CS
            pos += 1
        elif byte == 0x36:
            seg = SEG_SS
            pos += 1
        elif byte == 0x3E:
            seg = SEG_DS
            pos += 1
        elif byte == 0x26:
            seg = SEG_ES
            pos += 1
        elif byte == 0xF0:          # lock: accepted and ignored
            pos += 1
        elif byte == 0xF2 or byte == 0xF3:
            entry = _REP.get(buf[pos + 1])
            if entry is None:
                return _bad(pos + 2)
            return entry.build(buf, pos + 2, width, seg)
        else:
            break
    opcode = buf[pos]
    if opcode == 0x0F:
        opcode = buf[pos + 1]
        entry = _TWO_BYTE.get(opcode)
        if entry is None:
            return _bad(pos + 2, f"(bad 0f {opcode:#04x})")
        return entry.build(buf, pos + 2, width, seg)
    entry = _ONE_BYTE.get(opcode)
    if entry is None:
        return _bad(pos + 1, f"(bad {opcode:#04x})")
    return entry.build(buf, pos + 1, width, seg)
