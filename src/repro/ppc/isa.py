"""The PowerPC instruction table: every opcode described once.

Each instruction of the G4 core is one :class:`Op` row: its encoding
(primary and extended opcode, operand form), mnemonic, cycle cost,
disassembly syntax and a *body* — a few lines of Python-syntax
semantics over named operands.  Every view is derived from the rows:

* :func:`decode` and :func:`encode` — the decode tables, the
  :class:`PPCInstr` fields, and the assembler's opcode numbers;
* the step executors, the block lowering (:mod:`repro.compile.emit`)
  and the effect summaries (:mod:`repro.static.effects`), from the
  bodies, through the body language of :mod:`repro.isa.table`;
* the disassembly text (:mod:`repro.ppc.disasm`) and the assembler's
  row emitters (:mod:`repro.ppc.assembler`), from each row's syntax
  template through :data:`SYNTAX`.

The body vocabulary is :data:`LANG`: the register operands
(:data:`OPERANDS`: ``rt``/``ra``/``rb`` the GPRs the fields name,
``ra0`` for ``(ra|0)``, ``gpr[n]`` a GPR by number, ``xer``, ``lr``,
``ctr``, ``cr`` the whole CR, ``crbit`` CR bit BI, ``crf``/``cr0`` CR
field op2 / field 0 (written), ``spr`` the named SPR the spr field
selects), the static operands (:data:`STATIC`), the helpers
(:data:`HELPERS`) and :data:`CONSTS`; ``signed(x)`` reads a 32-bit
value as two's complement; ``cycles += n`` charges extra cycles.

The subset defines 25 of the 64 primary opcodes and a few dozen
extended ones; every other word decodes to ``(illegal)`` and raises a
Program exception — the sparse encoding space behind the G4's 41%
Illegal-Instruction share of code crashes.  ``divw`` by zero yields
zero (the PowerPC has no divide-error exception, hence no Divide Error
row in Table 4); ``lmw``/``stmw`` raise Alignment on unaligned operands;
``twi``/``tw`` implement the kernel's BUG() trap.
"""

from __future__ import annotations

import re
import textwrap
from typing import Callable, Dict, Optional, Sequence, Tuple, cast

from repro.isa.bits import MASK32, sign_extend
from repro.isa.table import PARSED, Helper, Language, Operand, Row
from repro.ppc.exceptions import PPCVector, ProgramReason
from repro.ppc.insn import PPCInstr
from repro.ppc.registers import (
    CR_EQ, CR_GT, CR_LT, NAMED_SPRS, SPR_CTR, SPR_LR, SPR_SRR0, SPR_SRR1,
)

#: decoded operand fields, in :class:`PPCInstr` order
Fields = Tuple[int, int, int, int, int]          # rt, ra, rb, imm, op2
Decoder = Callable[[int], Fields]
Encoder = Callable[[int, int, int, int, int], int]

GPRS: Tuple[str, ...] = tuple(f"r{n}" for n in range(32))
CRS: Tuple[str, ...] = tuple(f"cr{n}" for n in range(8))


def _swap_spr(value: int) -> int:
    """The spr field stores the SPR number's 5-bit halves swapped."""
    return ((value & 0x1F) << 5) | ((value >> 5) & 0x1F)


def rlw_mask(mb: int, me: int) -> int:
    """The rlwinm mask: ones from bit ``mb`` to bit ``me`` (wrapping)."""
    if mb <= me:
        return ((1 << (me - mb + 1)) - 1) << (31 - me)
    return MASK32 ^ (((1 << (mb - me - 1)) - 1) << (31 - mb + 1))


#: operand form -> (word -> fields, fields -> operand bits of the word)
FORMS: Dict[str, Tuple[Decoder, Encoder]] = {
    "D": (lambda w: (w >> 21 & 31, w >> 16 & 31, 0, sign_extend(w, 16), 0),
          lambda rt, ra, rb, imm, op2: rt << 21 | ra << 16 | imm & 0xFFFF),
    "DU": (lambda w: (w >> 21 & 31, w >> 16 & 31, 0, w & 0xFFFF, 0),
           lambda rt, ra, rb, imm, op2: rt << 21 | ra << 16 | imm & 0xFFFF),
    "CMPI": (lambda w: (0, w >> 16 & 31, 0, sign_extend(w, 16), w >> 23 & 7),
             lambda rt, ra, rb, imm, op2: op2 << 23 | ra << 16 | imm & 0xFFFF),
    "CMPLI": (lambda w: (0, w >> 16 & 31, 0, w & 0xFFFF, w >> 23 & 7),
              lambda rt, ra, rb, imm, op2: op2 << 23 | ra << 16 | imm & 0xFFFF),
    "M": (lambda w: (w >> 21 & 31, w >> 16 & 31, w >> 11 & 31, w >> 6 & 31,
                     w >> 1 & 31),
          lambda rt, ra, rb, imm, op2:
          rt << 21 | ra << 16 | rb << 11 | (imm & 31) << 6 | (op2 & 31) << 1),
    "B": (lambda w: (0, 0, 0, sign_extend(w & 0x03FFFFFC, 26), w & 3),
          lambda rt, ra, rb, imm, op2: imm & 0x03FFFFFC | op2 & 3),
    "BC": (lambda w: (w >> 21 & 31, w >> 16 & 31, 0,
                      sign_extend(w & 0xFFFC, 16), w & 3),
           lambda rt, ra, rb, imm, op2:
           rt << 21 | ra << 16 | imm & 0xFFFC | op2 & 3),
    "XL": (lambda w: (w >> 21 & 31, w >> 16 & 31, 0, 0, w & 1),
           lambda rt, ra, rb, imm, op2: rt << 21 | ra << 16 | op2 & 1),
    "X": (lambda w: (w >> 21 & 31, w >> 16 & 31, w >> 11 & 31, 0, 0),
          lambda rt, ra, rb, imm, op2: rt << 21 | ra << 16 | rb << 11),
    "XCMP": (lambda w: (0, w >> 16 & 31, w >> 11 & 31, 0, w >> 23 & 7),
             lambda rt, ra, rb, imm, op2: op2 << 23 | ra << 16 | rb << 11),
    "XFX": (lambda w: (w >> 21 & 31, 0, 0, _swap_spr(w >> 11 & 0x3FF), 0),
            lambda rt, ra, rb, imm, op2: rt << 21 | _swap_spr(imm) << 11),
    "NONE": (lambda w: (0, 0, 0, 0, 0), lambda rt, ra, rb, imm, op2: 0),
    "SC": (lambda w: (0, 0, 0, 0, 0), lambda rt, ra, rb, imm, op2: 2),
}

_REG = range(32)
_S16 = range(-0x8000, 0x10000)      # signed or unsigned: li -1, lis 0xc010
_U16 = range(0x10000)

#: operand form -> the values each field it encodes may hold (field
#: order rt, ra, rb, imm, op2; a field the form does not encode must
#: be 0), so that :func:`encode` never truncates one
ENCODABLE: Dict[str, Tuple[range, ...]] = {
    "D": (_REG, _REG, range(1), _S16, range(1)),
    "DU": (_REG, _REG, range(1), _U16, range(1)),
    "CMPI": (range(1), _REG, range(1), _S16, range(8)),
    "CMPLI": (range(1), _REG, range(1), _U16, range(8)),
    "M": (_REG, _REG, _REG, _REG, _REG),
    "B": (range(1), range(1), range(1), range(-1 << 25, 1 << 25, 4),
          range(4)),
    "BC": (_REG, _REG, range(1), range(-1 << 15, 1 << 15, 4), range(4)),
    "XL": (_REG, _REG, range(1), range(1), range(2)),
    "X": (_REG, _REG, _REG, range(1), range(1)),
    "XCMP": (range(1), _REG, _REG, range(1), range(8)),
    "XFX": (_REG, range(1), range(1), range(1024), range(1)),
    "NONE": (range(1),) * 5,
    "SC": (range(1),) * 5,
}

# -- body vocabulary ---------------------------------------------------------


def _gpr(field: str) -> Operand:
    return Operand(f"gpr[i.{field}]", f"gpr[i.{field}] = V",
                   f"(GPRS[i.{field}],)")


#: write-only CR fields: name -> field number as an expression over ``i``
FIELDS: Dict[str, str] = {"crf": "i.op2", "cr0": "0"}

#: register operands (see the module docstring)
OPERANDS: Dict[str, Operand] = {
    "rt": _gpr("rt"), "ra": _gpr("ra"), "rb": _gpr("rb"),
    "ra0": Operand("(gpr[i.ra] if i.ra else 0)",
                   resources="(GPRS[i.ra],) if i.ra else ()"),
    "xer": Operand("cpu.xer", "cpu.xer = V", '("xer",)'),
    "lr": Operand("cpu.lr", "cpu.lr = V", '("lr",)'),
    "ctr": Operand("cpu.ctr", "cpu.ctr = V", '("ctr",)'),
    "cr": Operand("cpu.cr", resources="CRS"),
    "crbit": Operand("(cpu.cr >> (31 - i.ra) & 1)",
                     resources="(CRS[i.ra >> 2],)"),
    "spr": Operand("getattr(cpu, NAMED_SPRS[i.imm])",
                   "setattr(cpu, NAMED_SPRS[i.imm], V)",
                   "(NAMED_SPRS[i.imm],)"),
    **{name: Operand("", f"cpu.cr = cpu.cr & ~(15 << (28 - 4 * {field})) "
                         f"| (V) << (28 - 4 * {field})", f"(CRS[{field}],)")
       for name, field in FIELDS.items()},
}

#: static operands: name -> value as an expression over the decoded
#: ``i``, its address ``cia`` and the next address ``nia``
STATIC: Dict[str, str] = {
    "imm": "i.imm",
    "himm": "i.imm << 16",
    "sh": "i.rb",
    "mask": "rlw_mask(i.imm, i.op2)",
    "to": "i.rt",
    "sprn": "i.imm",
    "named": "i.imm in NAMED_SPRS",
    "upper": "range(i.rt, 32)",
    "lk": "i.op2 & 1",
    "target": "i.imm if i.op2 & 2 else (cia + i.imm) & 4294967295",
    "bo_ctr": "not i.rt & 4",
    "bo_zero": "i.rt & 2",
    "bo_cr": "not i.rt & 16",
    "bo_true": "i.rt >> 3 & 1",
    "cia": "cia",
    "nia": "nia",
}

HELPERS: Dict[str, Helper] = {
    "load": Helper("cpu.load(_0, _1)", "reads_mem may_fault"),
    "store": Helper("cpu.store(_0, _1, _2)", "writes_mem may_fault"),
    "branch": Helper("cpu.branch(_0)"),
    "fault": Helper("cpu.fault(_0, _1, _2)", "may_fault"),
    "trap": Helper("cpu.fault(PROGRAM, None, _0, program_reason=TRAP)",
                   "may_fault"),
    "illegal": Helper("cpu.fault(PROGRAM, None, "
                      "f'illegal encoding {i.word:#010x}', "
                      "program_reason=ILLEGAL)", "may_fault"),
    "syscall": Helper("cpu.fault(SYSCALL, None, 'sc')", "may_fault system"),
    "check_privileged": Helper("cpu.check_privileged(_0)"),
    "check_supervisor_spr": Helper("cpu.check_supervisor_spr(_0)", "system"),
    "get_spr": Helper("cpu.get_spr(_0)", "system"),
    "set_spr": Helper("cpu.set_spr(_0, _1)", "system"),
    "msr": Helper("cpu.msr", "system"),
    "set_msr": Helper("cpu.set_msr(_0)", "system may_fault"),
}

#: integer constants, inlined into every view
CONSTS: Dict[str, int] = {
    "M": MASK32, "CA": 0x20000000, "LT": CR_LT, "GT": CR_GT, "EQ": CR_EQ,
    "SRR0": SPR_SRR0, "SRR1": SPR_SRR1,
}

LANG = Language(
    "ppc", operands=OPERANDS, static=STATIC, helpers=HELPERS,
    consts=CONSTS, passed={"int": int, "ALIGNMENT": PPCVector.ALIGNMENT},
    ns={"NAMED_SPRS": NAMED_SPRS, "rlw_mask": rlw_mask, "GPRS": GPRS,
        "CRS": CRS, "PROGRAM": PPCVector.PROGRAM,
        "SYSCALL": PPCVector.SYSCALL, "TRAP": ProgramReason.TRAP,
        "ILLEGAL": ProgramReason.ILLEGAL},
    file="gpr", pcs=("current_pc", "pc"), length="4", style=PARSED,
    file_resources="GPRS")


def _expand_body(text: str) -> str:
    """A body's source with ``signed(x)`` spelled as a two's-complement
    read."""
    src = textwrap.dedent(text)
    while "signed(" in src:
        call = re.search(r"signed\((\w+)\)", src)
        assert call is not None, src
        x = call[1]
        src = src.replace(call[0], f"({x} - 4294967296 if {x} & 2147483648 "
                                   f"else {x})")
    return src


# -- the table ---------------------------------------------------------------

Alias = Tuple[Callable[[PPCInstr], bool], str]
KindFn = Callable[[PPCInstr], str]


class Op(Row):
    """One instruction: encoding, syntax, cost and semantics."""

    def __init__(self, name: str, primary: Optional[int], ext: Optional[int],
                 form: str, cycles: int, body: str,
                 asm: str = "{name}", aliases: Sequence[Alias] = (),
                 kind: Optional[KindFn] = None,
                 mnemonics: Optional[Sequence[str]] = None) -> None:
        self.primary = primary
        self.ext = ext
        self.form = form
        self.cycles = cycles
        self.asm = asm
        self.aliases = tuple(aliases)
        self.kind = kind
        #: mnemonic by op2 (the AA/LK bits of ``b``)
        self.mnemonics = tuple(mnemonics) if mnemonics else None
        super().__init__(LANG, name, _expand_body(body))

    def build(self, word: int) -> PPCInstr:
        rt, ra, rb, imm, op2 = FORMS[self.form][0](word)
        mnemonic = self.mnemonics[op2] if self.mnemonics else self.name
        return PPCInstr(mnemonic, self.execute, rt=rt, ra=ra, rb=rb, imm=imm,
                        op2=op2, cycles=self.cycles, word=word)


def _conditional(i: PPCInstr) -> bool:
    return not (i.rt & 4 and i.rt & 16)


# BO decomposition shared by bc and bclr: decrement/test CTR, test CR
_BO = """
        ok = True
        if bo_ctr:
            ctr = (ctr - 1) & M
            ok = ctr == 0 if bo_zero else ctr != 0
        if bo_cr:
            ok = ok and crbit == bo_true"""

_NOP = "cycles += 2"          # barriers and cache ops: timing only

# -- syntax --------------------------------------------------------------

#: syntax name -> the operand fields it shows (``cond`` and ``crb``: the
#: condition and the CR field a ``bc`` tests).  A row's emitter takes
#: the fields in the order its template names them (first mention
#: wins); the disassembler formats each name from the same fields.
SYNTAX: Dict[str, Tuple[str, ...]] = {
    "rt": ("rt",), "ra": ("ra",), "rb": ("rb",),
    "si": ("imm",), "ui": ("imm",), "mb": ("imm",), "spr": ("imm",),
    "target": ("imm",), "sh": ("rb",), "me": ("op2",),
    "to": ("rt",), "bo": ("rt",), "bi": ("ra",), "d": ("imm", "ra"),
    "cond": ("rt", "ra"), "crb": ("rt", "ra"),
    "crf": ("op2",), "lk": ("op2",),
}
#: syntax names an emitter takes as keyword-only arguments that
#: default to 0, and the disassembler shows only when set: the CR field
#: a compare writes and the LK bit of a branch
OPTIONAL = frozenset({"crf", "lk"})

RT_RA_SI = "{name} {rt},{ra},{si}"
RA_RT_UI = "{name} {ra},{rt},{ui}"
RT_RA_RB = "{name} {rt},{ra},{rb}"
RA_RT_RB = "{name} {ra},{rt},{rb}"
MEM = "{name} {rt},{d}"
CMP_RB = "{name} {crf}{ra},{rb}"
BO_BI = "{name}{lk} {bo},{bi}"

ILLEGAL_OP = Op("(illegal)", None, None, "NONE", 1, "illegal()",
                asm=".long {word:#010x}  (illegal)",
                kind=lambda i: "illegal")

TABLE: Tuple[Op, ...] = (
    # -- integer arithmetic ---------------------------------------------
    Op("addi", 14, None, "D", 1, "rt = (ra0 + imm) & M", RT_RA_SI,
       [(lambda i: i.ra == 0, "li {rt},{si}")]),
    Op("addis", 15, None, "D", 1, "rt = (ra0 + himm) & M", RT_RA_SI,
       [(lambda i: i.ra == 0, "lis {rt},{si}")]),
    Op("addic", 12, None, "D", 1, """
        t = ra + imm
        xer = (xer & ~CA) | (CA if t > M else 0)
        rt = t & M""", RT_RA_SI),
    Op("subfic", 8, None, "D", 1, """
        t = ra
        xer = (xer & ~CA) | (CA if t <= (imm & M) else 0)
        rt = (imm - t) & M""", RT_RA_SI),
    Op("mulli", 7, None, "D", 3, """
        rt = (signed(ra) * imm) & M
        cycles += 3""", RT_RA_SI),
    Op("add", 31, 266, "X", 1, "rt = (ra + rb) & M", RT_RA_RB),
    Op("subf", 31, 40, "X", 1, "rt = (rb - ra) & M", RT_RA_RB),
    Op("neg", 31, 104, "X", 1, "rt = (-ra) & M", "{name} {rt},{ra}"),
    Op("adde", 31, 138, "X", 1, """
        t = ra + rb + (1 if xer & CA else 0)
        xer = (xer & ~CA) | (CA if t > M else 0)
        rt = t & M""", RT_RA_RB),
    Op("addze", 31, 202, "X", 1, """
        t = ra + (1 if xer & CA else 0)
        xer = (xer & ~CA) | (CA if t > M else 0)
        rt = t & M""", "{name} {rt},{ra}"),
    Op("mullw", 31, 235, "X", 1, """
        rt = (signed(ra) * signed(rb)) & M
        cycles += 3""", RT_RA_RB),
    Op("divw", 31, 491, "X", 1, """
        d = signed(rb)
        rt = 0 if d == 0 else int(signed(ra) / d) & M
        cycles += 19""", RT_RA_RB),
    Op("divwu", 31, 459, "X", 1, """
        d = rb
        rt = 0 if d == 0 else (ra // d) & M
        cycles += 19""", RT_RA_RB),
    # -- logic, shifts, rotates (the source register sits in rt) --------
    Op("and", 31, 28, "X", 1, "ra = rt & rb", RA_RT_RB),
    Op("or", 31, 444, "X", 1, "ra = rt | rb", RA_RT_RB,
       [(lambda i: i.rt == i.rb, "mr {ra},{rt}")]),
    Op("xor", 31, 316, "X", 1, "ra = rt ^ rb", RA_RT_RB),
    Op("nand", 31, 476, "X", 1, "ra = (rt & rb) ^ M", RA_RT_RB),
    Op("nor", 31, 124, "X", 1, "ra = (rt | rb) ^ M", RA_RT_RB),
    Op("slw", 31, 24, "X", 1, """
        s = rb & 63
        ra = (rt << s) & M if s < 32 else 0""", RA_RT_RB),
    Op("srw", 31, 536, "X", 1, """
        s = rb & 63
        ra = rt >> s if s < 32 else 0""", RA_RT_RB),
    Op("sraw", 31, 792, "X", 1, """
        s = rb & 63
        ra = (signed(rt) >> (s if s < 31 else 31)) & M""", RA_RT_RB),
    Op("srawi", 31, 824, "X", 1, "ra = (signed(rt) >> sh) & M",
       "{name} {ra},{rt},{sh}"),
    Op("cntlzw", 31, 26, "X", 1, """
        t = rt
        ra = 32 - t.bit_length() if t else 32""", "{name} {ra},{rt}"),
    Op("extsb", 31, 954, "X", 1, """
        t = rt & 255
        ra = t | 0xFFFFFF00 if t & 128 else t""", "{name} {ra},{rt}"),
    Op("extsh", 31, 922, "X", 1, """
        t = rt & 65535
        ra = t | 0xFFFF0000 if t & 32768 else t""", "{name} {ra},{rt}"),
    Op("ori", 24, None, "DU", 1, "ra = rt | imm", RA_RT_UI,
       [(lambda i: i.rt == i.ra == i.imm == 0, "nop")]),
    Op("oris", 25, None, "DU", 1, "ra = rt | himm", RA_RT_UI),
    Op("xori", 26, None, "DU", 1, "ra = rt ^ imm", RA_RT_UI),
    Op("xoris", 27, None, "DU", 1, "ra = rt ^ himm", RA_RT_UI),
    Op("andi.", 28, None, "DU", 1, """
        t = rt & imm
        ra = t
        cr0 = LT if t & 0x80000000 else (EQ if t == 0 else GT)""", RA_RT_UI),
    Op("andis.", 29, None, "DU", 1, """
        t = rt & himm
        ra = t
        cr0 = LT if t & 0x80000000 else (EQ if t == 0 else GT)""", RA_RT_UI),
    Op("rlwinm", 21, None, "M", 1, """
        if sh:
            ra = ((rt << sh) | (rt >> (32 - sh))) & mask
        else:
            ra = rt & mask""",
       "{name} {ra},{rt},{sh},{mb},{me}"),
    # -- compares -----------------------------------------------------------
    Op("cmpwi", 11, None, "CMPI", 1, """
        a = signed(ra)
        crf = LT if a < imm else (GT if a > imm else EQ)""",
       "{name} {crf}{ra},{si}"),
    Op("cmplwi", 10, None, "CMPLI", 1, """
        a = ra
        crf = LT if a < imm else (GT if a > imm else EQ)""",
       "{name} {crf}{ra},{ui}"),
    Op("cmpw", 31, 0, "XCMP", 1, """
        a = signed(ra)
        b = signed(rb)
        crf = LT if a < b else (GT if a > b else EQ)""", CMP_RB),
    Op("cmplw", 31, 32, "XCMP", 1, """
        a = ra
        b = rb
        crf = LT if a < b else (GT if a > b else EQ)""", CMP_RB),
    # -- loads and stores ---------------------------------------------------
    Op("lwz", 32, None, "D", 3, "rt = load((ra0 + imm) & M, 4)", MEM),
    Op("lbz", 34, None, "D", 3, "rt = load((ra0 + imm) & M, 1)", MEM),
    Op("lhz", 40, None, "D", 3, "rt = load((ra0 + imm) & M, 2)", MEM),
    Op("lha", 42, None, "D", 3, """
        t = load((ra0 + imm) & M, 2)
        rt = t | 0xFFFF0000 if t & 32768 else t""", MEM),
    Op("lwzu", 33, None, "D", 3, """
        ea = (ra + imm) & M
        rt = load(ea, 4)
        ra = ea""", MEM),
    Op("stw", 36, None, "D", 2, "store((ra0 + imm) & M, rt, 4)", MEM),
    Op("stb", 38, None, "D", 2, "store((ra0 + imm) & M, rt, 1)", MEM),
    Op("sth", 44, None, "D", 2, "store((ra0 + imm) & M, rt, 2)", MEM),
    Op("stwu", 37, None, "D", 2, """
        ea = (ra + imm) & M
        store(ea, rt, 4)
        ra = ea""", MEM),
    Op("lwzx", 31, 23, "X", 3, "rt = load((ra0 + rb) & M, 4)", RT_RA_RB),
    Op("lbzx", 31, 87, "X", 3, "rt = load((ra0 + rb) & M, 1)", RT_RA_RB),
    Op("lhzx", 31, 279, "X", 3, "rt = load((ra0 + rb) & M, 2)", RT_RA_RB),
    # the paper's Figure 15: a flip turns mflr into lhax, whose
    # gpr8+gpr0 address crashes with "bad area"
    Op("lhax", 31, 343, "X", 3, """
        t = load((ra0 + rb) & M, 2)
        rt = t | 0xFFFF0000 if t & 32768 else t""", RT_RA_RB),
    Op("stwx", 31, 151, "X", 2, "store((ra0 + rb) & M, rt, 4)", RT_RA_RB),
    Op("stbx", 31, 215, "X", 2, "store((ra0 + rb) & M, rt, 1)", RT_RA_RB),
    Op("sthx", 31, 407, "X", 2, "store((ra0 + rb) & M, rt, 2)", RT_RA_RB),
    # load/store multiple: rt..r31, word-aligned operands only (the
    # instruction class behind Table 4's Alignment category)
    Op("lmw", 46, None, "D", 4, """
        ea = (ra0 + imm) & M
        if ea & 3:
            fault(ALIGNMENT, ea, "lmw operand not aligned")
        for n in upper:
            gpr[n] = load(ea, 4)
            ea = (ea + 4) & M""", MEM),
    Op("stmw", 47, None, "D", 4, """
        ea = (ra0 + imm) & M
        if ea & 3:
            fault(ALIGNMENT, ea, "stmw operand not aligned")
        for n in upper:
            store(ea, gpr[n], 4)
            ea = (ea + 4) & M""", MEM),
    # -- branches -----------------------------------------------------------
    Op("b", 18, None, "B", 2, """
        if lk:
            lr = nia
        branch(target)""", "{name} {target}",
       kind=lambda i: "call" if i.op2 & 1 else "jump",
       mnemonics=("b", "bl", "ba", "bla")),
    Op("bc", 16, None, "BC", 2, """
        if lk:
            lr = nia""" + _BO + """
        if ok:
            branch(target)""", "{cond}{lk} {crb}{target}",
       kind=lambda i: "call" if i.op2 & 1 else
       "branch" if _conditional(i) else "jump"),
    Op("bclr", 19, 16, "XL", 2, _BO + """
        t = lr & ~3
        if lk:
            lr = nia
        if ok:
            branch(t)""", BO_BI,
       [(lambda i: i.rt & 0x14 == 0x14, "blr{lk}")],
       kind=lambda i: "branch" if _conditional(i) else "ret"),
    # bcctr never decrements CTR; LR is written only when taken
    Op("bcctr", 19, 528, "XL", 2, """
        if bo_cr:
            if crbit == bo_true:
                if lk:
                    lr = nia
                branch(ctr & ~3)
        else:
            if lk:
                lr = nia
            branch(ctr & ~3)""", BO_BI,
       [(lambda i: i.rt & 0x14 == 0x14, "bctr{lk}")],
       kind=lambda i: "jump-indirect"),
    # -- system ---------------------------------------------------------------
    Op("sc", 17, None, "SC", 10, "syscall()", "sc"),
    Op("twi", 3, None, "D", 1, """
        a = signed(ra)
        if (to & 16 and a < imm) or (to & 8 and a > imm) \\
                or (to & 4 and a == imm) or (to & 2 and ra < imm & M) \\
                or (to & 1 and ra > imm & M):
            trap("twi trap (BUG)")""", "{name} {to},{ra},{si}"),
    Op("tw", 31, 4, "X", 1, """
        a = signed(ra)
        b = signed(rb)
        if (to & 16 and a < b) or (to & 8 and a > b) or (to & 4 and a == b) \\
                or (to & 2 and ra < rb) or (to & 1 and ra > rb):
            trap("tw trap (BUG)")""", "{name} {to},{ra},{rb}"),
    Op("mfspr", 31, 339, "XFX", 3, """
        if named:
            rt = spr
        else:
            check_supervisor_spr(sprn)
            rt = get_spr(sprn)""", "{name} {rt},{spr}",
       [(lambda i: i.imm == SPR_LR, "mflr {rt}"),
        (lambda i: i.imm == SPR_CTR, "mfctr {rt}")]),
    Op("mtspr", 31, 467, "XFX", 3, """
        if named:
            spr = rt
        else:
            check_supervisor_spr(sprn)
            set_spr(sprn, rt)""", "{name} {spr},{rt}",
       [(lambda i: i.imm == SPR_LR, "mtlr {rt}"),
        (lambda i: i.imm == SPR_CTR, "mtctr {rt}")]),
    Op("mfmsr", 31, 83, "X", 3, """
        check_privileged("mfmsr")
        rt = msr()""", "{name} {rt}"),
    Op("mtmsr", 31, 146, "X", 4, """
        check_privileged("mtmsr")
        set_msr(rt)""", "{name} {rt}"),
    Op("mfcr", 31, 19, "X", 1, "rt = cr", "{name} {rt}"),
    Op("rfi", 19, 50, "NONE", 10, """
        check_privileged("rfi")
        set_msr(get_spr(SRR1))
        branch(get_spr(SRR0) & ~3)
        cycles += 10""", kind=lambda i: "ret"),
    Op("isync", 19, 150, "NONE", 1, _NOP),
    Op("mcrf", 19, 0, "NONE", 1, _NOP),
    Op("sync", 31, 598, "X", 3, _NOP),
    Op("eieio", 31, 854, "X", 3, _NOP),
    Op("icbi", 31, 982, "X", 3, _NOP),
    Op("dcbf", 31, 86, "X", 3, _NOP),
    Op("dcbi", 31, 470, "X", 3, _NOP),
)

#: row by name
OPS: Dict[str, Op] = {op.name: op for op in TABLE + (ILLEGAL_OP,)}

_BY_OPCODE: Dict[Tuple[int, Optional[int]], Op] = {
    (op.primary, op.ext): op for op in TABLE if op.primary is not None}
_EXTENDED = frozenset(p for p, ext in _BY_OPCODE if ext is not None)


def op_of(i: PPCInstr) -> Op:
    """The row a decoded instruction's step executor belongs to."""
    return cast(Op, LANG.rows[i.execute])


def lookup(word: int) -> Op:
    """The row a word decodes to (:data:`ILLEGAL_OP` when unassigned)."""
    primary = (word >> 26) & 0x3F
    ext = (word >> 1) & 0x3FF if primary in _EXTENDED else None
    return _BY_OPCODE.get((primary, ext), ILLEGAL_OP)


def encode(name: str, rt: int = 0, ra: int = 0, rb: int = 0, imm: int = 0,
           op2: int = 0) -> int:
    """The word for row *name* with the given operand fields; raises
    :class:`repro.isa.assembler.AssemblerError` for a value its form
    cannot hold (:data:`ENCODABLE`)."""
    op = OPS[name]
    assert op.primary is not None
    fields = (rt, ra, rb, imm, op2)
    for field, value, valid in zip(("rt", "ra", "rb", "imm", "op2"), fields,
                                   ENCODABLE[op.form]):
        if value not in valid:
            # imported here: a warm run decodes but never assembles
            from repro.isa.assembler import AssemblerError
            raise AssemblerError(f"{name}: {field} {value:#x} does not fit "
                                 f"its {op.form}-form field")
    word = op.primary << 26 | (op.ext << 1 if op.ext is not None else 0)
    return word | FORMS[op.form][1](*fields)
