"""The PowerPC instruction table: every opcode described once.

Each instruction of the G4 core is one :class:`Op` row: its encoding
(primary and extended opcode, operand form), mnemonic, cycle cost,
disassembly syntax and a *body* — a few lines of Python-syntax
semantics over named operands.  Every view is derived from the rows:

* :func:`decode` and :func:`encode` — the decode tables, the
  :class:`PPCInstr` fields, and the assembler's opcode numbers;
* the step executors — each body is compiled once, at import, into a
  plain function ``exec_<op>(cpu, i)``; memory goes through
  ``cpu.load``/``cpu.store``, so tracer hooks see every access;
* the block emitters (:mod:`repro.compile.gen_ppc`), which fold one
  decoded instruction's static operands into the emitted code;
* the effect summaries (:mod:`repro.static.effects`), read off the
  operand roles of the body;
* the disassembly text (:mod:`repro.ppc.disasm`).

Body vocabulary (:data:`REGS`, :data:`FIELDS`, :data:`STATIC`,
:data:`HELPERS`, :data:`CONSTS`):

* ``rt``/``ra``/``rb`` are the GPRs the fields name, ``ra0`` is
  ``(ra|0)`` and ``gpr[n]`` is a GPR by number; ``xer``, ``lr``,
  ``ctr``; ``cr`` (the whole CR, read), ``crbit`` (CR bit BI, read),
  ``crf``/``cr0`` (CR field op2 / field 0, written); ``spr`` (the
  named SPR the spr field selects); ``msr`` (supervisor state, read);
* static operands, fixed by the decoded word (``imm``, ``sh``,
  ``mask``, ``lk``, ``target``, the BO bits, ...);
* ``load(ea, width)``, ``store(ea, value, width)``, ``branch(target)``
  and the fault and supervisor calls; ``signed(x)`` reads a 32-bit
  value as two's complement; ``cycles += n`` charges extra cycles.

An ``if`` whose test reads only static operands is *static*: the block
emitter and the effect model resolve it per decoded instruction.  Any
other name is a local temporary.

The subset defines 25 of the 64 primary opcodes and a few dozen
extended ones; every other word decodes to ``(illegal)`` and raises a
Program exception — the sparse encoding space behind the G4's 41%
Illegal-Instruction share of code crashes.  ``divw`` by zero yields
zero (the PowerPC has no divide-error exception, hence no Divide Error
row in Table 4); ``lmw``/``stmw`` raise Alignment on unaligned operands;
``twi``/``tw`` implement the kernel's BUG() trap.
"""

from __future__ import annotations

import ast
import copy
import re
import textwrap
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.isa.bits import MASK32, sign_extend
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

# -- body vocabulary ---------------------------------------------------------

#: register operands: name -> (step-mode code, block-mode text as an
#: expression over the decoded ``i``, the resources it names)
REGS: Dict[str, Tuple[str, str, str]] = {
    "rt": ("gpr[i.rt]", 'f"gpr[{i.rt}]"', "(GPRS[i.rt],)"),
    "ra": ("gpr[i.ra]", 'f"gpr[{i.ra}]"', "(GPRS[i.ra],)"),
    "rb": ("gpr[i.rb]", 'f"gpr[{i.rb}]"', "(GPRS[i.rb],)"),
    "ra0": ("(gpr[i.ra] if i.ra else 0)", 'f"gpr[{i.ra}]" if i.ra else "0"',
            "(GPRS[i.ra],) if i.ra else ()"),
    "xer": ("cpu.xer", '"cpu.xer"', '("xer",)'),
    "lr": ("cpu.lr", '"cpu.lr"', '("lr",)'),
    "ctr": ("cpu.ctr", '"cpu.ctr"', '("ctr",)'),
    "cr": ("cpu.cr", '"cr"', "CRS"),
    "crbit": ("(cpu.cr >> (31 - i.ra) & 1)", 'f"(cr >> {31 - i.ra} & 1)"',
              "(CRS[i.ra >> 2],)"),
    "spr": ("getattr(cpu, NAMED_SPRS[i.imm])", 'f"cpu.{NAMED_SPRS[i.imm]}"',
            "(NAMED_SPRS[i.imm],)"),
}

#: write-only CR fields: name -> field number as an expression over ``i``
FIELDS: Dict[str, str] = {"crf": "i.op2", "cr0": "0"}

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

#: helpers: name -> (step-mode code, ``_0``.. standing for the
#: arguments; effect roles)
HELPERS: Dict[str, Tuple[str, str]] = {
    "load": ("cpu.load(_0, _1)", "reads_mem may_fault"),
    "store": ("cpu.store(_0, _1, _2)", "writes_mem may_fault"),
    "branch": ("cpu.branch(_0)", ""),
    "fault": ("cpu.fault(_0, _1, _2)", "may_fault"),
    "trap": ("cpu.fault(PROGRAM, None, _0, program_reason=TRAP)",
             "may_fault"),
    "illegal": ("cpu.fault(PROGRAM, None, f'illegal encoding {i.word:#010x}',"
                " program_reason=ILLEGAL)", "may_fault"),
    "syscall": ("cpu.fault(SYSCALL, None, 'sc')", "may_fault system"),
    "check_privileged": ("cpu.check_privileged(_0)", ""),
    "check_supervisor_spr": ("cpu.check_supervisor_spr(_0)", "system"),
    "get_spr": ("cpu.get_spr(_0)", "system"),
    "set_spr": ("cpu.set_spr(_0, _1)", "system"),
    "msr": ("cpu.msr", "system"),
    "set_msr": ("cpu.set_msr(_0)", "system may_fault"),
}

#: integer constants, inlined into every view
CONSTS: Dict[str, int] = {
    "M": MASK32, "CA": 0x20000000, "LT": CR_LT, "GT": CR_GT, "EQ": CR_EQ,
    "SRR0": SPR_SRR0, "SRR1": SPR_SRR1,
}

#: names every view's namespace provides as they are
PASS = frozenset({"gpr", "int", "ALIGNMENT"})

#: namespace of static-operand expressions and step executors
NS: Dict[str, object] = {
    "NAMED_SPRS": NAMED_SPRS, "rlw_mask": rlw_mask, "GPRS": GPRS,
    "CRS": CRS, "PROGRAM": PPCVector.PROGRAM,
    "SYSCALL": PPCVector.SYSCALL, "ALIGNMENT": PPCVector.ALIGNMENT,
    "TRAP": ProgramReason.TRAP, "ILLEGAL": ProgramReason.ILLEGAL,
}


def expr(text: str) -> ast.expr:
    return ast.parse(text, mode="eval").body


def stmt(text: str) -> ast.stmt:
    return ast.parse(text).body[0]


class Rename(ast.NodeTransformer):
    """Replace every name *fn* maps (to a node; None keeps the name).

    The views differ mostly here: what a register, static operand or
    temporary becomes in step code, block text or an effect function.
    """

    def __init__(self, fn: Callable[[ast.Name], Optional[ast.expr]]) -> None:
        self.fn = fn

    def visit_Name(self, node: ast.Name) -> ast.expr:
        new = self.fn(node)
        return node if new is None else new


def rename(node: ast.AST, fn: Callable[[ast.Name], Optional[ast.expr]]
           ) -> str:
    """Source of a copy of *node* with its names renamed by *fn*."""
    return ast.unparse(Rename(fn).visit(copy.deepcopy(node)))


def static_names(node: ast.Name) -> Optional[ast.expr]:
    """Constants inlined, static operands as their value expressions."""
    if node.id in CONSTS:
        return ast.Constant(CONSTS[node.id])
    if node.id in STATIC:
        return expr(STATIC[node.id])
    return None


def is_static(node: ast.AST) -> bool:
    """True when *node* reads only static operands and constants."""
    return all(n.id in STATIC or n.id in CONSTS
               for n in ast.walk(node) if isinstance(n, ast.Name))


def static_fn(node: ast.AST) -> Callable[[PPCInstr, int, int], object]:
    """Compile a static expression into ``fn(i, cia, nia)``."""
    fn: Callable[[PPCInstr, int, int], object] = eval(
        f"lambda i, cia, nia: {rename(node, static_names)}", dict(NS))
    return fn


def helper(node: ast.AST) -> Optional[str]:
    """The helper a call invokes, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in HELPERS:
        return node.func.id
    return None


def assigned_name(node: ast.stmt) -> Optional[str]:
    """The bare name a single-target assignment writes, or None."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


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


# -- the step view -----------------------------------------------------------


def _step_name(node: ast.Name) -> Optional[ast.expr]:
    name = node.id
    if name in STATIC:
        text = re.sub(r"\bcia\b", "cpu.current_pc", STATIC[name])
        return expr(re.sub(r"\bnia\b", "cpu.pc", text))
    if name in REGS:
        new = expr(REGS[name][0])
        if isinstance(new, (ast.Subscript, ast.Attribute)):
            new.ctx = node.ctx
        return new
    if name in CONSTS or name in PASS:
        return static_names(node)
    return ast.Name(f"x_{name}", node.ctx)


class _Step(Rename):
    """Body -> step-executor code over ``cpu`` and the decoded ``i``."""

    def __init__(self) -> None:
        super().__init__(_step_name)

    def visit_Call(self, node: ast.Call) -> ast.expr:
        name = helper(node)
        if name is None:
            self.generic_visit(node)
            return node
        args = [ast.unparse(self.visit(a)) for a in node.args]
        return expr(re.sub(r"\b_(\d)\b", lambda m: f"({args[int(m[1])]})",
                           HELPERS[name][0]))

    def visit_Assign(self, node: ast.Assign) -> ast.stmt:
        name = assigned_name(node)
        if name == "spr":
            value = ast.unparse(self.visit(node.value))
            return stmt(f"setattr(cpu, NAMED_SPRS[i.imm], {value})")
        if name in FIELDS:
            value = ast.unparse(self.visit(node.value))
            shift = f"(28 - 4 * {FIELDS[name]})"
            return stmt(f"cpu.cr = cpu.cr & ~(15 << {shift}) "
                        f"| ({value}) << {shift}")
        self.generic_visit(node)
        return node

    def visit_AugAssign(self, node: ast.AugAssign) -> ast.stmt:
        if isinstance(node.target, ast.Name) and node.target.id == "cycles":
            return stmt(f"cpu.cycles += {ast.unparse(node.value)}")
        self.generic_visit(node)
        return node


def _step_function(op: "Op") -> Callable[..., None]:
    code = "\n".join(ast.unparse(_Step().visit(s)) for s in op.body)
    fname = f"exec_{op.ident}"
    src = (f"def {fname}(cpu, i):\n"
           + ("    gpr = cpu.gpr\n" if "gpr[" in code else "")
           + textwrap.indent(code, "    ") + "\n")
    ns = dict(NS)
    exec(compile(src, f"<ppc {op.name}>", "exec"), ns)
    return cast(Callable[..., None], ns[fname])


# -- the table ---------------------------------------------------------------

Alias = Tuple[Callable[[PPCInstr], bool], str]
KindFn = Callable[[PPCInstr], str]


class Op:
    """One instruction: encoding, syntax, cost and semantics."""

    def __init__(self, name: str, primary: Optional[int], ext: Optional[int],
                 form: str, cycles: int, body: str,
                 asm: str = "{name}", aliases: Sequence[Alias] = (),
                 kind: Optional[KindFn] = None,
                 mnemonics: Optional[Sequence[str]] = None) -> None:
        self.name = name
        self.primary = primary
        self.ext = ext
        self.form = form
        self.cycles = cycles
        self.source = _expand_body(body)
        self.asm = asm
        self.aliases = tuple(aliases)
        #: block-terminator kind by decoded instruction (None: falls
        #: through), in :mod:`repro.static.effects` vocabulary
        self.kind = kind
        #: mnemonic by op2 (the AA/LK bits of ``b``)
        self.mnemonics = tuple(mnemonics) if mnemonics else None
        self.ident = name.replace(".", "_dot").strip("()")
        self.execute = _step_function(self)

    @property
    def body(self) -> List[ast.stmt]:
        """A fresh parse of the body (views may rewrite it in place)."""
        return ast.parse(self.source).body

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

RT_RA_SI = "{name} {rt},{ra},{si}"
RA_RT_UI = "{name} {ra},{rt},{ui}"
RT_RA_RB = "{name} {rt},{ra},{rb}"
RA_RT_RB = "{name} {ra},{rt},{rb}"
MEM = "{name} {rt},{d}"

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
       "{name} {ra},{si}"),
    Op("cmplwi", 10, None, "CMPLI", 1, """
        a = ra
        crf = LT if a < imm else (GT if a > imm else EQ)""",
       "{name} {ra},{ui}"),
    Op("cmpw", 31, 0, "XCMP", 1, """
        a = signed(ra)
        b = signed(rb)
        crf = LT if a < b else (GT if a > b else EQ)""", "{name} {ra},{rb}"),
    Op("cmplw", 31, 32, "XCMP", 1, """
        a = ra
        b = rb
        crf = LT if a < b else (GT if a > b else EQ)""", "{name} {ra},{rb}"),
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
            branch(target)""", "{cond} {target}",
       kind=lambda i: "call" if i.op2 & 1 else
       "branch" if _conditional(i) else "jump"),
    Op("bclr", 19, 16, "XL", 2, _BO + """
        t = lr & ~3
        if lk:
            lr = nia
        if ok:
            branch(t)""", "{name} {bo},{bi}",
       [(lambda i: i.rt & 0x14 == 0x14, "blr")],
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
            branch(ctr & ~3)""", "{name} {bo},{bi}",
       [(lambda i: i.rt & 0x14 == 0x14, "bctr")],
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

#: row by name, and by the step executor a decoded instruction carries
OPS: Dict[str, Op] = {op.name: op for op in TABLE + (ILLEGAL_OP,)}
BY_EXECUTE: Dict[Callable[..., None], Op] = {
    op.execute: op for op in OPS.values()}

_BY_OPCODE: Dict[Tuple[int, Optional[int]], Op] = {
    (op.primary, op.ext): op for op in TABLE if op.primary is not None}
_EXTENDED = frozenset(p for p, ext in _BY_OPCODE if ext is not None)


def op_of(i: PPCInstr) -> Op:
    return BY_EXECUTE[i.execute]


def lookup(word: int) -> Op:
    """The row a word decodes to (:data:`ILLEGAL_OP` when unassigned)."""
    primary = (word >> 26) & 0x3F
    ext = (word >> 1) & 0x3FF if primary in _EXTENDED else None
    return _BY_OPCODE.get((primary, ext), ILLEGAL_OP)


def encode(name: str, rt: int = 0, ra: int = 0, rb: int = 0, imm: int = 0,
           op2: int = 0) -> int:
    """The word for row *name* with the given operand fields."""
    op = OPS[name]
    assert op.primary is not None
    word = op.primary << 26 | (op.ext << 1 if op.ext is not None else 0)
    return word | FORMS[op.form][1](rt & 31, ra & 31, rb & 31, imm, op2)
