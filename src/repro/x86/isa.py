"""The IA-32 instruction table: every instruction family described once.

Each family of the P4 core is one :class:`Op` row: its encodings
(opcode bytes, the ``0x0F`` escape, ``rep`` forms, the ModRM
``/digit``s it accepts, each with an operand form), its width rule,
mnemonic, cycle cost, disassembly syntax and a *body* — a few lines of
Python-syntax semantics over named operands.  Every view is derived
from the rows:

* :func:`decode` — a 256-entry map, a ``0x0F`` map and a ``rep`` map
  replace the opcode ``if`` chains; the prefix loop, ``_parse_modrm``
  and :class:`Instr` stay as they are;
* the step executors, the block lowering (:mod:`repro.compile.emit`)
  and the effect summaries (:mod:`repro.static.effects`), from the
  bodies, through the body language of :mod:`repro.isa.table`;
* the disassembly text (:mod:`repro.x86.disasm`), from the syntax
  column.

The body vocabulary is :data:`LANG`: the GPR operands
(:data:`GPR_OPERANDS`: ``rm``/``reg``/``acc`` at the decoded width,
``rm32``/``reg32`` at 32 bits, ``rm8``/``rm16``, ``rms`` the
``movzx``/``movsx`` source, ``eax`` .. ``edi``, ``gpr_rm`` the r/m
field's GPR), the flags and supervisor state (:data:`OPERANDS`), the
r/m operands of a memory form (:data:`MEMORY_OPERANDS`, a load when
read and a store when written, at ``ea``), the static operands
(:data:`STATIC`), the helpers (:data:`HELPERS`), :data:`CONSTS` and
:data:`PASS`; ``cycles += n`` charges extra cycles.
"""

from __future__ import annotations

import textwrap
from typing import Callable, Dict, Optional, Sequence, Tuple, Union, cast

from repro.isa.bits import MASK32, sign_extend, to_signed
from repro.isa.table import VERBATIM, Helper, Language, Operand, Row
from repro.x86.exceptions import X86Vector
from repro.x86.insn import Instr
from repro.x86.registers import (
    FLAG_CF, FLAG_IF, FLAG_NT, FLAG_OF, FLAG_ZF, GPR_NAMES, SEG_ES, SEG_SS,
)

ALU_NAMES = ("add", "or", "adc", "sbb", "and", "sub", "xor", "cmp")
COND_NAMES = ("o", "no", "b", "ae", "e", "ne", "be", "a",
              "s", "ns", "p", "np", "l", "ge", "le", "g")
#: condition ``cc`` as an expression over the flags ``f``
COND_EXPRS = (
    "f & 2048", "not f & 2048", "f & 1", "not f & 1",
    "f & 64", "not f & 64", "f & 65", "not f & 65",
    "f & 128", "not f & 128", "f & 4", "not f & 4",
    "((f >> 7) ^ (f >> 11)) & 1", "not ((f >> 7) ^ (f >> 11)) & 1",
    "f & 64 or ((f >> 7) ^ (f >> 11)) & 1",
    "not (f & 64 or ((f >> 7) ^ (f >> 11)) & 1)",
)
COND: Tuple[Callable[[int], object], ...] = tuple(
    eval(f"lambda f: {text}") for text in COND_EXPRS)

# -- body vocabulary ---------------------------------------------------------

#: GPR operands: name -> (register number, width in bytes), each an
#: expression over the decoded ``i``.  8-bit registers 4-7 are ah..bh.
GPR_OPERANDS: Dict[str, Tuple[str, str]] = {
    "rm": ("i.rm_reg", "i.width"),
    "rm32": ("i.rm_reg", "4"),
    "rms": ("i.rm_reg", "i.op2"),
    "rm8": ("i.rm_reg", "1"),
    "rm16": ("i.rm_reg", "2"),
    "reg": ("i.reg", "i.width"),
    "reg32": ("i.reg", "4"),
    "acc": ("0", "i.width"),
    "gpr_rm": ("(i.rm_reg if i.rm_reg >= 0 else 0)", "4"),
    **{name: (str(n), "4") for n, name in enumerate(GPR_NAMES)},
}
#: the r/m operands: a load or store in a memory form (``ea`` too)
MEMORY = frozenset({"rm", "rm32", "rms", "rm8", "rm16"})
#: the register number and width of each GPR operand, as ``fn(i)``
NUMBER: Dict[str, Callable[[Instr], int]] = {
    name: eval(f"lambda i: {number}")
    for name, (number, _) in GPR_OPERANDS.items()}
WIDTH: Dict[str, Callable[[Instr], int]] = {
    name: eval(f"lambda i: {width}")
    for name, (_, width) in GPR_OPERANDS.items()}


def gpr_resource(reg: int, width: int) -> str:
    """The liveness resource of a GPR operand: 8-bit registers 4-7 are
    ah..bh and alias eax..ebx."""
    if width == 1 and reg >= 4:
        return GPR_NAMES[reg - 4]
    return GPR_NAMES[reg]


def address_uses(i: Instr) -> Tuple[str, ...]:
    """The GPRs an effective address reads."""
    return tuple(GPR_NAMES[reg] for reg in (i.base, i.index) if reg >= 0)


def _gpr(name: str) -> Operand:
    number, width = GPR_OPERANDS[name]
    if width == "4":
        return Operand(f"regs[{number}]", f"regs[{number}] = V",
                       f"(GPR_NAMES[{number}],)")
    return Operand(f"cpu.get_reg({number}, {width})",
                   f"cpu.set_reg({number}, {width}, V)",
                   f"(gpr_resource({number}, {width}),)",
                   partial=f"{width} < 4")


_EFLAGS = "('eflags',)"

#: register-like operands.  ``flags`` is the arithmetic EFLAGS (a whole
#: write restores the system bits too); ``sysflags`` the system bits;
#: ``sreg``, ``cr``, ``halted`` and ``idt_limit`` are supervisor state,
#: outside the liveness domain; ``ea`` is a memory operand's address
OPERANDS: Dict[str, Operand] = {
    **{name: _gpr(name) for name in GPR_OPERANDS},
    "flags": Operand("cpu.eflags", "cpu.eflags = V", _EFLAGS,
                     write_roles="system"),
    "cf": Operand("(cpu.eflags & 1)", resources=_EFLAGS),
    "cond": Operand("COND[i.op2](cpu.eflags)", resources=_EFLAGS),
    "sysflags": Operand("cpu.eflags", "cpu.eflags = V", roles="system",
                        write_roles="system"),
    "sreg": Operand("cpu.get_sreg(i.reg)", "cpu.load_sreg(i.reg, V)",
                    roles="system", write_roles="system may_fault"),
    "cr": Operand("cpu.get_cr(i.reg)", "cpu.set_cr(i.reg, V)",
                  roles="system", write_roles="system may_fault"),
    "halted": Operand("cpu.halted", "cpu.halted = V", roles="system",
                      write_roles="system"),
    "idt_limit": Operand("cpu.idtr_limit", roles="system"),
    "ea": Operand("a_", resources="address_uses(i)"),
}

#: the r/m operands of a memory form: a load and a store at ``ea``
MEMORY_OPERANDS: Dict[str, Operand] = {
    name: Operand(f"cpu.load(a_, {GPR_OPERANDS[name][1]}, i.seg)",
                  f"cpu.store(a_, V, {GPR_OPERANDS[name][1]}, i.seg)",
                  roles="reads_mem may_fault",
                  write_roles="writes_mem may_fault")
    for name in MEMORY}

#: static operands: name -> value as an expression over the decoded
#: ``i`` and the next instruction's address ``nia``
STATIC: Dict[str, str] = {
    "imm": "i.imm",
    "op2": "i.op2",
    "width": "i.width",
    "mask": "MASKS[i.width]",
    "bits": "i.width * 8",
    "sbits": "i.op2 * 8",
    "mem": "i.rm_reg < 0",
    "regno": "i.reg",
    "disp": "i.disp",
    "mnemonic": "i.mnemonic",
    "nia": "nia",
    "target": "(nia + i.imm) & 4294967295",
}

#: helpers; ``load``/``store`` take an optional segment (the
#: instruction's own by default)
HELPERS: Dict[str, Helper] = {
    "load": Helper("cpu.load(_0, _1, _2)", "reads_mem may_fault",
                   optional=("i.seg",)),
    "store": Helper("cpu.store(_0, _1, _2, _3)", "writes_mem may_fault",
                    optional=("i.seg",)),
    "push": Helper("cpu.push32(_0)", "writes_mem may_fault", ("esp",),
                   ("esp",)),
    "pop": Helper("cpu.pop32()", "reads_mem may_fault", ("esp",), ("esp",)),
    "branch": Helper("cpu.branch(_0)", "fetch_fault"),
    "add": Helper("cpu.set_flags_add(_0, _1, i.width)", defs=("flags",)),
    "sub": Helper("cpu.set_flags_sub(_0, _1, i.width)", defs=("flags",)),
    "logic": Helper("cpu.set_flags_logic(_0, i.width)", defs=("flags",)),
    "incdec": Helper("cpu.set_flags_incdec(_0, _1)", uses=("flags",),
                     defs=("flags",)),
    "ud": Helper("cpu.fault(INVALID_OPCODE, detail=_0)", "may_fault illegal"),
    "fault": Helper("cpu.fault(*)", "may_fault"),
    "check_privilege": Helper("cpu.check_privilege(_0)"),
    "handler": Helper("cpu.cycles += _0", "system"),
}

#: integer constants, inlined into every view
CONSTS: Dict[str, int] = {
    "M": MASK32, "CF": FLAG_CF, "ZF": FLAG_ZF, "OF": FLAG_OF, "NT": FLAG_NT,
    "IF": FLAG_IF, "ES": SEG_ES, "SS": SEG_SS,
}

#: names every view's namespace provides as they are
PASS: Dict[str, object] = {
    "sign_extend": sign_extend, "to_signed": to_signed, "int": int,
    "range": range,
    **{v.name: v for v in X86Vector},
}

LANG = Language(
    "x86", operands=OPERANDS, static=STATIC, helpers=HELPERS,
    consts=CONSTS, passed=PASS,
    ns={"COND": COND, "MASKS": {1: 0xFF, 2: 0xFFFF, 4: MASK32},
        "GPR_NAMES": GPR_NAMES, "gpr_resource": gpr_resource,
        "address_uses": address_uses},
    file="regs", pcs=("current_eip", "eip"), length="i.length",
    style=VERBATIM, file_resources="GPR_NAMES", memory=MEMORY_OPERANDS,
    address="ea", address_step="a_ = cpu.ea(i)",
    form=("i.rm_reg < 0", "i.rm_reg >= 0"))


# -- the table ---------------------------------------------------------------

#: operand form -> (has ModRM, immediate kind, register in the opcode,
#: keeps the prefix segment).  Immediate kinds: ``z`` one of the
#: operand width, ``b``/``bs`` 8-bit unsigned/sign-extended, ``w`` 16,
#: ``d`` 32, ``grp3`` ``z`` for ``/0`` and ``/1`` only.  Register in the
#: opcode: ``low3`` (``50+r``), ``sreg`` (bits 3-5: push/pop es..ds).
FORMS: Dict[str, Tuple[bool, Optional[str], Optional[str], bool]] = {
    "rm,r": (True, None, None, True),
    "r,rm": (True, None, None, True),
    "rm": (True, None, None, True),
    "rm,imm": (True, "z", None, True),
    "rm,imm8": (True, "b", None, True),
    "rm,imm8s": (True, "bs", None, True),
    "rm[,imm]": (True, "grp3", None, True),
    "r,rm,imm32": (True, "d", None, True),
    "r,rm,imm8s": (True, "bs", None, True),
    "a,imm": (False, "z", None, False),
    "r,imm": (False, "z", "low3", False),
    "r": (False, None, "low3", False),
    "sreg": (False, None, "sreg", False),
    "imm32": (False, "d", None, False),
    "imm16": (False, "w", None, False),
    "imm8": (False, "b", None, False),
    "imm8s": (False, "bs", None, False),
    "rel8": (False, "bs", None, False),
    "rel32": (False, "d", None, False),
    "moffs": (False, None, None, True),
    "string": (False, None, None, True),
    "none": (False, None, None, False),
}

Code = int          # 0x00-0xFF, 0x0F00 | byte, or 0xF300 | byte (rep)
Field = Union[int, str, Callable[[Code, int], object]]


class Op(Row):
    """One instruction family: encodings, syntax, cost and semantics.

    ``enc`` maps each opcode to its operand form; ``width`` is a width
    in bytes or a rule (``w`` the operand size, ``bw`` 1 for an even
    opcode and ``w`` for an odd one, ``bw3`` the same on bit 3);
    ``op2``, ``mnemonic`` and ``cycles`` are constants or functions of
    (opcode, ModRM digit) / (opcode, op2) / opcode; ``digits`` lists
    the ModRM digits an opcode accepts (any other decodes as
    ``(bad)``); ``asm`` is the syntax (a tuple is indexed by op2);
    ``kind`` names a control transfer in :mod:`repro.static.effects`
    vocabulary."""

    def __init__(self, name: str, enc: Dict[Code, str], body: str,
                 asm: Union[str, Sequence[str]] = "{name}",
                 mnemonic: Field = "", width: Field = 4,
                 cycles: Union[int, Dict[Code, int]] = 1, op2: Field = 0,
                 digits: Optional[Dict[Code, Sequence[int]]] = None,
                 kind: Optional[Callable[[Instr], Optional[str]]] = None,
                 aliases: Sequence[Tuple[Callable[[Instr], bool], str]] = (),
                 names: Sequence[str] = (), unbounded: bool = False) -> None:
        self.enc = enc
        self.asm = asm
        self.mnemonic = mnemonic
        self.width = width
        self.cycles = cycles
        self.op2 = op2
        self.digits = digits or {}
        self.kind = kind
        self.aliases = tuple(aliases)
        #: operation names by op2, for the syntax's ``{op}``
        self.names = tuple(names)
        #: cycle cost unbounded (ecx-driven string loops): never compiled
        self.unbounded = unbounded
        super().__init__(LANG, name, textwrap.dedent(body).strip())

    def syntax(self, i: Instr) -> str:
        for applies, text in self.aliases:
            if applies(i):
                return text
        return self.asm if isinstance(self.asm, str) else self.asm[i.op2]


def _alu(dst: str, src: str) -> str:
    """The eight ALU operations, selected by op2, on two operands."""
    return f"""
        if op2 == 0:
            {dst} = add({dst}, {src})
        elif op2 == 1:
            {dst} = logic({dst} | {src})
        elif op2 == 2:
            {dst} = add({dst}, ({src} + cf) & mask)
        elif op2 == 3:
            {dst} = sub({dst}, ({src} + cf) & mask)
        elif op2 == 4:
            {dst} = logic({dst} & {src})
        elif op2 == 5:
            {dst} = sub({dst}, {src})
        elif op2 == 6:
            {dst} = logic({dst} ^ {src})
        else:
            sub({dst}, {src})"""


def _bt(bit: str) -> str:
    """bt/bts/btr/btc (op2 0-3): CF := the bit, then set/reset/flip."""
    return f"""
        b = {bit} & 31
        v = rm32
        if v & (1 << b):
            flags |= CF
        else:
            flags &= ~CF
        if op2 == 1:
            v |= 1 << b
        elif op2 == 2:
            v &= ~(1 << b)
        elif op2 == 3:
            v ^= 1 << b
        if op2:
            rm32 = v"""


def _scan(index: str) -> str:
    """bsf/bsr: ZF set and the destination kept when the source is 0."""
    return f"""
        v = rm32
        if v == 0:
            flags |= ZF
        else:
            flags &= ~ZF
            reg32 = {index}"""


def _string(step: str) -> str:
    """movs/stos, ecx times when rep-prefixed (op2 = 1)."""
    return f"""
        if op2:
            n = ecx
            ecx = 0
        else:
            n = 1
        for _ in range(n):
{textwrap.indent(textwrap.dedent(step), " " * 12)}
            cycles += 1"""


def _cc(prefix: str) -> Callable[[Code, int], str]:
    return lambda code, op2: prefix + COND_NAMES[op2]


def _span(first: Code, count: int, form: str) -> Dict[Code, str]:
    return {code: form for code in range(first, first + count)}


_SUFFIX = "{op}{suffix} {imm},{rm}"
#: the operations of groups 2, 3 and 5, by ModRM digit
GRP2 = ("rol", "ror", "rcl", "rcr", "shl", "shr", "sal", "sar")
GRP3 = ("test", "test", "not", "neg", "mul", "imul", "div", "idiv")
GRP5 = ("inc", "dec", "call", "callf", "jmp", "jmpf", "push", "(bad)")
#: group 2's op2 is the digit plus the count's source: 0 for imm8,
#: GRP2_ONE for a count of one, GRP2_CL for CL
GRP2_ONE, GRP2_CL = 8, 16
_BT = ("bt", "bts", "btr", "btc")
_BAD_SREG = [(lambda i: i.reg > 5, "(bad)")]

TABLE: Tuple[Op, ...] = (
    # -- the classic ALU block 0x00-0x3F, group 1, test ------------------
    Op("alu_rm_r", {a << 3 | s: "rm,r" for a in range(8) for s in (0, 1)},
       _alu("rm", "reg"), "{name} {reg},{rm}", width="bw",
       op2=lambda code, d: code >> 3, mnemonic=lambda c, op2: ALU_NAMES[op2]),
    Op("alu_r_rm", {a << 3 | s: "r,rm" for a in range(8) for s in (2, 3)},
       _alu("reg", "rm"), "{name} {rm},{reg}", width="bw",
       op2=lambda code, d: code >> 3, mnemonic=lambda c, op2: ALU_NAMES[op2]),
    Op("alu_a_imm", {a << 3 | s: "a,imm" for a in range(8) for s in (4, 5)},
       _alu("acc", "imm"), "{name} {imm},{acc}", width="bw",
       op2=lambda code, d: code >> 3, mnemonic=lambda c, op2: ALU_NAMES[op2]),
    Op("grp1_rm_imm", {0x80: "rm,imm", 0x81: "rm,imm", 0x83: "rm,imm8s"},
       _alu("rm", "imm"), _SUFFIX, width="bw", op2=lambda code, d: d,
       mnemonic=lambda c, op2: {0x80: "grp1b", 0x81: "grp1"}.get(c, "grp1s"),
       names=ALU_NAMES),
    Op("test_rm_r", {0x84: "rm,r", 0x85: "rm,r"}, "logic(rm & reg)",
       "test {reg},{rm}", "test", width="bw"),
    Op("test_a_imm", {0xA8: "a,imm", 0xA9: "a,imm"}, "logic(acc & imm)",
       "test {imm},{acc}", "test", width="bw"),
    # -- data movement ----------------------------------------------------
    Op("mov_rm_r", {0x88: "rm,r", 0x89: "rm,r"}, "rm = reg",
       "mov {reg},{rm}", "mov", width="bw"),
    Op("mov_r_rm", {0x8A: "r,rm", 0x8B: "r,rm"}, "reg = rm",
       "mov {rm},{reg}", "mov", width="bw"),
    Op("mov_r_imm", _span(0xB0, 16, "r,imm"), "reg = imm",
       "mov {imm},{reg}", "mov", width="bw3"),
    Op("mov_rm_imm", {0xC6: "rm,imm", 0xC7: "rm,imm"}, "rm = imm",
       "mov{suffix} {imm},{rm}", "mov", width="bw"),
    Op("movzx", {0x0FB6: "r,rm", 0x0FB7: "r,rm"}, "reg32 = rms",
       "movzx {rms},{reg32}", "movzx", op2=lambda code, d: (code & 1) + 1),
    Op("movsx", {0x0FBE: "r,rm", 0x0FBF: "r,rm"},
       "reg32 = sign_extend(rms, sbits)", "movsx {rms},{reg32}", "movsx",
       op2=lambda code, d: (code & 1) + 1),
    Op("lea", {0x8D: "r,rm"}, """
        if not mem:
            ud("lea with register rm")
        else:
            reg32 = ea""", "lea {mem},{reg32}", "lea"),
    Op("moffs_load", {0xA0: "moffs", 0xA1: "moffs"},
       "acc = load(disp, width)", "mov {moffs},{acc}", "mov", width="bw",
       cycles=3),
    Op("moffs_store", {0xA2: "moffs", 0xA3: "moffs"},
       "store(disp, acc, width)", "mov {acc},{moffs}", "mov", width="bw",
       cycles=2),
    Op("xchg_r_rm", {0x86: "rm,r", 0x87: "rm,r"}, """
        t = reg
        u = rm
        rm = t
        reg = u""", "xchg {reg},{rm}", "xchg", width="bw"),
    Op("xchg_eax_r", _span(0x91, 7, "r"), """
        t = eax
        eax = reg32
        reg32 = t""", "xchg %eax,{reg32}", "xchg", cycles=2),
    Op("cdq", {0x99: "none"}, "edx = M if eax & 0x80000000 else 0",
       mnemonic="cdq"),
    Op("cwde", {0x98: "none"}, "eax = sign_extend(eax & 0xFFFF, 16)",
       mnemonic="cwde"),
    # -- stack --------------------------------------------------------------
    Op("push_r", _span(0x50, 8, "r"), "push(reg32)", "push {reg32}", "push",
       cycles=2),
    Op("pop_r", _span(0x58, 8, "r"), "reg32 = pop()", "pop {reg32}", "pop",
       cycles=2),
    Op("push_imm", {0x68: "imm32", 0x6A: "imm8s"}, "push(imm)",
       "push {imm}", "push", cycles=2),
    # the destination's address is taken after the pop
    Op("pop_rm", {0x8F: "rm"}, """
        t = pop()
        rm32 = t""", "pop {rm}", "pop", cycles=2),
    Op("pushfd", {0x9C: "none"}, "push(flags)", mnemonic="pushfd", cycles=2),
    Op("popfd", {0x9D: "none"}, "flags = pop()", mnemonic="popfd", cycles=2),
    Op("leave", {0xC9: "none"}, """
        esp = ebp
        ebp = pop()""", mnemonic="leave", cycles=3),
    Op("push_sreg", {0x06: "sreg", 0x0E: "sreg", 0x16: "sreg", 0x1E: "sreg"},
       "push(sreg)", "push %{sreg}", "push-sreg", cycles=2),
    Op("pop_sreg", {0x07: "sreg", 0x17: "sreg", 0x1F: "sreg"},
       "sreg = pop()", "pop %{sreg}", "pop-sreg", cycles=2),
    # -- inc/dec and group 5 ----------------------------------------------
    Op("inc_r", _span(0x40, 8, "r"), """
        t = (reg32 + 1) & M
        reg32 = t
        incdec(t, t == 0x80000000)""", "inc {reg32}", "inc"),
    Op("dec_r", _span(0x48, 8, "r"), """
        t = (reg32 - 1) & M
        reg32 = t
        incdec(t, t == 0x7FFFFFFF)""", "dec {reg32}", "dec"),
    Op("grp5", {0xFE: "rm", 0xFF: "rm"}, """
        if op2 < 2:
            t = (rm + (1 if op2 == 0 else -1)) & mask
            incdec(t, False)
            rm = t
        elif op2 == 2:
            t = rm32
            push(nia)
            branch(t)
        elif op2 == 4:
            branch(rm32)
        elif op2 == 6:
            push(rm32)
        else:
            ud(f"grp5 /{op2}")""",
       tuple(f"{n} *{{rm}}" if n in ("call", "jmp") else f"{n} {{rm}}"
             for n in GRP5),
       lambda c, op2: "grp5b" if c == 0xFE else "grp5", width="bw",
       cycles={0xFE: 1, 0xFF: 2}, op2=lambda code, d: d,
       digits={0xFE: (0, 1)},
       kind=lambda i: {2: "call-indirect", 4: "jump-indirect"}.get(i.op2)),
    # -- control flow -------------------------------------------------------
    Op("ret", {0xC2: "imm16", 0xC3: "none"}, """
        t = pop()
        branch(t)
        esp = (esp + imm) & M""", "ret {imm}", "ret", cycles=4,
       kind=lambda i: "ret", aliases=[(lambda i: not i.imm, "ret")]),
    Op("call_rel", {0xE8: "rel32"}, """
        push(nia)
        branch(target)""", "call {target}", "call", cycles=4,
       kind=lambda i: "call"),
    Op("jmp_rel", {0xE9: "rel32", 0xEB: "rel8"}, "branch(target)",
       "jmp {target}", "jmp", cycles=2, kind=lambda i: "jump"),
    Op("jcc", {**_span(0x70, 16, "rel8"), **_span(0x0F80, 16, "rel32")}, """
        if cond:
            branch(target)""", "{name} {target}", _cc("j"),
       op2=lambda code, d: code & 0xF, kind=lambda i: "branch"),
    # -- group 2 (shifts) and group 3 (mul/div/...) ---------------------------
    # op2 is the digit plus the count's source (GRP2_ONE, GRP2_CL)
    Op("grp2", {0xC0: "rm,imm8", 0xC1: "rm,imm8", 0xD1: "rm", 0xD3: "rm"}, """
        if op2 >> 3 == 0:
            n = imm & 31
        elif op2 >> 3 == 1:
            n = 1
        else:
            n = ecx & 31
        if op2 & 7 in (2, 3, 6):
            if mem:
                load(ea, width)
            if n:
                ud(f"grp2 /{op2 & 7}")
        else:
            v = rm
            if n:
                if op2 & 7 == 4:
                    r = (v << n) & mask
                    c = (v >> (bits - n)) & 1 if n <= bits else 0
                elif op2 & 7 == 5:
                    r = (v & mask) >> n
                    c = (v >> (n - 1)) & 1
                elif op2 & 7 == 7:
                    s = to_signed(v, bits)
                    r = (s >> n) & mask
                    c = (s >> (n - 1)) & 1
                elif op2 & 7 == 0:
                    n %= bits
                    r = ((v << n) | (v >> (bits - n))) & mask if n \\
                        else v & mask
                    c = r & 1
                else:
                    n %= bits
                    r = ((v >> n) | (v << (bits - n))) & mask if n \\
                        else v & mask
                    c = (r >> (bits - 1)) & 1
                logic(r)
                if c:
                    flags |= CF
                rm = r""",
       tuple(f"{n} {{imm}},{{rm}}" for n in GRP2)
       + tuple(f"{n} {{rm}}" for n in GRP2)
       + tuple(f"{n} %cl,{{rm}}" for n in GRP2),
       lambda c, op2: "grp2b" if c == 0xC0 else "grp2", width="bw",
       op2=lambda code, d: d | {0xD1: GRP2_ONE, 0xD3: GRP2_CL}.get(code, 0)),
    Op("grp3", {0xF6: "rm[,imm]", 0xF7: "rm[,imm]"}, """
        v = rm
        if op2 < 2:
            logic(v & imm)
        elif op2 == 2:
            rm = ~v & mask
        elif op2 == 3:
            sub(0, v)
            rm = -v & mask
        elif op2 == 4:
            p = acc * v
            acc = p & mask
            if width == 4:
                edx = (p >> 32) & M
            cycles += 4
        elif op2 == 5:
            p = to_signed(acc, bits) * to_signed(v, bits)
            acc = p & mask
            if width == 4:
                edx = (p >> 32) & M
            cycles += 4
        elif op2 == 6:
            if v == 0:
                fault(DIVIDE_ERROR, detail="divide by zero")
            if width == 4:
                n = (edx << 32) | eax
            else:
                n = acc
            q = n // v
            if q > mask:
                fault(DIVIDE_ERROR, detail="quotient overflow")
            acc = q
            if width == 4:
                edx = n % v
            cycles += 20
        else:
            d = to_signed(v, bits)
            if d == 0:
                fault(DIVIDE_ERROR, detail="divide by zero")
            if width == 4:
                n = to_signed((edx << 32) | eax, 64)
            else:
                n = to_signed(acc, bits)
            q = n // d
            if q < 0 and q * d != n:
                q += 1
            if not -(1 << (bits - 1)) <= q < (1 << (bits - 1)):
                fault(DIVIDE_ERROR, detail="quotient overflow")
            acc = q & mask
            if width == 4:
                edx = (n - q * d) & M
            cycles += 20""",
       ("test {imm},{rm}",) * 2 + tuple(f"{n} {{rm}}" for n in GRP3[2:]),
       lambda c, op2: "grp3b" if c == 0xF6 else "grp3", width="bw",
       op2=lambda code, d: d),
    Op("imul_r_rm", {0x0FAF: "r,rm"}, """
        reg = (to_signed(reg, 32) * to_signed(rm, 32)) & M
        cycles += 4""", "imul {rm},{reg}", "imul", width="w", cycles=4),
    Op("imul_rmi", {0x69: "r,rm,imm32", 0x6B: "r,rm,imm8s"}, """
        reg = (to_signed(rm, 32) * to_signed(imm, 32)) & M
        cycles += 4""", "imul {imm},{rm},{reg}", "imul", width="w",
       cycles=4),
    # -- flags, traps, system instructions, misc ------------------------------
    Op("nop", {0x90: "none", 0x27: "none", 0x2F: "none", 0x37: "none",
               0x3F: "none", 0xF390: "none", 0x0F09: "none", 0x0F31: "none"},
       "pass", mnemonic=lambda c, op2: {
           0x90: "nop", 0x27: "daa", 0x2F: "das", 0x37: "aaa", 0x3F: "aas",
           0xF390: "pause", 0x0F09: "wbinvd", 0x0F31: "rdtsc"}[c],
       cycles={0x0F09: 50, 0x0F31: 10}),
    Op("clc", {0xF8: "none"}, "flags &= ~CF", mnemonic="clc"),
    Op("stc", {0xF9: "none"}, "flags |= CF", mnemonic="stc"),
    Op("cmc", {0xF5: "none"}, "flags ^= CF", mnemonic="cmc"),
    Op("ud2", {0x0F0B: "none"}, 'ud("ud2a")', mnemonic="ud2a"),
    Op("invalid", {}, 'ud(f"undefined opcode {mnemonic}")',
       mnemonic="(bad)"),
    Op("int", {0xCD: "imm8"}, """
        if imm & 255 == SYSCALL:
            fault(SYSCALL, detail="int 0x80")
        if (imm & 255) * 8 + 7 > idt_limit:
            fault(GENERAL_PROTECTION,
                  detail=f"int {imm & 255:#x} beyond IDT limit",
                  error_code=(imm & 255) * 8 + 2)
        if not (imm & 255 == BREAKPOINT or imm & 255 == DEBUG):
            handler(120)""", "int {imm}", "int", cycles=2),
    Op("int3", {0xCC: "none"}, "handler(60)", mnemonic="int3", cycles=2),
    Op("into", {0xCE: "none"}, """
        if flags & OF:
            fault(OVERFLOW, detail="into with OF set")""", mnemonic="into",
       cycles=2),
    # a corrupted NT bit makes iret a nested-task return, which the
    # paper traces every Invalid TSS crash to (Section 5.2)
    Op("iret", {0xCF: "none"}, """
        if flags & NT:
            fault(INVALID_TSS, detail="iret with NT set: back-link TSS invalid")
        t = pop()
        pop()
        flags = pop()
        branch(t)""", mnemonic="iret", cycles=10, kind=lambda i: "ret"),
    Op("hlt", {0xF4: "none"}, """
        check_privilege("hlt")
        halted = True""", mnemonic="hlt", kind=lambda i: "halt"),
    Op("cli", {0xFA: "none"}, """
        check_privilege("cli")
        sysflags &= ~IF""", mnemonic="cli", cycles=2),
    Op("sti", {0xFB: "none"}, """
        check_privilege("sti")
        sysflags |= IF""", mnemonic="sti", cycles=2),
    Op("bound", {0x62: "r,rm"}, """
        if not mem:
            ud("bound with register rm")
        else:
            a = ea
            lo = load(a, 4)
            hi = load((a + 4) & M, 4)
            v = to_signed(reg32, 32)
            if v < to_signed(lo, 32) or v > to_signed(hi, 32):
                fault(BOUNDS, address=a, detail="bound range exceeded")""",
       "bound {mem},{reg32}", "bound", cycles=3),
    # segment moves: ModRM reg 6 and 7 name no segment register
    Op("mov_sreg_rm", {0x8E: "r,rm"}, """
        if regno > 5:
            ud("mov to sreg 6/7")
        else:
            sreg = rm16""", "mov {rm},%{sreg}", "mov", width=2, cycles=6,
       aliases=_BAD_SREG),
    Op("mov_rm_sreg", {0x8C: "rm,r"}, """
        if regno > 5:
            ud("mov from sreg 6/7")
        elif mem:
            rm16 = sreg
        else:
            rm32 = sreg""", "mov %{sreg},{rm}", "mov", width=2,
       aliases=_BAD_SREG),
    Op("mov_cr", {0x0F20: "rm,r", 0x0F22: "rm,r"}, """
        check_privilege("mov cr")
        if op2 == 0:
            gpr_rm = cr
        else:
            cr = gpr_rm""", ("mov %cr{regno},{gprm}", "mov {gprm},%cr{regno}"),
       "mov", cycles=10, op2=lambda code, d: code >> 1 & 1),
    Op("movs", {0xA4: "string", 0xA5: "string", 0xF3A4: "string",
                0xF3A5: "string"}, _string("""
        store(edi, load(esi, width), width, ES)
        esi = (esi + width) & M
        edi = (edi + width) & M"""),
       mnemonic=lambda c, op2: ("rep " if op2 else "")
       + ("movsd" if c & 1 else "movsb"),
       width="bw", cycles=2, op2=lambda code, d: int(code >> 8 == 0xF3),
       unbounded=True),
    Op("stos", {0xAA: "string", 0xAB: "string", 0xF3AA: "string",
                0xF3AB: "string"}, _string("""
        store(edi, acc, width, ES)
        edi = (edi + width) & M"""),
       mnemonic=lambda c, op2: ("rep " if op2 else "")
       + ("stosd" if c & 1 else "stosb"),
       width="bw", cycles=2, op2=lambda code, d: int(code >> 8 == 0xF3),
       unbounded=True),
    # -- two-byte opcodes ------------------------------------------------------
    Op("setcc", _span(0x0F90, 16, "rm"), "rm8 = 1 if cond else 0",
       "{name} {rm8}", _cc("set"), width=1, op2=lambda code, d: code & 0xF),
    Op("cmovcc", _span(0x0F40, 16, "r,rm"), """
        if cond:
            reg = rm""", "{name} {rm},{reg}", _cc("cmov"), width="w",
       op2=lambda code, d: code & 0xF),
    Op("bt", {0x0FA3: "rm,r", 0x0FAB: "rm,r", 0x0FB3: "rm,r", 0x0FBB: "rm,r"},
       _bt("reg32"), "{name} {reg32},{rm32}", lambda c, op2: _BT[op2],
       op2=lambda code, d: code >> 3 & 3),
    Op("bt_imm", {0x0FBA: "rm,imm8"}, _bt("imm"), "{name} {imm},{rm32}",
       lambda c, op2: _BT[op2], op2=lambda code, d: d - 4,
       digits={0x0FBA: (4, 5, 6, 7)}),
    Op("bsf", {0x0FBC: "r,rm"}, _scan("(v & -v).bit_length() - 1"),
       "{name} {rm32},{reg32}", "bsf"),
    Op("bsr", {0x0FBD: "r,rm"}, _scan("v.bit_length() - 1"),
       "{name} {rm32},{reg32}", "bsr"),
    # shld/shrd r/m32, r32, imm8 (op2 0/1); a zero count changes nothing
    Op("shld", {0x0FA4: "rm,imm8", 0x0FAC: "rm,imm8"}, """
        n = imm & 31
        if n:
            v = rm32
            f = reg32
            if op2 == 0:
                r = ((v << n) | (f >> (32 - n))) & M
            else:
                r = ((v >> n) | (f << (32 - n))) & M
            logic(r)
            rm32 = r""", "{name} {imm},{reg32},{rm32}",
       lambda c, op2: ("shld", "shrd")[op2], op2=lambda code, d: code >> 3 & 1),
    Op("xadd", {0x0FC0: "rm,r", 0x0FC1: "rm,r"}, """
        t = rm
        rm = add(t, reg)
        reg = t""", "{name} {reg},{rm}", "xadd", width="bw"),
    Op("cmpxchg", {0x0FB0: "rm,r", 0x0FB1: "rm,r"}, """
        a = acc
        v = rm
        sub(a, v)
        if a == v:
            rm = reg
        else:
            acc = v""", "{name} {reg},{rm}", "cmpxchg", width="bw"),
)

#: row by name
OPS: Dict[str, Op] = {op.name: op for op in TABLE}


def op_of(i: Instr) -> Op:
    """The row a decoded instruction's step executor belongs to."""
    return cast(Op, LANG.rows[i.execute])
