"""Structured PowerPC assembler used by the ``kcc`` PPC backend.

Every row of the instruction table (:mod:`repro.ppc.isa`) has an
emitter method derived from the row's syntax template, the way PyPy's
``make_rassembler`` builds its PPC assembler from instruction
descriptions.  The template names the operands in assembly order and
:data:`repro.ppc.isa.SYNTAX` gives the field each name fills, so
``lwz r11,40(r31)`` is ``lwz(11, 40, 31)`` and ``rlwinm ra,rs,sh,mb,me``
is ``rlwinm(ra, rs, sh, mb, me)``.  A compare's CR field and a
branch's LK bit are keyword-only and default to 0
(``cmpwi(3, 5, crf=7)``, ``bcctr(20, 0, lk=1)``).  Row names that are
not Python names are spelled ``and_``, ``or_``, ``andi_dot`` and
``andis_dot`` (:func:`method_name`).

Written out here are only what no row states: the simplified
mnemonics (``li``, ``lis``, ``mr``, ``nop``, ``mflr``/``mtlr``/
``mfctr``/``mtctr``, ``trap``, ``blr``/``bctr``/``bctrl``,
``beq``...``ble``) and the forms that name a label or a symbol.  Code,
labels and relocations live in the shared core
(:mod:`repro.isa.assembler`): a branch to a label is a ``rel24`` or
``rel14`` fixup resolved by ``finish()``, a call a ``rel24``
relocation and an address a ``hi16``/``lo16`` pair, resolved by the
linker.
"""

from __future__ import annotations

import keyword
from string import Formatter
from typing import Callable, List, Optional, Tuple

from repro.isa.assembler import Assembler
from repro.ppc.isa import OPTIONAL, SYNTAX, TABLE, Op, encode
from repro.ppc.registers import SPR_CTR, SPR_LR


def method_name(row: str) -> str:
    """The emitter of row *row*: ``and`` -> ``and_``, ``andi.`` ->
    ``andi_dot``."""
    name = row.replace(".", "_dot")
    return name + "_" if keyword.iskeyword(name) else name


def operands(op: Op) -> Tuple[Tuple[str, ...], Optional[str]]:
    """The fields row *op*'s emitter takes positionally, in syntax
    order, and the syntax name of its keyword-only one, if any."""
    fields: List[str] = []
    option = None
    for _, name, _, _ in Formatter().parse(op.asm):
        if name in OPTIONAL:
            option = name
        elif name in SYNTAX:
            fields += [field for field in SYNTAX[name]
                       if field not in fields]
    return tuple(fields), option


def _emitter(op: Op) -> Callable[..., None]:
    fields, option = operands(op)
    row = op.name

    def emit_row(self: "PPCAssembler", *args: int, **options: int) -> None:
        if len(args) != len(fields) or options.keys() - {option}:
            raise TypeError(f"{method_name(row)} takes {fields}"
                            + (f" and {option}=" if option else ""))
        values = dict(zip(fields, args))
        if options:
            values[SYNTAX[option][0]] = options[option]
        self.emit(encode(row, **values))

    emit_row.__name__ = method_name(row)
    return emit_row


class PPCAssembler(Assembler):
    """One emitter per table row (attached below), plus the
    pseudo-ops."""

    def emit(self, word: int) -> None:
        self.insn_offsets.append(len(self.code))
        self.code += (word & 0xFFFFFFFF).to_bytes(4, "big")

    # -- simplified mnemonics -------------------------------------------------

    def li(self, rt: int, imm: int) -> None:
        self.addi(rt, 0, imm)

    def lis(self, rt: int, imm: int) -> None:
        self.addis(rt, 0, imm)

    def mr(self, ra: int, rs: int) -> None:
        self.or_(ra, rs, rs)

    def nop(self) -> None:
        self.ori(0, 0, 0)

    def mflr(self, rt: int) -> None:
        self.mfspr(rt, SPR_LR)

    def mtlr(self, rs: int) -> None:
        self.mtspr(SPR_LR, rs)

    def mfctr(self, rt: int) -> None:
        self.mfspr(rt, SPR_CTR)

    def mtctr(self, rs: int) -> None:
        self.mtspr(SPR_CTR, rs)

    def trap(self) -> None:
        """Unconditional trap — the kernel's BUG() on PowerPC."""
        self.tw(31, 0, 0)

    def blr(self) -> None:
        self.bclr(20, 0)

    def bctr(self) -> None:
        self.bcctr(20, 0)

    def bctrl(self) -> None:
        self.bcctr(20, 0, lk=1)

    # -- labels and symbols ---------------------------------------------------

    def b_label(self, label: str) -> None:
        self.b(0)
        self._fixup(label, "rel24")

    def bl_sym(self, symbol: str) -> None:
        self.emit(encode("b", op2=1))
        self._reloc(symbol, "rel24")

    def bc_label(self, bo: int, bi: int, label: str) -> None:
        self.bc(bo, bi, 0)
        self._fixup(label, "rel14")

    def beq(self, label: str, crf: int = 0) -> None:
        self.bc_label(12, 4 * crf + 2, label)

    def bne(self, label: str, crf: int = 0) -> None:
        self.bc_label(4, 4 * crf + 2, label)

    def blt(self, label: str, crf: int = 0) -> None:
        self.bc_label(12, 4 * crf + 0, label)

    def bge(self, label: str, crf: int = 0) -> None:
        self.bc_label(4, 4 * crf + 0, label)

    def bgt(self, label: str, crf: int = 0) -> None:
        self.bc_label(12, 4 * crf + 1, label)

    def ble(self, label: str, crf: int = 0) -> None:
        self.bc_label(4, 4 * crf + 1, label)

    def load_addr_sym(self, rt: int, symbol: str) -> None:
        """lis rt, sym@hi ; ori rt, rt, sym@lo  (linker-resolved)."""
        self.lis(rt, 0)
        self._reloc(symbol, "hi16")
        self.ori(rt, rt, 0)
        self._reloc(symbol, "lo16")

    def load_imm32(self, rt: int, value: int) -> None:
        value &= 0xFFFFFFFF
        high = (value >> 16) & 0xFFFF
        low = value & 0xFFFF
        if high:
            self.lis(rt, high)
            if low:
                self.ori(rt, rt, low)
        elif low & 0x8000:
            self.li(rt, 0)
            self.ori(rt, rt, low)
        else:
            self.li(rt, low)


for _op in TABLE:
    assert not hasattr(PPCAssembler, method_name(_op.name)), _op.name
    setattr(PPCAssembler, method_name(_op.name), _emitter(_op))
