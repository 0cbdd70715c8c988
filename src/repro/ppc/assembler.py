"""Structured PowerPC assembler used by the ``kcc`` PPC backend.

Same philosophy as :mod:`repro.x86.assembler`: a builder API producing
exactly the encodings the decoder understands (opcode numbers and
operand forms come from :mod:`repro.ppc.isa`), with local label fixups
(14-bit conditional and 24-bit unconditional branch displacements) and
linker relocations for cross-function ``bl`` and ``lis``/``ori`` address
materialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.ppc.isa import encode
from repro.ppc.registers import SPR_CTR, SPR_LR


class AssemblerError(Exception):
    pass


@dataclass
class Reloc:
    """An unresolved reference to an external symbol.

    ``kind`` is one of ``"rel24"`` (bl), ``"hi16"``, ``"lo16"``
    (lis/ori address materialization).
    """

    offset: int
    symbol: str
    kind: str


def dform(opcd: int, rt: int, ra: int, imm: int) -> int:
    return ((opcd & 0x3F) << 26) | ((rt & 0x1F) << 21) | \
        ((ra & 0x1F) << 16) | (imm & 0xFFFF)


def xform(opcd: int, rt: int, ra: int, rb: int, ext: int,
          rc: int = 0) -> int:
    return ((opcd & 0x3F) << 26) | ((rt & 0x1F) << 21) | \
        ((ra & 0x1F) << 16) | ((rb & 0x1F) << 11) | \
        ((ext & 0x3FF) << 1) | (rc & 1)


class PPCAssembler:
    """Accumulates encoded instruction words plus labels/relocations."""

    def __init__(self) -> None:
        self.words: List[int] = []
        self.labels: Dict[str, int] = {}
        self._fixups: List[Tuple[int, str, str]] = []   # index, label, kind
        self.relocs: List[Reloc] = []

    # -- plumbing ---------------------------------------------------------

    def emit(self, word: int) -> int:
        self.words.append(word & 0xFFFFFFFF)
        return len(self.words) - 1

    def label(self, name: str) -> None:
        if name in self.labels:
            raise AssemblerError(f"duplicate label {name}")
        self.labels[name] = len(self.words)

    def new_label(self, hint: str = "L") -> str:
        return f".{hint}{len(self.words)}_{len(self._fixups)}"

    @property
    def size(self) -> int:
        return len(self.words) * 4

    # -- arithmetic ---------------------------------------------------------

    def addi(self, rt: int, ra: int, imm: int) -> None:
        self.emit(encode("addi", rt=rt, ra=ra, imm=imm))

    def addis(self, rt: int, ra: int, imm: int) -> None:
        self.emit(encode("addis", rt=rt, ra=ra, imm=imm))

    def li(self, rt: int, imm: int) -> None:
        self.addi(rt, 0, imm)

    def lis(self, rt: int, imm: int) -> None:
        self.addis(rt, 0, imm)

    def mulli(self, rt: int, ra: int, imm: int) -> None:
        self.emit(encode("mulli", rt=rt, ra=ra, imm=imm))

    def add(self, rt: int, ra: int, rb: int) -> None:
        self.emit(encode("add", rt=rt, ra=ra, rb=rb))

    def subf(self, rt: int, ra: int, rb: int) -> None:
        self.emit(encode("subf", rt=rt, ra=ra, rb=rb))

    def neg(self, rt: int, ra: int) -> None:
        self.emit(encode("neg", rt=rt, ra=ra))

    def mullw(self, rt: int, ra: int, rb: int) -> None:
        self.emit(encode("mullw", rt=rt, ra=ra, rb=rb))

    def divw(self, rt: int, ra: int, rb: int) -> None:
        self.emit(encode("divw", rt=rt, ra=ra, rb=rb))

    def divwu(self, rt: int, ra: int, rb: int) -> None:
        self.emit(encode("divwu", rt=rt, ra=ra, rb=rb))

    # -- logic (note rs-in-rt-slot encoding for X-form logicals) -------------

    def and_(self, ra: int, rs: int, rb: int) -> None:
        self.emit(encode("and", rt=rs, ra=ra, rb=rb))

    def or_(self, ra: int, rs: int, rb: int) -> None:
        self.emit(encode("or", rt=rs, ra=ra, rb=rb))

    def mr(self, ra: int, rs: int) -> None:
        self.or_(ra, rs, rs)

    def xor_(self, ra: int, rs: int, rb: int) -> None:
        self.emit(encode("xor", rt=rs, ra=ra, rb=rb))

    def nor(self, ra: int, rs: int, rb: int) -> None:
        self.emit(encode("nor", rt=rs, ra=ra, rb=rb))

    def slw(self, ra: int, rs: int, rb: int) -> None:
        self.emit(encode("slw", rt=rs, ra=ra, rb=rb))

    def srw(self, ra: int, rs: int, rb: int) -> None:
        self.emit(encode("srw", rt=rs, ra=ra, rb=rb))

    def sraw(self, ra: int, rs: int, rb: int) -> None:
        self.emit(encode("sraw", rt=rs, ra=ra, rb=rb))

    def srawi(self, ra: int, rs: int, sh: int) -> None:
        self.emit(encode("srawi", rt=rs, ra=ra, rb=sh))

    def ori(self, ra: int, rs: int, imm: int) -> None:
        self.emit(encode("ori", rt=rs, ra=ra, imm=imm))

    def oris(self, ra: int, rs: int, imm: int) -> None:
        self.emit(encode("oris", rt=rs, ra=ra, imm=imm))

    def xori(self, ra: int, rs: int, imm: int) -> None:
        self.emit(encode("xori", rt=rs, ra=ra, imm=imm))

    def andi_dot(self, ra: int, rs: int, imm: int) -> None:
        self.emit(encode("andi.", rt=rs, ra=ra, imm=imm))

    def rlwinm(self, ra: int, rs: int, sh: int, mb: int, me: int) -> None:
        self.emit(encode("rlwinm", rt=rs, ra=ra, rb=sh, imm=mb, op2=me))

    def nop(self) -> None:
        self.ori(0, 0, 0)

    # -- compare ---------------------------------------------------------------

    def cmpwi(self, ra: int, imm: int, crf: int = 0) -> None:
        self.emit(encode("cmpwi", ra=ra, imm=imm, op2=crf))

    def cmplwi(self, ra: int, imm: int, crf: int = 0) -> None:
        self.emit(encode("cmplwi", ra=ra, imm=imm, op2=crf))

    def cmpw(self, ra: int, rb: int, crf: int = 0) -> None:
        self.emit(encode("cmpw", ra=ra, rb=rb, op2=crf))

    def cmplw(self, ra: int, rb: int, crf: int = 0) -> None:
        self.emit(encode("cmplw", ra=ra, rb=rb, op2=crf))

    # -- memory ---------------------------------------------------------------

    def lwz(self, rt: int, d: int, ra: int) -> None:
        self.emit(encode("lwz", rt=rt, ra=ra, imm=d))

    def lwzu(self, rt: int, d: int, ra: int) -> None:
        self.emit(encode("lwzu", rt=rt, ra=ra, imm=d))

    def lbz(self, rt: int, d: int, ra: int) -> None:
        self.emit(encode("lbz", rt=rt, ra=ra, imm=d))

    def lhz(self, rt: int, d: int, ra: int) -> None:
        self.emit(encode("lhz", rt=rt, ra=ra, imm=d))

    def lha(self, rt: int, d: int, ra: int) -> None:
        self.emit(encode("lha", rt=rt, ra=ra, imm=d))

    def stw(self, rs: int, d: int, ra: int) -> None:
        self.emit(encode("stw", rt=rs, ra=ra, imm=d))

    def stwu(self, rs: int, d: int, ra: int) -> None:
        self.emit(encode("stwu", rt=rs, ra=ra, imm=d))

    def stb(self, rs: int, d: int, ra: int) -> None:
        self.emit(encode("stb", rt=rs, ra=ra, imm=d))

    def sth(self, rs: int, d: int, ra: int) -> None:
        self.emit(encode("sth", rt=rs, ra=ra, imm=d))

    def lmw(self, rt: int, d: int, ra: int) -> None:
        self.emit(encode("lmw", rt=rt, ra=ra, imm=d))

    def stmw(self, rs: int, d: int, ra: int) -> None:
        self.emit(encode("stmw", rt=rs, ra=ra, imm=d))

    def lwzx(self, rt: int, ra: int, rb: int) -> None:
        self.emit(encode("lwzx", rt=rt, ra=ra, rb=rb))

    def stwx(self, rs: int, ra: int, rb: int) -> None:
        self.emit(encode("stwx", rt=rs, ra=ra, rb=rb))

    def lbzx(self, rt: int, ra: int, rb: int) -> None:
        self.emit(encode("lbzx", rt=rt, ra=ra, rb=rb))

    def stbx(self, rs: int, ra: int, rb: int) -> None:
        self.emit(encode("stbx", rt=rs, ra=ra, rb=rb))

    def lhzx(self, rt: int, ra: int, rb: int) -> None:
        self.emit(encode("lhzx", rt=rt, ra=ra, rb=rb))

    def sthx(self, rs: int, ra: int, rb: int) -> None:
        self.emit(encode("sthx", rt=rs, ra=ra, rb=rb))

    # -- branches ----------------------------------------------------------------

    def b_label(self, label: str) -> None:
        self._fixups.append((len(self.words), label, "rel24"))
        self.emit(encode("b"))

    def bl_sym(self, symbol: str) -> None:
        self.relocs.append(Reloc(len(self.words) * 4, symbol, "rel24"))
        self.emit(encode("b", op2=1))

    def bc_label(self, bo: int, bi: int, label: str) -> None:
        self._fixups.append((len(self.words), label, "rel14"))
        self.emit(encode("bc", rt=bo, ra=bi))

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

    def blr(self) -> None:
        self.emit(encode("bclr", rt=20))

    def bctrl(self) -> None:
        self.emit(encode("bcctr", rt=20, op2=1))

    def bctr(self) -> None:
        self.emit(encode("bcctr", rt=20))

    # -- SPR / system --------------------------------------------------------------

    def mfspr(self, rt: int, spr: int) -> None:
        self.emit(encode("mfspr", rt=rt, imm=spr))

    def mtspr(self, spr: int, rs: int) -> None:
        self.emit(encode("mtspr", rt=rs, imm=spr))

    def mflr(self, rt: int) -> None:
        self.mfspr(rt, SPR_LR)

    def mtlr(self, rs: int) -> None:
        self.mtspr(SPR_LR, rs)

    def mfctr(self, rt: int) -> None:
        self.mfspr(rt, SPR_CTR)

    def mtctr(self, rs: int) -> None:
        self.mtspr(SPR_CTR, rs)

    def mfmsr(self, rt: int) -> None:
        self.emit(encode("mfmsr", rt=rt))

    def mtmsr(self, rs: int) -> None:
        self.emit(encode("mtmsr", rt=rs))

    def sc(self) -> None:
        self.emit(encode("sc"))

    def twi(self, to: int, ra: int, imm: int) -> None:
        self.emit(encode("twi", rt=to, ra=ra, imm=imm))

    def trap(self) -> None:
        """Unconditional trap — the kernel's BUG() on PowerPC."""
        self.emit(encode("tw", rt=31))    # tw 31,r0,r0

    def isync(self) -> None:
        self.emit(encode("isync"))

    def sync(self) -> None:
        self.emit(encode("sync"))

    # -- address materialization -----------------------------------------------------

    def load_addr_sym(self, rt: int, symbol: str) -> None:
        """lis rt, sym@hi ; ori rt, rt, sym@lo  (linker-resolved)."""
        self.relocs.append(Reloc(len(self.words) * 4, symbol, "hi16"))
        self.lis(rt, 0)
        self.relocs.append(Reloc(len(self.words) * 4, symbol, "lo16"))
        self.ori(rt, rt, 0)

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

    # -- finalization -------------------------------------------------------------------

    def finish(self) -> bytes:
        """Resolve label fixups and return big-endian code bytes."""
        for index, label, kind in self._fixups:
            if label not in self.labels:
                raise AssemblerError(f"undefined label {label}")
            rel = (self.labels[label] - index) * 4
            word = self.words[index]
            if kind == "rel24":
                if not -(1 << 25) <= rel < (1 << 25):
                    raise AssemblerError("rel24 overflow")
                word |= rel & 0x03FFFFFC
            else:
                if not -(1 << 15) <= rel < (1 << 15):
                    raise AssemblerError("rel14 overflow")
                word |= rel & 0xFFFC
            self.words[index] = word
        self._fixups.clear()
        out = bytearray()
        for word in self.words:
            out.extend(word.to_bytes(4, "big"))
        return bytes(out)
