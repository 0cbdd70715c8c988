"""Encoding-level classification of single-bit text corruptions.

For a given (instruction address, bit) the analyzer decodes the
flipped bytes exactly the way the injected machine would refetch them
and compares against the clean decode:

* ``NO_CHANGE`` — the flipped encoding decodes to the same
  instruction (don't-care bits: x86 modrm corners, ppc reserved
  fields).  Provably cannot manifest.
* ``ILLEGAL`` — the flipped encoding decodes to a guaranteed
  invalid-opcode fault (``ud2``-like, undefined encodings, ppc's
  sparse opcode space).
* ``LENGTH_CHANGE`` — x86 only: the flipped instruction has a
  different byte length, so every later instruction in the stream is
  refetched desynchronized.  The paper's central P4-vs-G4 mechanism.
* ``OPCODE_SUB`` — same length, different operation.
* ``OPERAND_SUB`` — same operation, different register/immediate/
  addressing operands.
* ``DEAD_WRITE`` — never produced here; the predictor promotes a
  substitution to this class when liveness proves every changed
  destination dead (see :mod:`repro.static.predictor`).

The flip is applied to the in-memory byte exactly like
``injection.injector`` does: ``byte = addr + bit//8``, bit ``bit%8``
within that byte.  PowerPC words are big-endian in memory, so memory
byte 0 is word bits 31..24.
"""

from __future__ import annotations

import enum
from typing import Tuple, Union

from repro.kernel.image import KernelImage
from repro.ppc import decoder as pdec
from repro.ppc.insn import PPCInstr
from repro.static.cfg import decode_at
from repro.x86 import decoder as xdec
from repro.x86.insn import Instr
from repro.x86.isa import OPS, op_of

AnyInstr = Union[Instr, PPCInstr]


class CorruptionClass(enum.Enum):
    NO_CHANGE = "no-change"
    ILLEGAL = "illegal"
    LENGTH_CHANGE = "length-change"
    OPCODE_SUB = "opcode-sub"
    OPERAND_SUB = "operand-sub"
    DEAD_WRITE = "dead-write"

    def __str__(self) -> str:
        return self.value


#: x86 execute functions that fault unconditionally when reached
_X86_ALWAYS_ILLEGAL = (OPS["invalid"].execute, OPS["ud2"].execute)

_X86_SEMANTIC_SLOTS = Instr.__slots__
_PPC_SEMANTIC_SLOTS = tuple(s for s in PPCInstr.__slots__
                            if s != "word")


def _same_semantics(a: AnyInstr, b: AnyInstr) -> bool:
    slots = _X86_SEMANTIC_SLOTS if isinstance(a, Instr) \
        else _PPC_SEMANTIC_SLOTS
    return all(getattr(a, s) == getattr(b, s) for s in slots)


def _is_illegal(insn: AnyInstr) -> bool:
    if isinstance(insn, Instr):
        if insn.execute in _X86_ALWAYS_ILLEGAL:
            return True
        # undefined sub-encodings that fault when executed
        name = op_of(insn).name
        if name == "grp5" and insn.op2 not in (0, 1, 2, 4, 6):
            return True
        if name == "grp2" and (insn.op2 & 7) in (2, 3, 6):
            return True
        return name in ("lea", "bound") and insn.rm_reg >= 0
    return insn.execute is pdec.exec_illegal


def flip_decode(arch: str, image: KernelImage, addr: int,
                bit: int) -> AnyInstr:
    """Decode the instruction at ``addr`` with ``bit`` flipped, the
    way the machine would refetch it after the injection."""
    off = addr - image.text_base
    if arch == "x86":
        window = bytearray(
            image.text_bytes[off:off + xdec.MAX_INSN_LEN])
        if len(window) < xdec.MAX_INSN_LEN:
            window.extend(bytes(xdec.MAX_INSN_LEN - len(window)))
        window[bit // 8] ^= 1 << (bit % 8)
        return xdec.decode(bytes(window), addr)
    word = int.from_bytes(image.text_bytes[off:off + 4], "big")
    # big-endian in memory: byte 0 holds word bits 31..24
    word ^= 1 << ((3 - bit // 8) * 8 + bit % 8)
    return pdec.decode(word, addr)


def classify_flip(arch: str, image: KernelImage, addr: int,
                  bit: int) -> Tuple[CorruptionClass, AnyInstr]:
    """Classify flipping ``bit`` of the instruction at ``addr``.

    Returns the encoding-level corruption class and the flipped
    decode (for downstream effect analysis).
    """
    original = decode_at(arch, image, addr)
    flipped = flip_decode(arch, image, addr, bit)
    if _same_semantics(original, flipped):
        return CorruptionClass.NO_CHANGE, flipped
    if _is_illegal(flipped):
        return CorruptionClass.ILLEGAL, flipped
    if isinstance(flipped, Instr) and isinstance(original, Instr) \
            and flipped.length != original.length:
        return CorruptionClass.LENGTH_CHANGE, flipped
    if flipped.execute is not original.execute \
            or flipped.mnemonic != original.mnemonic:
        return CorruptionClass.OPCODE_SUB, flipped
    # x86 groups (grp1/2/3/5, jcc/setcc/cmovcc) encode the operation
    # or condition in op2 under a shared mnemonic; ppc op2 carries
    # operand fields (rlwinm mask end, cmp CR field), so an op2-only
    # change there is an operand substitution
    if arch == "x86" and flipped.op2 != original.op2:
        return CorruptionClass.OPCODE_SUB, flipped
    return CorruptionClass.OPERAND_SUB, flipped
