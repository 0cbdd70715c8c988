"""The assembler core both ISAs share: code, labels, relocations.

An :class:`Assembler` accumulates encoded bytes in ``code`` and the
byte offset of every instruction in ``insn_offsets``; the per-ISA
subclasses (:mod:`repro.x86.assembler`, :mod:`repro.ppc.assembler`)
add only the encodings.  A reference to a not-yet-known address is a
:class:`Reloc`: one against a local label is resolved by
:meth:`Assembler.finish`, one against a function or global symbol
stays in ``relocs`` for the linker (:mod:`repro.kcc.linker`).  Both
resolve through the one :func:`patch`, which knows every relocation
kind:

==========  ======  ==================================================
kind        order   field
==========  ======  ==================================================
``rel32``   little  32-bit displacement from the field's end (x86
                    ``call``/``jmp``/``jcc``)
``abs32``   little  32-bit address (x86 ``mov reg, imm32``)
``rel24``   big     word bits 6-29, displacement from the instruction,
                    ±32 MiB (PPC ``b``/``bl``)
``rel14``   big     word bits 16-29, displacement from the instruction,
                    ±32 KiB (PPC ``bc``)
``hi16``    big     low half-word := the address's high half (``lis``)
``lo16``    big     low half-word := the address's low half (``ori``)
==========  ======  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional


class AssemblerError(Exception):
    """A label or relocation that cannot be resolved as asked."""


@dataclass(frozen=True)
class Reloc:
    """A field of the code that holds a symbol's address.

    ``offset`` is the byte offset of the 32-bit field (on PPC, the
    whole instruction word) in the code.
    """

    offset: int
    symbol: str
    kind: str


class _Kind(NamedTuple):
    order: str               # byte order of the 32-bit field
    mask: int                # the field's bits within it
    shift: int               # value bits dropped before masking
    bias: Optional[int]      # pc-relative: field offset -> pc; else None
    bits: int                # signed width of a pc-relative value


#: relocation kind -> its field (rel32 takes any difference of two
#: 32-bit addresses: the x86 displacement wraps)
KINDS: Dict[str, _Kind] = {
    "rel32": _Kind("little", 0xFFFFFFFF, 0, 4, 33),
    "abs32": _Kind("little", 0xFFFFFFFF, 0, None, 0),
    "rel24": _Kind("big", 0x03FFFFFC, 0, 0, 26),
    "rel14": _Kind("big", 0xFFFC, 0, 0, 16),
    "hi16": _Kind("big", 0xFFFF, 16, None, 0),
    "lo16": _Kind("big", 0xFFFF, 0, None, 0),
}


def patch(code: bytearray, offset: int, kind: str, value: int,
          base: int = 0) -> None:
    """Fill the *kind* field at *offset* of *code* with the address
    *value*; *base* is the address of ``code[0]`` (it matters only to
    the pc-relative kinds)."""
    order, mask, shift, bias, bits = KINDS[kind]
    if bias is not None:
        value -= base + offset + bias
        if not -(1 << bits - 1) <= value < 1 << bits - 1:
            raise AssemblerError(f"{kind} overflow: displacement "
                                 f"{value:#x} at offset {offset:#x}")
    field = slice(offset, offset + 4)
    word = int.from_bytes(code[field], order)
    code[field] = (word & ~mask | value >> shift & mask).to_bytes(4, order)


class Assembler:
    """Code bytes, instruction offsets, labels and relocations."""

    def __init__(self) -> None:
        self.code = bytearray()
        #: byte offset of each emitted instruction (for injection maps)
        self.insn_offsets: List[int] = []
        #: label -> byte offset
        self.labels: Dict[str, int] = {}
        #: references to function and global symbols, for the linker
        self.relocs: List[Reloc] = []
        self._fixups: List[Reloc] = []       # references to labels
        self._label_count = 0

    def label(self, name: str) -> None:
        if name in self.labels:
            raise AssemblerError(f"duplicate label {name}")
        self.labels[name] = len(self.code)

    def new_label(self, hint: str = "L") -> str:
        self._label_count += 1
        return f".{hint}{self._label_count}"

    # the field of a relocation is the last 4 bytes emitted: an x86
    # instruction's trailing displacement or address, a PPC word

    def _reloc(self, symbol: str, kind: str) -> None:
        self.relocs.append(Reloc(len(self.code) - 4, symbol, kind))

    def _fixup(self, label: str, kind: str) -> None:
        self._fixups.append(Reloc(len(self.code) - 4, label, kind))

    def finish(self) -> bytes:
        """Resolve the label references; ``relocs`` stay for the
        linker."""
        for fixup in self._fixups:
            if fixup.symbol not in self.labels:
                raise AssemblerError(f"undefined label {fixup.symbol}")
            patch(self.code, fixup.offset, fixup.kind,
                  self.labels[fixup.symbol])
        self._fixups.clear()
        return bytes(self.code)
