"""Decoded-instruction representation for the P4-like core.

A decoded :class:`Instr` is immutable in practice and cached per address
(the decode cache is what a trace cache buys the real P4); code writes —
including injected bit flips — invalidate the cache.  The ``execute``
slot holds a module-level function ``fn(cpu, instr)``; keeping operands
in plain int slots keeps the interpreter loop allocation-free.
"""

from __future__ import annotations

from typing import Callable

from repro.x86.registers import SEG_DS


class Instr:
    """One decoded IA-32 instruction (subset)."""

    __slots__ = (
        "mnemonic", "length", "cycles", "execute",
        "reg", "rm_reg", "base", "index", "scale", "disp",
        "imm", "width", "seg", "op2",
    )

    def __init__(self, mnemonic: str, length: int, cycles: int,
                 execute: Callable[["object", "Instr"], None],
                 reg: int = 0, rm_reg: int = -1, base: int = -1,
                 index: int = -1, scale: int = 1, disp: int = 0,
                 imm: int = 0, width: int = 4, seg: int = SEG_DS,
                 op2: int = 0) -> None:
        self.mnemonic = mnemonic
        self.length = length
        self.cycles = cycles
        self.execute = execute
        self.reg = reg
        self.rm_reg = rm_reg
        self.base = base
        self.index = index
        self.scale = scale
        self.disp = disp
        self.imm = imm
        self.width = width
        self.seg = seg
        self.op2 = op2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Instr({self.mnemonic!r}, len={self.length}, "
                f"reg={self.reg}, rm_reg={self.rm_reg}, base={self.base}, "
                f"disp={self.disp:#x}, imm={self.imm:#x})")
