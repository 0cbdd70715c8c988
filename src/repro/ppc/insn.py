"""Decoded-instruction representation for the G4-like core.

PowerPC instructions are exactly one 32-bit word; decoding never changes
stream alignment, which is the architectural root of the G4's behaviour
under code errors: a bit flip perturbs exactly one instruction, and most
perturbations land in unassigned encoding space (Illegal Instruction).
"""

from __future__ import annotations

from typing import Callable


class PPCInstr:
    """One decoded PowerPC instruction (subset)."""

    __slots__ = ("mnemonic", "execute", "rt", "ra", "rb", "imm", "op2",
                 "cycles", "word")

    #: every instruction is one word
    length = 4

    def __init__(self, mnemonic: str,
                 execute: Callable[["object", "PPCInstr"], None],
                 rt: int = 0, ra: int = 0, rb: int = 0, imm: int = 0,
                 op2: int = 0, cycles: int = 1, word: int = 0) -> None:
        self.mnemonic = mnemonic
        self.execute = execute
        self.rt = rt
        self.ra = ra
        self.rb = rb
        self.imm = imm
        self.op2 = op2
        self.cycles = cycles
        self.word = word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PPCInstr({self.mnemonic!r}, rt={self.rt}, ra={self.ra}, "
                f"rb={self.rb}, imm={self.imm:#x})")
