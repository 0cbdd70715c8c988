"""PowerPC decode for the G4-like core, derived from :mod:`repro.ppc.isa`.

A word decodes to the table row its primary (and, for the families 19
and 31, extended) opcode selects, or to ``(illegal)``.  The step
executor of each row is re-exported here as ``exec_<op>``.
"""

from __future__ import annotations

from typing import Dict

from repro.ppc.insn import PPCInstr
from repro.ppc.isa import ILLEGAL_OP, OPS, lookup

#: word -> decoded instruction.  PowerPC decoding depends on nothing
#: but the 32-bit word (branch targets are resolved at execute time
#: from ``cpu.current_pc``) and :class:`PPCInstr` is immutable after
#: construction, so one decode serves every address, machine, and
#: campaign in the process.  Sits *behind* the per-address icache:
#: only decode-cache misses reach it.
_WORD_MEMO: Dict[int, PPCInstr] = {}
_WORD_MEMO_LIMIT = 1 << 16          # bound growth under random flips

exec_illegal = ILLEGAL_OP.execute
exec_lhax = OPS["lhax"].execute
exec_mfspr = OPS["mfspr"].execute


def decode(word: int, addr: int = 0) -> PPCInstr:
    """Decode one 32-bit instruction word.  Never raises."""
    instr = _WORD_MEMO.get(word)
    if instr is None:
        instr = lookup(word).build(word)
        if len(_WORD_MEMO) < _WORD_MEMO_LIMIT:
            _WORD_MEMO[word] = instr
    return instr
