"""PowerPC decode and effect summaries pinned word by word.

``tests/data/ppc_isa_digests.json`` holds sha256 digests of the decode
fields (mnemonic, rt, ra, rb, imm, op2, cycles), the full
``insn_effects`` and the disassembly text of two word sets:

* every word of the ppc kernel text, at its own address;
* a seeded sweep of every primary/extended opcode slot with random
  operand fields.

Each set is digested as a whole and per mnemonic, so a drift names the
instructions it touches.  Re-record deliberately with
``PYTHONPATH=src python tests/test_ppc_isa_pin.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.kernel.build import build_kernel
from repro.ppc.decoder import decode, exec_illegal, exec_lhax, exec_mfspr
from repro.ppc.disasm import format_instr
from repro.static.effects import insn_effects

PIN_PATH = Path(__file__).parent / "data" / "ppc_isa_digests.json"

SWEEP_ADDR = 0x00400000
SWEEP_SEED = 2004
SWEEP_DRAWS = 4

VIEWS = ("decode", "effects", "disasm")


def slot_words() -> List[int]:
    """Every primary opcode, and every extended opcode of the two
    extended families (19 and 31), with zero operand fields."""
    words = [op << 26 for op in range(64) if op not in (19, 31)]
    for primary in (19, 31):
        words += [(primary << 26) | (ext << 1) for ext in range(1024)]
    return words


def sweep_words() -> Iterator[Tuple[int, int]]:
    rng = random.Random(SWEEP_SEED)
    for slot in slot_words():
        yield SWEEP_ADDR, slot
        for _ in range(SWEEP_DRAWS):
            if slot >> 26 in (19, 31):
                operands = (rng.randrange(1 << 15) << 11) | rng.randrange(2)
            else:
                operands = rng.randrange(1 << 26)
            yield SWEEP_ADDR, slot | operands


def kernel_words() -> Iterator[Tuple[int, int]]:
    image = build_kernel("ppc")
    text = image.text_bytes
    for off in range(0, len(text) - 3, 4):
        yield image.text_base + off, int.from_bytes(text[off:off + 4], "big")


def _records(words) -> Dict[str, Dict[str, List[str]]]:
    out: Dict[str, Dict[str, List[str]]] = {
        view: defaultdict(list) for view in VIEWS}
    for addr, word in words:
        i = decode(word, addr)
        e = insn_effects(i, addr)
        out["decode"][i.mnemonic].append(json.dumps(
            [word, i.mnemonic, i.rt, i.ra, i.rb, i.imm, i.op2, i.cycles]))
        out["effects"][i.mnemonic].append(json.dumps(
            [word, addr, sorted(e.uses), sorted(e.defs), e.reads_mem,
             e.writes_mem, e.kind, e.target, e.may_fault, e.system]))
        out["disasm"][i.mnemonic].append(json.dumps(
            [word, addr, format_instr(i, addr)]))
    return out


def _sha(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_set(words) -> dict:
    records = _records(words)
    entry = {}
    for view, groups in records.items():
        entry[view] = {
            "all": _sha([line for name in sorted(groups)
                         for line in groups[name]]),
            "by_mnemonic": {name: _sha(lines)
                            for name, lines in sorted(groups.items())},
        }
    entry["words"] = sum(len(lines) for lines in records["decode"].values())
    return entry


def compute() -> dict:
    return {"kernel_text": digest_set(kernel_words()),
            "slot_sweep": digest_set(sweep_words())}


CURRENT: dict = {}


def _current(name: str) -> dict:
    if not CURRENT:
        CURRENT.update(compute())
    return CURRENT[name]


def _assert_matches(name: str) -> None:
    now = _current(name)
    pinned = json.loads(PIN_PATH.read_text())[name]
    assert now["words"] == pinned["words"]
    for view in VIEWS:
        drift = sorted(
            mnemonic for mnemonic in set(now[view]["by_mnemonic"])
            | set(pinned[view]["by_mnemonic"])
            if now[view]["by_mnemonic"].get(mnemonic)
            != pinned[view]["by_mnemonic"].get(mnemonic))
        assert not drift, f"{name} {view} drifted for {drift}"
        assert now[view]["all"] == pinned[view]["all"]


def test_kernel_text_pinned():
    _assert_matches("kernel_text")


def test_slot_sweep_pinned():
    _assert_matches("slot_sweep")


def test_decoder_names_importable():
    assert decode(0x7C0802A6).execute is exec_mfspr        # mflr r0
    assert decode(0x7C0802AE).execute is exec_lhax         # paper Fig. 15
    assert decode(0).execute is exec_illegal


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {PIN_PATH}")
