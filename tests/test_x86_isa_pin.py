"""x86 decode, effect summaries and disassembly pinned byte string by
byte string.

``tests/data/x86_isa_digests.json`` holds sha256 digests of the decode
fields (mnemonic, length, cycles, executor name and every operand
slot), the full ``insn_effects`` and the disassembly text of two sets:

* every instruction of the x86 kernel text, decoded linearly from the
  text base at its own address;
* a seeded sweep of every one-byte and ``0x0F`` opcode slot under the
  effect oracle's prefixes, with each ModRM ``/digit`` and random
  operand bytes.

Each set is digested as a whole and per mnemonic, so a drift names the
instructions it touches.  Re-record deliberately with
``PYTHONPATH=src python tests/test_x86_isa_pin.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.kernel.build import build_kernel
from repro.static.effects import insn_effects
from repro.x86.decoder import MAX_INSN_LEN, decode
from repro.x86.disasm import format_instr

PIN_PATH = Path(__file__).parent / "data" / "x86_isa_digests.json"

SWEEP_ADDR = 0x00400000
SWEEP_SEED = 2004
SWEEP_DRAWS = 2

#: the prefixes the effect oracle sweeps (tests/test_effects_oracle.py)
X86_PREFIXES = (b"", b"\x66", b"\xf3", b"\x0f", b"\x66\x0f")

VIEWS = ("decode", "effects", "disasm")


def sweep_codes() -> Iterator[Tuple[int, bytes]]:
    """Every prefix x opcode x ModRM digit, with random operand bytes."""
    rng = random.Random(SWEEP_SEED)
    for prefix in X86_PREFIXES:
        for opcode in range(256):
            for digit in range(8):
                for _ in range(SWEEP_DRAWS):
                    modrm = rng.randrange(256) & ~0x38 | digit << 3
                    tail = bytes(rng.randrange(256)
                                 for _ in range(MAX_INSN_LEN))
                    yield SWEEP_ADDR, prefix + bytes([opcode, modrm]) + tail


def kernel_codes() -> Iterator[Tuple[int, bytes]]:
    image = build_kernel("x86")
    text = image.text_bytes + bytes(MAX_INSN_LEN)
    off = 0
    while off < len(image.text_bytes):
        code = text[off:off + MAX_INSN_LEN]
        yield image.text_base + off, code
        off += decode(code, image.text_base + off).length


def _records(codes) -> Dict[str, Dict[str, List[str]]]:
    out: Dict[str, Dict[str, List[str]]] = {
        view: defaultdict(list) for view in VIEWS}
    for addr, code in codes:
        i = decode(code[:MAX_INSN_LEN], addr)
        e = insn_effects(i, addr)
        raw = code[:i.length].hex()
        out["decode"][i.mnemonic].append(json.dumps(
            [raw, i.mnemonic, i.length, i.cycles, i.execute.__name__,
             i.reg, i.rm_reg, i.base, i.index, i.scale, i.disp, i.imm,
             i.width, i.seg, i.op2]))
        out["effects"][i.mnemonic].append(json.dumps(
            [raw, addr, sorted(e.uses), sorted(e.defs), e.reads_mem,
             e.writes_mem, e.kind, e.target, e.may_fault, e.system]))
        out["disasm"][i.mnemonic].append(json.dumps(
            [raw, addr, format_instr(i, addr)]))
    return out


def _sha(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_set(codes) -> dict:
    records = _records(codes)
    entry = {}
    for view, groups in records.items():
        entry[view] = {
            "all": _sha([line for name in sorted(groups)
                         for line in groups[name]]),
            "by_mnemonic": {name: _sha(lines)
                            for name, lines in sorted(groups.items())},
        }
    entry["instructions"] = sum(len(lines)
                                for lines in records["decode"].values())
    return entry


def compute() -> dict:
    return {"kernel_text": digest_set(kernel_codes()),
            "slot_sweep": digest_set(sweep_codes())}


CURRENT: dict = {}


def _current(name: str) -> dict:
    if not CURRENT:
        CURRENT.update(compute())
    return CURRENT[name]


def _assert_matches(name: str) -> None:
    now = _current(name)
    pinned = json.loads(PIN_PATH.read_text())[name]
    assert now["instructions"] == pinned["instructions"]
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


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {PIN_PATH}")
