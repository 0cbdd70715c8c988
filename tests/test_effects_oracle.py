"""Dynamic def/use oracle for the per-instruction effect model.

``repro.static.effects.insn_effects`` summarises what an instruction
reads and writes; the liveness analysis, the taint engine and the
taint-masked bit set trust that summary.  This module checks it
against the step core by running each instruction on a shadow CPU
(private register file, copy-on-write memory overlay) and asserting,
for every instruction:

* every resource whose value changed is in ``defs``;
* changing resources that are not in ``uses`` changes no def, no
  memory write, no fault and no successor pc;
* a load implies ``reads_mem`` and a store implies ``writes_mem``,
  unless the instruction is ``system``.

Two sources of instructions feed it: the clean monitored window of
both kernels (step mode, seed 0, ops 48 — the first few executions of
each static pc), and single-instruction sweeps on bare CPUs that reach
every PPC decode slot and every x86 executor.

x86 ``eflags`` is compared on the arithmetic-flag mask only: that is
the liveness resource (the system bits IF/DF/… are outside it, and
``set_flags_*`` carry them through unchanged).
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.core import Tiers
from repro.isa.debug import DebugUnit
from repro.isa.memory import Region
from repro.machine.machine import Machine, MachineConfig
from repro.ppc import decoder as pdec
from repro.ppc.cpu import PPCCPU
from repro.ppc.isa import OPS
from repro.static.effects import (
    EFLAGS, PPC_RESOURCES, X86_RESOURCES, InsnEffects, insn_effects,
)
from repro.workload.driver import UnixBenchDriver
from repro.x86 import decoder as xdec
from repro.x86.cpu import X86CPU
from repro.x86.registers import GPR_NAMES
from tests.test_ppc_isa_pin import slot_words

M = 0xFFFFFFFF
X86_ARITH = 0x0001 | 0x0004 | 0x0010 | 0x0040 | 0x0080 | 0x0800

#: executions of one static pc checked in the kernel window
PER_PC = 3

TEXT = 0x00400000
DATA = 0x00010000
DATA_SIZE = 0x20000
DATA_MID = DATA + DATA_SIZE // 2


# ---------------------------------------------------------------------------
# architecture adapters


def _ppc_read(cpu, name: str) -> int:
    if name[0] == "r":
        return cpu.gpr[int(name[1:])]
    if name.startswith("cr"):
        return (cpu.cr >> (28 - 4 * int(name[2:]))) & 0xF
    return getattr(cpu, name)


def _ppc_write(cpu, name: str, value: int) -> None:
    if name[0] == "r":
        cpu.gpr[int(name[1:])] = value & M
    elif name.startswith("cr"):
        shift = 28 - 4 * int(name[2:])
        cpu.cr = (cpu.cr & ~(0xF << shift) & M) | ((value & 0xF) << shift)
    else:
        setattr(cpu, name, value & M)


def _x86_read(cpu, name: str) -> int:
    if name == EFLAGS:
        return cpu.eflags & X86_ARITH
    return cpu.regs[GPR_NAMES.index(name)]


def _x86_write(cpu, name: str, value: int) -> None:
    if name == EFLAGS:
        cpu.eflags = (cpu.eflags & ~X86_ARITH) | (value & X86_ARITH)
    else:
        cpu.regs[GPR_NAMES.index(name)] = value & M


ADAPTERS = {
    "ppc": (PPC_RESOURCES, _ppc_read, _ppc_write, ("gpr", "spr")),
    "x86": (X86_RESOURCES, _x86_read, _x86_write, ("regs", "sregs")),
}


def _pc(cpu) -> int:
    return cpu.pc if isinstance(cpu, PPCCPU) else cpu.eip


# ---------------------------------------------------------------------------
# shadow execution


class _Overlay:
    """Reads fall through to the real memory; writes stay private."""

    def __init__(self, base) -> None:
        self.base = base
        self.written: Dict[int, int] = {}

    def read_u8(self, addr: int) -> int:
        addr &= M
        value = self.written.get(addr)
        return self.base.read_u8(addr) if value is None else value

    def read(self, addr: int, size: int) -> bytes:
        return bytes(self.read_u8(addr + k) for k in range(size))

    def write(self, addr: int, data: bytes) -> None:
        for k, byte in enumerate(data):
            self.written[(addr + k) & M] = byte

    def write_u8(self, addr: int, value: int) -> None:
        self.written[addr & M] = value & 0xFF

    def read_u16(self, addr: int, little: bool) -> int:
        return int.from_bytes(self.read(addr, 2), "little" if little else "big")

    def read_u32(self, addr: int, little: bool) -> int:
        return int.from_bytes(self.read(addr, 4), "little" if little else "big")

    def write_u16(self, addr: int, value: int, little: bool) -> None:
        self.write(addr, (value & 0xFFFF).to_bytes(2, "little" if little else "big"))

    def write_u32(self, addr: int, value: int, little: bool) -> None:
        self.write(addr, (value & M).to_bytes(4, "little" if little else "big"))


class _Accesses:
    """Tracer that records the data accesses of one shadow step."""

    def __init__(self) -> None:
        self.loads: List[Tuple[int, int]] = []
        self.stores: List[Tuple[int, int, int]] = []

    def on_fetch(self, cpu, pc: int) -> None:
        pass

    def on_load(self, cpu, addr: int, width: int, value: int) -> None:
        self.loads.append((addr, width))

    def on_store(self, cpu, addr: int, width: int, value: int) -> None:
        self.stores.append((addr, width, value))

    def on_reg_write(self, cpu, reg: str, old: int, new: int) -> None:
        pass


class _Run:
    __slots__ = ("cpu", "accesses", "fault")

    def __init__(self, cpu, accesses: _Accesses, fault: Optional[str]):
        self.cpu = cpu
        self.accesses = accesses
        self.fault = fault


def _shadow(arch: str, cpu, perturb: Dict[str, int]) -> _Run:
    """Step one instruction on a private copy of *cpu*."""
    _, _, write, lists = ADAPTERS[arch]
    shadow = copy.copy(cpu)
    for attr in lists:
        setattr(shadow, attr, copy.copy(getattr(cpu, attr)))
    shadow.mem = _Overlay(cpu.mem)
    shadow.aspace = copy.copy(cpu.aspace)
    shadow.debug = DebugUnit(1, 1)
    shadow.decodes = Tiers()
    shadow._block_cache = None
    if arch == "ppc":
        shadow.on_spr_write = None
    accesses = _Accesses()
    shadow.tracer = accesses
    for name, value in perturb.items():
        write(shadow, name, value)
    fault = None
    try:
        shadow.step()
    except Exception as exc:             # architectural faults
        fault = f"{type(exc).__name__}: {exc}"
    return _Run(shadow, accesses, fault)


def _outcome(arch: str, run: _Run, defs) -> tuple:
    """What the instruction produced.  A faulting instruction hands
    control to the exception vector: its defs were (at most) partly
    written, so they are not results and are left out."""
    read = ADAPTERS[arch][1]
    values = () if run.fault else \
        tuple((name, read(run.cpu, name)) for name in sorted(defs))
    return (run.fault, _pc(run.cpu), tuple(run.accesses.stores), values)


def _random_value(name: str, rng: random.Random) -> int:
    if name.startswith("cr"):
        return rng.randrange(16)
    return rng.randrange(1 << 32)


def check_instruction(arch: str, cpu, instr, effects: InsnEffects,
                      rng: random.Random) -> List[str]:
    """Violations of *effects* by one execution of *instr* on *cpu*."""
    resources, read, _, _ = ADAPTERS[arch]
    where = f"{instr.mnemonic} @ {_pc(cpu):#x}"
    problems = []
    base = _shadow(arch, cpu, {})
    changed = {name for name in resources
               if read(base.cpu, name) != read(cpu, name)}
    if not changed <= effects.defs:
        problems.append(f"{where}: defines {sorted(changed - effects.defs)}"
                        f" outside defs {sorted(effects.defs)}")
    if not effects.system:
        if base.accesses.loads and not effects.reads_mem:
            problems.append(f"{where}: loads without reads_mem")
        if base.accesses.stores and not effects.writes_mem:
            problems.append(f"{where}: stores without writes_mem")
    free = [name for name in resources if name not in effects.uses]
    expected = _outcome(arch, base, effects.defs)
    for _ in range(2):
        perturb = {name: _random_value(name, rng) for name in free}
        if _outcome(arch, _shadow(arch, cpu, perturb),
                    effects.defs) == expected:
            continue
        culprits = [name for name in free
                    if _outcome(arch, _shadow(arch, cpu,
                                              {name: perturb[name]}),
                                effects.defs) != expected]
        problems.append(f"{where}: result depends on {culprits or free}"
                        f" outside uses {sorted(effects.uses)}")
        break
    return problems


# ---------------------------------------------------------------------------
# the clean kernel window


class _Oracle:
    """CPU tracer that checks the effect model before each of the
    first ``PER_PC`` executions of every static pc."""

    def __init__(self, arch: str) -> None:
        self.arch = arch
        self.armed = False
        self.seen: Dict[int, int] = {}
        self.checked = 0
        self.mnemonics: set = set()
        self.problems: List[str] = []
        self.rng = random.Random(0)

    def on_fetch(self, cpu, pc: int) -> None:
        if not self.armed or self.seen.get(pc, 0) >= PER_PC:
            return
        self.seen[pc] = self.seen.get(pc, 0) + 1
        try:
            instr = cpu.decode_at(pc)
        except Exception:
            return                       # the real step raises the fault
        self.checked += 1
        self.mnemonics.add(instr.mnemonic)
        self.problems += check_instruction(
            self.arch, cpu, instr, insn_effects(instr, pc), self.rng)

    def on_load(self, cpu, addr: int, width: int, value: int) -> None:
        pass

    def on_store(self, cpu, addr: int, width: int, value: int) -> None:
        pass

    def on_reg_write(self, cpu, reg: str, old: int, new: int) -> None:
        pass


@pytest.mark.parametrize("arch", ["ppc", "x86"])
def test_clean_window_matches_effects(arch):
    oracle = _Oracle(arch)
    machine = Machine(arch, config=MachineConfig(seed=0, exec_mode="step"))
    machine.cpu.tracer = oracle
    machine.boot()
    driver = UnixBenchDriver(machine, seed=0)
    driver.setup()
    oracle.armed = True
    driver.run(48)
    assert oracle.checked > 1000 and len(oracle.mnemonics) > 20
    assert not oracle.problems, "\n".join(oracle.problems[:40])


# ---------------------------------------------------------------------------
# bare-CPU single-instruction sweeps


def _bare(arch: str, code: bytes, rng: random.Random):
    if arch == "ppc":
        cpu = PPCCPU()
        cpu.pc = TEXT
        regs = cpu.gpr
    else:
        cpu = X86CPU()
        cpu.eip = TEXT
        regs = cpu.regs
    cpu.aspace.map_region(Region(TEXT, 0x1000, "rx", "text"))
    cpu.aspace.map_region(Region(DATA, DATA_SIZE, "rw", "data"))
    cpu.mem.write(TEXT, code)
    for index in range(len(regs)):
        pick = rng.random()
        if pick < 0.5:
            regs[index] = DATA_MID + rng.randrange(-0x100, 0x100) * 4
        elif pick < 0.7:
            regs[index] = rng.randrange(64)
        else:
            regs[index] = rng.randrange(1 << 32)
    resources, _, write, _ = ADAPTERS[arch]
    for name in resources[len(regs):]:           # flags / cr / spr
        write(cpu, name, _random_value(name, rng))
    if arch == "x86":
        cpu.regs[4] = DATA_MID                    # a usable stack
    return cpu


def _sweep_one(arch: str, code: bytes, rng: random.Random) -> Tuple[object, List[str]]:
    cpu = _bare(arch, code, rng)
    instr = cpu.decode_at(TEXT)
    return instr, check_instruction(arch, cpu, instr,
                                    insn_effects(instr, TEXT), rng)


def _ppc_word(slot: int, rng: random.Random) -> int:
    """*slot* with random operand fields (and Rc bit)."""
    if slot >> 26 in (19, 31):
        return slot | rng.randrange(1 << 15) << 11 | rng.randrange(2)
    return slot | rng.randrange(1 << 26)


def test_ppc_every_decode_slot():
    rng = random.Random(1)
    problems: List[str] = []
    reached = set()
    for slot in slot_words():
        legal = pdec.decode(slot).execute is not pdec.exec_illegal
        rounds = 6 if legal or slot >> 26 not in (19, 31) else 1
        for _ in range(rounds):
            word = _ppc_word(slot, rng)
            instr, found = _sweep_one("ppc", word.to_bytes(4, "big"), rng)
            reached.add(instr.execute)
            problems += found
    assert reached == {op.execute for op in OPS.values()}
    assert not problems, "\n".join(problems[:40])


X86_PREFIXES = (b"", b"\x66", b"\xf3", b"\x0f", b"\x66\x0f")


def test_x86_every_executor():
    rng = random.Random(2)
    problems: List[str] = []
    reached = set()
    for prefix in X86_PREFIXES:
        for opcode in range(256):
            for _ in range(8):
                tail = bytes(rng.randrange(256) for _ in range(12))
                code = prefix + bytes([opcode]) + tail
                instr, found = _sweep_one("x86", code, rng)
                reached.add(instr.execute)
                problems += found
    executors = {fn for name, fn in vars(xdec).items()
                 if name.startswith("exec_") and callable(fn)}
    missing = sorted(fn.__name__ for fn in executors - reached)
    assert not missing, f"sweep never reached {missing}"
    assert not problems, "\n".join(problems[:40])


@settings(max_examples=150, deadline=None)
@given(word=st.integers(min_value=0, max_value=M), seed=st.integers(0, 1 << 16))
def test_ppc_random_words(word, seed):
    _, problems = _sweep_one("ppc", word.to_bytes(4, "big"),
                             random.Random(seed))
    assert not problems, "\n".join(problems)


@settings(max_examples=150, deadline=None)
@given(code=st.binary(min_size=16, max_size=16), seed=st.integers(0, 1 << 16))
def test_x86_random_bytes(code, seed):
    _, problems = _sweep_one("x86", code, random.Random(seed))
    assert not problems, "\n".join(problems)
