"""Injection target generation (step 1 of the paper's Figure 2).

Targets are pre-generated before the campaign starts, exactly as in the
paper — which is why the activation rate is below 100%: some
pre-generated errors are never injected/activated because the
corresponding breakpoint or location is never reached.

* **code** — an instruction inside a hot kernel function (selected by
  the profiler's >=95%-coverage list, weighted by measured usage), plus
  a bit position within that instruction's encoding;
* **stack** — a random byte *anywhere in the allocated 8 KiB kernel
  stack* of a randomly chosen kernel process, plus a bit and an
  injection instant;
* **data** — a random location in the kernel data section (initialized
  and uninitialized), plus a bit and an injection instant;
* **register** — a uniformly chosen register from the architecture's
  system-register catalogue, plus a bit within its width.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.kernel.image import KernelImage
from repro.ppc.registers import G4_SUPERVISOR_REGISTERS
from repro.workload.profiler import FunctionProfile
from repro.x86.registers import P4_SYSTEM_REGISTERS


@dataclass(frozen=True)
class CodeTarget:
    function: str
    addr: int                  # instruction address (breakpoint)
    insn_len: int
    bit: int                   # bit within the instruction bytes


@dataclass(frozen=True)
class StackTarget:
    pid: int
    addr: int                  # byte address within the 8 KiB stack
    bit: int                   # bit 0-7 within that byte
    at_instret: int            # injection instant


@dataclass(frozen=True)
class DataTarget:
    addr: int
    bit: int
    at_instret: int
    initialized: bool          # lies in explicitly initialized data?


@dataclass(frozen=True)
class RegisterTarget:
    name: str
    bit: int
    at_instret: int
    #: x86: cpu attribute; ppc: SPR number (-1 for the MSR)
    attr: str = ""
    spr: int = 0


class TargetGenerator:
    """Pre-generates target lists for every campaign kind."""

    def __init__(self, image: KernelImage,
                 profile: Optional[FunctionProfile] = None,
                 seed: int = 0):
        self.image = image
        self.profile = profile
        self.rng = random.Random(seed)

    # -- code -------------------------------------------------------------

    def _hot_functions(self, coverage: float = 0.99) -> List[str]:
        """Functions selected for code injection.

        The paper selects the most frequently used functions covering
        at least 95% of kernel usage and pre-generates breakpoint
        locations across them; injections then spread over the selected
        set (so rarely taken paths inside hot functions yield the
        not-activated share).
        """
        if self.profile is None:
            return list(self.image.functions)
        hot = [name for name, _weight in
               self.profile.hot_functions(coverage)
               if name in self.image.functions]
        return hot or list(self.image.functions)

    def code_targets(self, count: int) -> List[CodeTarget]:
        """Pre-generate *count* code targets."""
        names = self._hot_functions()
        out: List[CodeTarget] = []
        for _ in range(count):
            name = self.rng.choice(names)
            info = self.image.functions[name]
            index = self.rng.randrange(len(info.insn_addrs))
            addr = info.insn_addrs[index]
            if index + 1 < len(info.insn_addrs):
                length = info.insn_addrs[index + 1] - addr
            else:
                length = info.addr + info.size - addr
            length = max(1, length)
            bit = self.rng.randrange(length * 8)
            out.append(CodeTarget(name, addr, length, bit))
        return out

    # -- stack -------------------------------------------------------------

    def stack_targets(self, count: int, pids: Sequence[int],
                      stack_ranges: dict, run_instret: Tuple[int, int]
                      ) -> List[StackTarget]:
        """*stack_ranges*: pid -> (base, top); instants within run."""
        out: List[StackTarget] = []
        lo, hi = run_instret
        for _ in range(count):
            pid = self.rng.choice(list(pids))
            base, top = stack_ranges[pid]
            addr = self.rng.randrange(base, top)
            out.append(StackTarget(
                pid=pid, addr=addr, bit=self.rng.randrange(8),
                at_instret=self.rng.randrange(lo, hi)))
        return out

    # -- data ---------------------------------------------------------------

    def data_targets(self, count: int, run_instret: Tuple[int, int],
                     pool: Optional[Sequence[Tuple[int, int]]] = None
                     ) -> List[DataTarget]:
        """Pre-generate *count* data targets.

        By default addresses draw uniformly over the ``.data`` section
        (the paper's model).  With *pool* — ``(lo, hi)`` byte ranges
        from a targeted fault model — addresses draw uniformly over
        the union of the ranges instead, so each named structure's
        weight is its size in bytes.
        """
        image = self.image
        lo, hi = run_instret
        init_ranges = image.init_data_ranges
        out: List[DataTarget] = []
        for _ in range(count):
            if pool is None:
                addr = self.rng.randrange(image.data_base,
                                          image.data_end)
            else:
                addr = self._pool_draw(pool)
            initialized = any(addr in r for r in init_ranges)
            out.append(DataTarget(
                addr=addr, bit=self.rng.randrange(8),
                at_instret=self.rng.randrange(lo, hi),
                initialized=initialized))
        return out

    def _pool_draw(self, pool: Sequence[Tuple[int, int]]) -> int:
        """One uniform draw over the union of ``(lo, hi)`` ranges."""
        total = sum(hi - lo for lo, hi in pool)
        if total <= 0:
            raise ValueError(f"empty target pool: {pool!r}")
        offset = self.rng.randrange(total)
        for lo, hi in pool:
            if offset < hi - lo:
                return lo + offset
            offset -= hi - lo
        raise AssertionError("unreachable")

    # -- registers -----------------------------------------------------------

    def register_targets(self, count: int, arch: str,
                         run_instret: Tuple[int, int]
                         ) -> List[RegisterTarget]:
        lo, hi = run_instret
        out: List[RegisterTarget] = []
        if arch == "x86":
            for _ in range(count):
                reg = self.rng.choice(P4_SYSTEM_REGISTERS)
                out.append(RegisterTarget(
                    name=reg.name, bit=self.rng.randrange(reg.bits),
                    at_instret=self.rng.randrange(lo, hi),
                    attr=reg.attr))
        else:
            for _ in range(count):
                reg = self.rng.choice(G4_SUPERVISOR_REGISTERS)
                out.append(RegisterTarget(
                    name=reg.name, bit=self.rng.randrange(reg.bits),
                    at_instret=self.rng.randrange(lo, hi),
                    spr=reg.spr))
        return out
