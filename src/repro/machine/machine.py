"""The simulated target node: CPU + memory + kernel + devices.

A machine boots a :class:`~repro.kcc.linker.KernelImage`, creates the
task population (kernel threads ``kupdate`` and ``kjournald`` plus user
workload tasks, each with its own 8 KiB kernel stack exactly like the
Linux 2.4 task union), and then lets the workload drive syscalls into
fully simulated kernel code.

Exception handling implements the paper's three-stage cycles-to-crash
model (Figure 3):

* stage 1 is the simulator's own cycle accounting up to the faulting
  instruction;
* stage 2 (hardware exception handling, >1000 cycles) is charged when a
  fault is caught here;
* stage 3 (the software exception handler, 150-200 instructions) is
  charged while the crash handler model runs — including the G4
  kernel's **exception-entry wrapper** that checks the stack pointer
  against the task's 8 KiB stack and raises Stack Overflow early, a
  check the P4 kernel famously lacks (paper Sections 5.1 and 6).

Timer interrupts are delivered between workload operations; each timer
quantum is padded to the architecture's 10 ms tick so that errors
parked in rarely-used state (FS/GS, SPRG2, latent data) accumulate the
paper's multi-million-cycle latencies.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.compile import BlockCache, lookup_block
from repro.isa.memory import Region
from repro.kcc.linker import KernelImage
from repro.kernel.build import build_kernel
from repro.machine.events import CrashReport, HangDetected, KernelCrash
from repro.machine.nic import LossyChannel, NIC, encode_crash_packet
from repro.machine.watchdog import Watchdog
from repro.ppc.cpu import PPCCPU
from repro.ppc.exceptions import PPCFault, PPCVector, ProgramReason
from repro.ppc.registers import SPR_SPRG2
from repro.x86.cpu import X86CPU
from repro.x86.exceptions import X86Fault, X86Vector
from repro.x86.registers import CR0_PE, FLAG_IF, FLAG_NT, SEG_FS, SEG_GS

KSTACK_AREA = 0xC0500000
KSTACK_STRIDE = 0x4000
KSTACK_SIZE = 0x2000                    # 8 KiB, as in Linux 2.4
USER_XCHG_BASE = 0x08000000
USER_XCHG_SIZE = 0x10000
STOP_SENTINEL = 0xFFFFE000
SPRG2_VALUE = 0xC05FF000                # exception scratch stack (G4)

HZ = 100                                # timer frequency


@dataclass
class MachineConfig:
    """Tunables for one simulated target node."""

    seed: int = 0
    #: stage-2 hardware exception handling base cost (cycles)
    stage2_cycles: int = 1100
    #: stage-3 software handler instruction count range
    handler_instructions: Tuple[int, int] = (150, 200)
    #: effective CPI for the handler model
    handler_cpi: float = 1.5
    #: crash-dump UDP loss probability
    dump_loss_probability: float = 0.08
    #: per-kernel-call step budget (exceeded -> hang)
    call_step_budget: int = 400_000
    #: watchdog timeout in cycles
    watchdog_cycles: int = 600_000_000
    #: pad each timer quantum to the full 10ms tick
    pad_quanta: bool = True
    #: execution core: "block" runs compiled superblocks with a
    #: single-step fallback, "step" is the plain interpreter
    exec_mode: str = "block"


@dataclass
class Task:
    pid: int
    name: str
    kind: str                           # "user" | "kthread"
    stack_base: int
    stack_top: int
    entry: str = ""                     # kthread kernel function
    seg_fs: int = 0x33
    seg_gs: int = 0x3B

    @property
    def user_buf(self) -> int:
        return USER_XCHG_BASE + self.pid * 0x1000


_DEFAULT_TASKS = (
    Task(0, "init", "user", 0, 0),
    Task(1, "kupdate", "kthread", 0, 0, entry="kupdate"),
    Task(2, "kjournald", "kthread", 0, 0, entry="kjournald"),
    Task(3, "bench-a", "user", 0, 0),
    Task(4, "bench-b", "user", 0, 0),
    Task(5, "bench-c", "user", 0, 0),
)


class Machine:
    """One target system (paper Figure 1, right-hand box)."""

    def __init__(self, arch: str, image: Optional[KernelImage] = None,
                 config: Optional[MachineConfig] = None,
                 collector: Optional[Callable] = None):
        self.arch = arch
        self.image = image if image is not None else build_kernel(arch)
        self.config = config if config is not None else MachineConfig()
        self._rng: Optional[random.Random] = None
        self.cpu = X86CPU() if arch == "x86" else PPCCPU()
        self.clock_hz = self.cpu.CLOCK_HZ
        self.tick_cycles = self.clock_hz // HZ

        channel = LossyChannel(self.config.dump_loss_probability,
                               seed=self.config.seed ^ 0x5EED)
        self.nic = NIC(channel, receiver=collector)
        self.watchdog = Watchdog(self.config.watchdog_cycles)

        self.tasks: Dict[int, Task] = {}
        self.current_pid = 0
        self.booted = False
        self.syscalls_completed = 0
        self.timer_ticks = 0
        self._quantum_start_cycles = 0

        # single scheduled action: (instret threshold, callback)
        self._pending_action: Optional[Tuple[int, Callable]] = None

        # expected values of registers with deferred-check semantics
        self._expected: Dict[str, int] = {}

        # flight recorder (repro.trace): None = tracing disabled; set
        # through attach_tracer() only, mirrored into cpu.tracer
        self.trace = None

        if self.config.exec_mode not in ("step", "block"):
            raise ValueError(
                f"exec_mode must be 'step' or 'block', "
                f"got {self.config.exec_mode!r}")
        if self.config.exec_mode == "block":
            self.cpu._block_cache = BlockCache()

        self._map_memory()
        if arch == "ppc":
            self.cpu.on_spr_write = self._spr_hook()

    @property
    def rng(self) -> random.Random:
        """Machine-level RNG, seeded lazily from ``config.seed``.

        Forking is the hot path and ``Random(seed)`` state is a pure
        function of the seed, so construction is deferred to first use.
        """
        if self._rng is None:
            self._rng = random.Random(self.config.seed)
        return self._rng

    # ------------------------------------------------------------------
    # memory map + boot

    def _map_memory(self) -> None:
        image = self.image
        aspace = self.cpu.aspace
        text_size = (len(image.text_bytes) + 4095) & ~4095
        data_size = (len(image.data_bytes) + 4095) & ~4095
        aspace.map_region(Region(image.text_base, text_size, "rx",
                                 "ktext"))
        # no NX bit in 2004-era IA-32 or our PPC BAT model: data and
        # stacks are executable, so wild jumps decode whatever is there
        aspace.map_region(Region(image.data_base, data_size, "rwx",
                                 "kdata"))
        if image.heap_bytes:
            heap_size = (len(image.heap_bytes) + 4095) & ~4095
            aspace.map_region(Region(image.heap_base, heap_size, "rwx",
                                     "kheap"))
            self.cpu.mem.write(image.heap_base, image.heap_bytes)
        aspace.map_region(Region(USER_XCHG_BASE, USER_XCHG_SIZE, "rwx",
                                 "uxchg"))
        self.cpu.mem.write(image.text_base, image.text_bytes)
        self.cpu.mem.write(image.data_base, image.data_bytes)

    def boot(self, extra_tasks: int = 0) -> None:
        """Initialize the kernel and create the task population."""
        specs = list(_DEFAULT_TASKS)
        for index in range(extra_tasks):
            specs.append(Task(6 + index, f"extra-{index}", "user", 0, 0))
        for spec in specs:
            base = KSTACK_AREA + spec.pid * KSTACK_STRIDE
            spec.stack_base = base
            spec.stack_top = base + KSTACK_SIZE
            self.cpu.aspace.map_region(
                Region(base, KSTACK_SIZE, "rwx",
                       f"kstack:{spec.pid}"))
            self.tasks[spec.pid] = spec
        self.current_pid = 0
        self.call_kernel("kernel_init")
        for spec in self.tasks.values():
            result = self.call_kernel(
                "task_create", (spec.pid, spec.stack_base,
                                spec.stack_top))
            if result == 0xFFFFFFFF:
                raise RuntimeError(f"task_create({spec.pid}) failed")
        if self.arch == "ppc":
            self.cpu.spr[SPR_SPRG2] = SPRG2_VALUE
            self._expected["sprg2"] = SPRG2_VALUE
        else:
            self._expected["idtr_base"] = self.cpu.idtr_base
            self._expected["gdtr_base"] = self.cpu.gdtr_base
        self.watchdog.pet(self.cpu.cycles)
        self._quantum_start_cycles = self.cpu.cycles
        self.booted = True

    # ------------------------------------------------------------------
    # forking (campaign speed: boot + workload setup once, clone many)

    def fork(self, config: Optional[MachineConfig] = None,
             collector: Optional[Callable] = None) -> "Machine":
        """Clone this booted machine into an independent twin.

        The clone shares memory pages copy-on-write with this machine
        (each side privatizes a page on first write, so the fork costs
        O(pages-written-after-fork), not O(pages-touched-at-boot)) and
        starts with this machine's decoded-instruction cache as its
        warm tier — safe because memory is bit-identical at the fork
        instant and both CPUs invalidate decodes on text writes.  CPU
        state and task bookkeeping are copied; the clone gets its own
        debug unit, watchdog, NIC channel, and RNG (seeded from
        *config*), so campaigns can boot and set up the workload once
        and fork a pristine machine per injection.
        """
        if not self.booted:
            raise RuntimeError("fork() requires a booted machine")
        clone = Machine.__new__(Machine)
        clone.arch = self.arch
        clone.image = self.image
        clone.config = config if config is not None else self.config
        clone._rng = None
        memory = self.cpu.mem.fork()
        clone.cpu = X86CPU(memory=memory) if self.arch == "x86" \
            else PPCCPU(memory=memory)
        clone.cpu.inherit_icache(self.cpu)
        clone.clock_hz = self.clock_hz
        clone.tick_cycles = self.tick_cycles
        channel = LossyChannel(clone.config.dump_loss_probability,
                               seed=clone.config.seed ^ 0x5EED)
        clone.nic = NIC(channel, receiver=collector)
        clone.watchdog = Watchdog(clone.config.watchdog_cycles)
        clone.tasks = {pid: Task(task.pid, task.name, task.kind,
                                 task.stack_base, task.stack_top,
                                 task.entry, task.seg_fs, task.seg_gs)
                       for pid, task in self.tasks.items()}
        clone.current_pid = self.current_pid
        clone.booted = True
        clone.syscalls_completed = self.syscalls_completed
        clone.timer_ticks = self.timer_ticks
        clone._quantum_start_cycles = self._quantum_start_cycles
        clone._pending_action = None
        clone._expected = dict(self._expected)
        clone.trace = None               # tracing never inherits

        if clone.config.exec_mode == "block":
            cache = BlockCache()
            if self.cpu._block_cache is not None:
                cache.inherit(self.cpu._block_cache)
            clone.cpu._block_cache = cache

        # memory pages are shared above; adopt the already-validated
        # region table wholesale
        clone.cpu.aspace.clone_layout(self.cpu.aspace)

        # CPU architectural state
        src, dst = self.cpu, clone.cpu
        if self.arch == "x86":
            dst.regs = list(src.regs)
            dst.eip = src.eip
            dst.eflags = src.eflags
            dst.sregs = list(src.sregs)
            dst.cr0, dst.cr2, dst.cr3, dst.cr4 = \
                src.cr0, src.cr2, src.cr3, src.cr4
            dst.gdtr_base, dst.gdtr_limit = src.gdtr_base, src.gdtr_limit
            dst.idtr_base, dst.idtr_limit = src.idtr_base, src.idtr_limit
            dst.ldtr, dst.tr = src.ldtr, src.tr
        else:
            dst.gpr = list(src.gpr)
            dst.pc = src.pc
            dst.lr, dst.ctr, dst.cr, dst.xer = \
                src.lr, src.ctr, src.cr, src.xer
            dst.set_msr(src.msr)
            dst.spr = dict(src.spr)
            dst.on_spr_write = clone._spr_hook()
        dst.cycles = src.cycles
        dst.instret = src.instret
        clone.watchdog.pet(dst.cycles)
        return clone

    # ------------------------------------------------------------------
    # kernel global access (host-side convenience)

    def global_addr(self, name: str) -> int:
        return self.image.globals[name].addr

    def read_global(self, name: str, index: int = 0) -> int:
        info = self.image.globals[name]
        addr = info.addr + index * info.elem_size
        little = self.image.little_endian
        if info.access_width == 4:
            value = self.cpu.mem.read_u32(addr, little)
        elif info.access_width == 2:
            value = self.cpu.mem.read_u16(addr, little)
        else:
            value = self.cpu.mem.read_u8(addr)
        if info.load_mask:
            value &= info.load_mask
        return value

    def write_global(self, name: str, value: int, index: int = 0) -> None:
        info = self.image.globals[name]
        addr = info.addr + index * info.elem_size
        little = self.image.little_endian
        if info.access_width == 4:
            self.cpu.mem.write_u32(addr, value, little)
        elif info.access_width == 2:
            self.cpu.mem.write_u16(addr, value, little)
        else:
            self.cpu.mem.write_u8(addr, value)

    def write_user(self, task: Task, offset: int, data: bytes) -> None:
        self.cpu.mem.write(task.user_buf + offset, data)

    def read_user(self, task: Task, offset: int, size: int) -> bytes:
        return self.cpu.mem.read(task.user_buf + offset, size)

    # ------------------------------------------------------------------
    # tracing (repro.trace flight recorder)

    def attach_tracer(self, recorder) -> None:
        """Arm *recorder* on this machine and its CPU core.

        The recorder observes fetches, loads/stores, register writes,
        exception entry/exit, scheduler switches, and panics.  It only
        ever reads simulated state, so an armed run produces the same
        outcome, cycle counts, and RNG stream as an untraced one.
        """
        self.trace = recorder
        self.cpu.tracer = recorder

    def detach_tracer(self):
        """Disarm tracing; returns the recorder (flushed)."""
        recorder = self.trace
        if recorder is not None:
            recorder.flush(self.cpu)
        self.trace = None
        self.cpu.tracer = None
        return recorder

    # ------------------------------------------------------------------
    # injection support

    def schedule_action(self, at_instret: int, action: Callable) -> None:
        """Run *action* once the CPU has retired *at_instret* instrs."""
        self._pending_action = (at_instret, action)

    def flip_memory_bit(self, addr: int, bit: int) -> int:
        """Flip one bit of one byte in physical memory.

        Returns the new byte value.  When the address lies in kernel
        text (the injector writes through the same path a
        debug-register-driven poke would take), only the decodes the
        written byte can corrupt are evicted — a single injected flip
        no longer throws away the whole warm decode cache.
        """
        byte = self.cpu.mem.read_u8(addr)
        byte ^= 1 << (bit & 7)
        self.cpu.mem.write_u8(addr, byte)
        image = self.image
        if image.text_base <= addr < image.text_end:
            self.cpu.invalidate_icache(addr, 1)
        return byte

    # ------------------------------------------------------------------
    # the execution core

    def call_kernel(self, name: str, args: Tuple[int, ...] = (),
                    budget: Optional[int] = None) -> int:
        """Run one kernel function to completion on the current stack."""
        cpu = self.cpu
        entry = self.image.functions[name].addr
        task = self.tasks.get(self.current_pid)
        stack_top = task.stack_top if task is not None \
            else KSTACK_AREA + KSTACK_SIZE
        budget = budget if budget is not None \
            else self.config.call_step_budget

        if self.arch == "x86":
            cpu.regs[4] = stack_top - 16
            for arg in reversed(args):
                cpu.regs[4] -= 4
                cpu.mem.write_u32(cpu.regs[4], arg & 0xFFFFFFFF, True)
            cpu.regs[4] -= 4
            cpu.mem.write_u32(cpu.regs[4], STOP_SENTINEL, True)
            cpu.eip = entry
        else:
            cpu.gpr[1] = stack_top - 64
            for index, arg in enumerate(args[:8]):
                cpu.gpr[3 + index] = arg & 0xFFFFFFFF
            cpu.lr = STOP_SENTINEL
            cpu.pc = entry

        steps = 0
        is_x86 = self.arch == "x86"
        # Compiled-block fast path.  Tracing observes every fetch and
        # memory access, so an armed recorder (or a CPU-level tracer)
        # forces the step core -- unless the tracer has ``on_block``,
        # which is then told of every block run: the block, the instret
        # it started at, and the instructions it fetched (a faulting
        # instruction's fetch included, as in the step core).  Block
        # boundaries are otherwise unobservable because dispatch only
        # runs a block when the budget/pending-action/watchdog checks
        # could not fire inside it (the guards below are sufficient,
        # not just heuristics).  A block compiles only on an address's
        # second miss: the first is stepped and remembered in
        # ``cache.missed``, so code that runs once (the approach to an
        # injection instant, crash paths) is never compiled.
        cache = cpu._block_cache
        on_block = getattr(cpu.tracer, "on_block", None)
        use_blocks = (cache is not None and self.trace is None
                      and (cpu.tracer is None or on_block is not None))
        if use_blocks:
            hot = cache.hot
            missed = cache.missed
            debug = cpu.debug
            wd = self.watchdog
            arch, image = self.arch, self.image
        while True:
            if is_x86:
                if cpu.eip == STOP_SENTINEL:
                    return cpu.regs[0]
            elif cpu.pc == STOP_SENTINEL:
                return cpu.gpr[3]
            pending = self._pending_action
            if pending is not None and cpu.instret >= pending[0]:
                self._pending_action = None
                pending[1]()
                pending = self._pending_action   # may have rescheduled
            if use_blocks and not cpu.halted and not debug._insn_bps:
                if is_x86:
                    addr = cpu.eip
                    fetch_ok = cpu.aspace.translation_on
                else:
                    addr = cpu.pc & 0xFFFFFFFC
                    fetch_ok = cpu._high_fetch_fault is None
                if fetch_ok:
                    blk = hot.get(addr)
                    if blk is None:
                        if addr in missed or addr in cache.warm:
                            blk = lookup_block(cpu, cache, addr, arch,
                                               image)
                        else:
                            missed.add(addr)
                    if (blk is not None and blk.fn is not None
                            and steps + blk.n <= budget
                            and (pending is None
                                 or pending[0] - cpu.instret >= blk.n)
                            and cpu.cycles + blk.max_cycles
                                - wd._last_pet <= wd.timeout_cycles):
                        base = cpu.instret
                        try:
                            blk.fn(cpu)
                        except (X86Fault, PPCFault) as fault:
                            steps += cpu.instret - base
                            if on_block is not None:
                                on_block(cpu, blk, base,
                                         cpu.instret - base + 1)
                            if self._fault_is_benign(fault):
                                continue
                            self._crash(fault)
                        if on_block is not None:
                            on_block(cpu, blk, base, blk.n)
                        steps += blk.n
                        continue
            try:
                cpu.step()
            except (X86Fault, PPCFault) as fault:
                if self._fault_is_benign(fault):
                    if self.trace is not None:
                        self.trace.on_exc_enter(self, fault, fatal=False)
                        self.trace.on_exc_exit(self, fault)
                    continue
                self._crash(fault)
            steps += 1
            if steps > budget:
                raise HangDetected(name, cpu.cycles,
                                   "kernel call budget exceeded")
            if self.watchdog.expired(cpu.cycles):
                self.watchdog.fire()
                raise HangDetected(name, cpu.cycles, "watchdog fired")

    def syscall(self, nr: int, a: int = 0, b: int = 0, c: int = 0) -> int:
        """Issue one system call on behalf of the current task."""
        if self.arch == "ppc":
            self._check_sprg2()
        value = self.call_kernel("do_syscall", (nr, a, b, c))
        self.syscalls_completed += 1
        self.watchdog.pet(self.cpu.cycles)
        return value

    def run_kthread(self, pid: int) -> int:
        """Give a kernel thread one pass (as schedule() would)."""
        task = self.tasks[pid]
        if task.kind != "kthread":
            raise ValueError(f"task {pid} is not a kernel thread")
        saved = self.current_pid
        self._switch_to(pid)
        try:
            if self.arch == "ppc":
                self._check_sprg2()
            return self.call_kernel(task.entry)
        finally:
            self._switch_to(saved)

    def deliver_timer(self) -> None:
        """One timer interrupt: tick, maybe reschedule, maybe switch.

        The tick fires at the 10 ms quantum boundary, so simulated time
        is advanced to the boundary *first* — anything that crashes
        during tick delivery (IDT vectoring, NT check, segment reloads
        at the context switch) is timestamped there, which is how
        errors parked in rarely-consumed state accumulate the paper's
        multi-million-cycle latencies.
        """
        cpu = self.cpu
        if self.config.pad_quanta:
            target = self._quantum_start_cycles + self.tick_cycles
            if cpu.cycles < target:
                cpu.cycles = target
        if self.arch == "x86":
            if not cpu.eflags & FLAG_IF:
                self._quantum_start_cycles = cpu.cycles
                return                   # interrupts masked
            self._check_exception_delivery_x86()
        else:
            self._check_sprg2()
        self.timer_ticks += 1
        cpu.cycles += 300                # interrupt entry/exit cost
        self.call_kernel("timer_tick")
        if self.read_global("need_resched"):
            self.call_kernel("schedule")
            new_pid = self.read_global("current_pid")
            if new_pid != self.current_pid and new_pid in self.tasks:
                self._switch_to(new_pid)
        if self.arch == "x86" and cpu.eflags & FLAG_NT:
            # iret with NT set: chained return to an invalid task —
            # the paper's only source of Invalid TSS crashes
            self._crash(X86Fault(
                X86Vector.INVALID_TSS,
                detail="iret from timer with NT set"))
        self._quantum_start_cycles = cpu.cycles

    def think(self, cycles: int) -> None:
        """Advance time while 'user space' computes."""
        self.cpu.cycles += cycles

    # ------------------------------------------------------------------
    # context switching

    def _switch_to(self, pid: int) -> None:
        task = self.tasks[pid]
        prev = self.tasks[self.current_pid]
        cpu = self.cpu
        if self.arch == "x86":
            # save raw selectors (no validation on save), reload the
            # next task's (validated load -> #GP on a corrupted value,
            # possibly a context switch *much* later: the paper's
            # longest latencies)
            prev.seg_fs = cpu.sregs[SEG_FS]
            prev.seg_gs = cpu.sregs[SEG_GS]
            try:
                cpu.load_sreg(SEG_FS, task.seg_fs)
                cpu.load_sreg(SEG_GS, task.seg_gs)
            except X86Fault as fault:
                self._crash(fault)
            cpu.cycles += 80             # TSS-ish switch cost
        else:
            cpu.cycles += 60
        if self.trace is not None:
            self.trace.on_sched(self, self.current_pid, pid)
        self.current_pid = pid
        # keep the kernel's current task pointer coherent with the
        # machine-level switch (what switch_to() does in entry.S)
        self.write_global("current_pid", pid)
        tasks_info = self.image.globals["task_table"]
        self.write_global("current",
                          tasks_info.addr + pid * tasks_info.elem_size)

    # ------------------------------------------------------------------
    # deferred register-corruption checks

    def _check_sprg2(self) -> None:
        """G4 exception entry uses SPRG2 for the stack switch."""
        value = self.cpu.spr.get(SPR_SPRG2, 0)
        if value != self._expected.get("sprg2", value):
            self._crash(PPCFault(
                PPCVector.PROGRAM,
                address=value,
                detail="exception stack switch through corrupted SPRG2",
                program_reason=ProgramReason.ILLEGAL))

    def _check_exception_delivery_x86(self) -> None:
        cpu = self.cpu
        if not cpu.cr0 & CR0_PE:
            self._crash(X86Fault(
                X86Vector.GENERAL_PROTECTION,
                detail="exception delivery with CR0.PE clear"))
        if cpu.idtr_base != self._expected.get("idtr_base",
                                               cpu.idtr_base):
            # garbage IDT: vectoring is hopeless -> triple-fault-like
            fault = X86Fault(X86Vector.DOUBLE_FAULT,
                             detail="IDT base corrupted: cannot vector")
            if self.trace is not None:
                self.trace.on_exc_enter(self, fault, fatal=True)
            report = self._build_report(fault)
            report.dump_failed = True
            if self.trace is not None:
                self.trace.on_crash(self, report)
            raise KernelCrash(report)
        if cpu.idtr_limit < 0x100:
            self._crash(X86Fault(
                X86Vector.GENERAL_PROTECTION,
                detail="timer vector beyond IDT limit",
                error_code=0x20 * 8 + 2))

    # ------------------------------------------------------------------
    # crash machinery

    def _fault_is_benign(self, fault) -> bool:
        vector = fault.vector
        if self.arch == "x86":
            return vector == X86Vector.SYSCALL
        return vector == PPCVector.SYSCALL

    def _on_spr_write(self, spr: int, old: int, new: int) -> None:
        from repro.machine.register_semantics import apply_ppc_spr_effect
        apply_ppc_spr_effect(self, spr, old, new)

    def _spr_hook(self) -> Callable[[int, int, int], None]:
        """``cpu.on_spr_write`` for this machine, holding it weakly.

        A bound method would make every PPC machine a reference cycle,
        freed only by the cyclic collector instead of when its last
        reference goes; checkpoint candidates and experiment forks
        would then linger and raise peak memory."""
        method = weakref.WeakMethod(self._on_spr_write)
        return lambda spr, old, new: method()(spr, old, new)

    def _walk_frames(self) -> Tuple[int, ...]:
        """Crash handler frame-pointer walk (defensive)."""
        cpu = self.cpu
        frames: List[int] = []
        if self.arch == "x86":
            pointer = cpu.regs[5]                 # ebp chain
            for _ in range(8):
                region = cpu.aspace.find_region(pointer)
                if region is None or "w" not in region.perm:
                    break
                ret = cpu.mem.read_u32((pointer + 4) & 0xFFFFFFFF, True)
                frames.append(ret)
                pointer = cpu.mem.read_u32(pointer, True)
        else:
            pointer = cpu.gpr[1]                  # back chain
            for _ in range(8):
                region = cpu.aspace.find_region(pointer)
                if region is None or "w" not in region.perm:
                    break
                nxt = cpu.mem.read_u32(pointer, False)
                lr_save = cpu.mem.read_u32((nxt + 4) & 0xFFFFFFFF, False) \
                    if nxt else 0
                frames.append(lr_save)
                if nxt <= pointer:
                    break
                pointer = nxt
        return tuple(frames)

    def _build_report(self, fault) -> CrashReport:
        cpu = self.cpu
        pc = cpu.current_eip if self.arch == "x86" else cpu.current_pc
        function = self.image.function_at(pc)
        report = CrashReport(
            arch=self.arch,
            vector=fault.vector,
            address=fault.address,
            detail=fault.detail,
            pc=pc,
            cycles_at_crash=cpu.cycles,
            instret_at_crash=cpu.instret,
            registers=cpu.snapshot(),
            function=function.name if function else "",
            subsystem=function.subsystem if function else "",
            error_code=getattr(fault, "error_code", 0),
            program_reason=getattr(fault, "program_reason", None),
        )
        return report

    def _crash(self, fault) -> None:
        """Route a fatal fault through the exception/crash machinery."""
        cpu = self.cpu
        # stage-1 boundary: the kernel has just run into the bad
        # instruction; the hardware takes over here (paper Figure 3)
        if self.trace is not None:
            self.trace.on_exc_enter(self, fault, fatal=True)
        # stage 2: hardware exception handling (>1000 cycles, some
        # address-dependent variance)
        cpu.cycles += self.config.stage2_cycles + \
            ((fault.address or cpu.cycles) & 0x1FF)

        report = self._build_report(fault)
        # stage-2 boundary: vectoring done, the software handler —
        # including the G4's exception-entry wrapper — starts now
        if self.trace is not None:
            self.trace.on_exc_stage3(self)

        task = self.tasks.get(self.current_pid)
        if self.arch == "ppc":
            # The G4 kernel's exception-entry checking wrapper: examine
            # the stack pointer before dispatching the handler.
            sp = cpu.gpr[1]
            if task is not None and not \
                    (task.stack_base <= sp < task.stack_top):
                report.stack_out_of_range = True
            cpu.cycles += 40             # the wrapper itself is cheap
        else:
            # The P4 kernel has no such wrapper; instead, the handler
            # immediately pushes an exception frame on whatever ESP
            # points at.  An unusable ESP means double fault: no dump.
            esp = cpu.regs[4]
            region = cpu.aspace.find_region((esp - 32) & 0xFFFFFFFF)
            if region is None or "w" not in region.perm:
                report.dump_failed = True

        # software-detected panic?
        try:
            code = self.read_global("panic_code")
        except KeyError:                 # pragma: no cover
            code = 0
        if code:
            report.panic = True
            report.panic_code = code
            if self.trace is not None:
                self.trace.on_panic(self, code)

        # stage 3: the software exception handler (150-200 instructions)
        low, high = self.config.handler_instructions
        instructions = low + (report.pc % max(1, high - low))
        cpu.cycles += int(instructions * self.config.handler_cpi)
        report.cycles_at_crash = cpu.cycles
        if self.trace is not None:
            self.trace.on_crash(self, report)

        if not report.dump_failed:
            report.frame_pointers = self._walk_frames()
            vector_code = int(report.vector) if \
                hasattr(report.vector, "__int__") else 0
            payload = encode_crash_packet(
                self.arch, vector_code, report.pc,
                report.address or 0, cpu.cycles,
                list(report.frame_pointers), report.detail)
            report.dump_delivered = self.nic.send_raw(payload)
        raise KernelCrash(report)
