"""Workload, probe, and profiler tests."""

import bisect
import random

import pytest

from repro.compile import CompiledBlock
from repro.machine.machine import KSTACK_SIZE
from repro.workload.driver import UnixBenchDriver, run_clean_workload
from repro.workload.probe import (
    SAMPLE_EVERY, CleanRunProbe, _Observer, probe_clean_run,
)
from repro.workload.profiler import profile_kernel
from repro.workload.programs import collect_fsv, default_mix


def _matches_per_byte_index(probe, extremes) -> int:
    """Compare ``first_access_after`` with a per-byte index of
    *probe*'s trace on random queries near its records, at lengths 1,
    2, 4 and 8 and at the *extremes* instrets; returns how many queries
    found a record."""
    per_byte: dict = {}
    for record in probe.accesses:
        for byte in range(record[1], record[1] + record[2]):
            per_byte.setdefault(byte, []).append(record)

    def reference(instret, addr, length):
        best = None
        for byte in range(addr, addr + length):
            records = per_byte.get(byte, [])
            position = bisect.bisect_left(records, (instret,))
            if position < len(records) and (
                    best is None or records[position][0] < best[0]):
                best = records[position]
        return best

    rng = random.Random(2004)
    found = 0
    for _ in range(500):
        at, addr, _width, _kind = rng.choice(probe.accesses)
        addr += rng.randrange(-9, 9)
        instret = rng.choice(extremes + [at, at + 1] * 3
                             + [at + rng.randrange(-200, 200)])
        for length in (1, 2, 4, 8):
            expected = reference(instret, addr, length)
            assert probe.first_access_after(instret, addr,
                                            length) == expected
            found += expected is not None
    return found


class TestCleanRuns:
    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_clean_run_is_fail_silent(self, arch):
        result = run_clean_workload(arch, seed=3, ops=24)
        assert result.completed_ops == 24
        assert not result.fail_silence_violated
        assert result.syscalls > 24          # ops issue >=1 syscall

    def test_determinism(self):
        a = run_clean_workload("ppc", seed=9, ops=16)
        b = run_clean_workload("ppc", seed=9, ops=16)
        assert a.syscalls == b.syscalls
        assert a.timer_ticks == b.timer_ticks


class TestFSVDetection:
    def test_detects_corrupted_file_data(self, booted_x86):
        machine = booted_x86.fork()
        driver = UnixBenchDriver(machine, seed=0)
        driver.setup()
        # corrupt the buffer cache behind the kernel's back (every
        # buffer slot, so the one caching the test file is hit)
        info = machine.image.globals["buffer_data"]
        for slot in range(16):
            offset = info.addr + slot * 256 + 10
            machine.cpu.mem.write_u8(
                offset, machine.cpu.mem.read_u8(offset) ^ 0xFF)
        result = driver.run(30)
        assert result.fail_silence_violated

    def test_detects_wrong_return_value(self, booted_ppc):
        machine = booted_ppc.fork()
        driver = UnixBenchDriver(machine, seed=0)
        driver.setup()
        # shrink an inode so reads come back short
        machine.write_global("inode_sizes", 8, index=0)
        result = driver.run(12)
        assert result.fail_silence_violated


class TestProbe:
    @pytest.mark.parametrize("context_name",
                             ["x86_context", "ppc_context"])
    def test_probe_matches_base_machine(self, context_name, request):
        context = request.getfixturevalue(context_name)
        assert context.probe.boot_instret == \
            context.base_machine.cpu.instret
        assert not context.probe.fsv_clean
        assert context.probe.total_instret > context.probe.boot_instret

    def test_first_access_after(self, x86_context):
        probe = x86_context.probe
        jiffies = x86_context.base_machine.global_addr("jiffies")
        hit = probe.first_access_after(probe.boot_instret, jiffies, 4)
        assert hit is not None
        # beyond the end of the run: nothing
        assert probe.first_access_after(probe.total_instret + 1,
                                        jiffies, 4) is None

    @pytest.mark.parametrize("context_name",
                             ["x86_context", "ppc_context"])
    def test_word_index_matches_per_byte_reference(self, context_name,
                                                   request):
        """The word-keyed screen index answers exactly what a per-byte
        index of the same trace answers."""
        probe = request.getfixturevalue(context_name).probe
        extremes = [0, probe.boot_instret - 1, probe.total_instret,
                    probe.total_instret + 1]
        assert _matches_per_byte_index(probe, extremes) > 1000

    def test_word_index_spanning_and_tied_records(self):
        """Records that span words, and several records at one instret
        logged in descending address order (neither occurs in the clean
        traces), still answer as the per-byte index does."""
        rng = random.Random(4)
        accesses = []
        for instret in range(0, 3000, 3):
            for _ in range(rng.choice((1, 1, 2, 3))):
                accesses.append((instret, 0x1000 + rng.randrange(64),
                                 rng.choice((1, 2, 4, 8)),
                                 rng.choice("rw")))
        probe = CleanRunProbe(
            arch="x86", seed=0, ops=0, accesses=accesses,
            executed_pcs=set(), first_executed={}, pc_samples={},
            boot_instret=0, total_instret=3000, total_cycles=0,
            fsv_clean=False)
        assert _matches_per_byte_index(probe, [0, 2999, 3001]) > 1000

    def test_observer_records_a_block_once(self):
        """``on_block`` records a block's fetch facts once, yet leaves
        exactly what an ``on_fetch`` per fetched instruction leaves:
        full fetches repeated, a partial fetch (a fault) after a full
        one, and a block recorded before the window opens that must
        land in the window's first-fetch map when fetched again."""
        def block(start, n):
            spans = tuple((start + 4 * k, 4) for k in range(n))
            return CompiledBlock(start, start + 4 * n, n, spans,
                                 lambda cpu: None, n)

        a, b, c = block(0x1000, 10), block(0x2000, 17), block(0x3000, 5)
        # (block, instructions fetched); None opens the window
        events = [(a, 10), (a, 10), (b, 17), (b, 9), (c, 5), None,
                  (a, 10), (b, 4), (b, 17), (b, 17), (c, 3), (c, 5)]
        events += [(a, 10), (b, 17), (c, 5)] * 7 + [(b, 1), (a, 10)]

        class FakeCPU:
            instret = 0

        by_block, by_fetch, cpu = _Observer(), _Observer(), FakeCPU()
        for event in events:
            if event is None:
                by_block.open_window()
                by_fetch.open_window()
                continue
            blk, fetched = event
            by_block.on_block(cpu, blk, cpu.instret, fetched)
            for addr, _length in blk.spans[:fetched]:
                by_fetch.on_fetch(cpu, addr)
                cpu.instret += 1
        assert by_block.executed == by_fetch.executed
        for name in ("first_executed", "pc_samples"):
            # insertion order too: hot-function ties break on it
            assert list(getattr(by_block, name).items()) == \
                list(getattr(by_fetch, name).items()), name
        assert by_block.first_executed[0x1000] == 51
        assert sum(by_block.pc_samples.values()) == cpu.instret // SAMPLE_EVERY

    def test_cold_table_never_accessed(self, x86_context):
        probe = x86_context.probe
        cold = x86_context.base_machine.global_addr("console_font")
        assert probe.first_access_after(0, cold + 100, 1) is None

    def test_stack_depth_ratio_g4_over_p4(self, x86_context,
                                          ppc_context):
        """The G4's runtime stacks are about twice the P4's (paper
        Section 5.1)."""
        def mean_depth(context):
            machine = context.base_machine
            allocations = {
                pid: (task.stack_base, task.stack_base + KSTACK_SIZE)
                for pid, task in machine.tasks.items()}
            depths = context.probe.measured_stack_depth(allocations)
            used = [d for d in depths.values() if d < KSTACK_SIZE]
            return sum(used) / len(used)

        ratio = mean_depth(ppc_context) / mean_depth(x86_context)
        assert 1.4 < ratio < 4.0

    def test_executed_pcs_inside_text(self, ppc_context):
        image = ppc_context.base_machine.image
        inside = [pc for pc in ppc_context.probe.executed_pcs
                  if image.text_base <= pc < image.text_end]
        assert len(inside) > 0.95 * len(ppc_context.probe.executed_pcs)


class TestProfiler:
    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_hot_functions_cover(self, arch):
        profile = profile_kernel(probe_clean_run(arch, seed=0, ops=16))
        hot = profile.hot_functions(0.95)
        total = sum(profile.counts.values())
        covered = sum(profile.counts[name] for name, _ in hot
                      if name in profile.counts)
        assert covered / total >= 0.95
        assert "memcpy" in dict(hot)          # the workload's hottest

    def test_coverage_parameter(self):
        profile = profile_kernel(probe_clean_run("ppc", seed=0, ops=12))
        small = profile.hot_functions(0.5)
        large = profile.hot_functions(0.999)
        assert len(large) >= len(small)


class TestPrograms:
    def test_default_mix_shapes(self):
        mix = default_mix(0)
        assert len(mix) == 3
        names = {program.name for program in mix}
        assert "fstime" in names

    def test_fsv_collection_includes_submixes(self, booted_x86):
        machine = booted_x86.fork()
        programs = default_mix(0)
        for program in programs:
            program._fsv("x", "y")
        events = collect_fsv(programs)
        assert len(events) >= 3
