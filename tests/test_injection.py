"""Injection framework tests: targets, mechanics, campaigns."""


from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.injector import InjectionRun, RunSpec
from repro.injection.outcomes import CampaignKind, Outcome
from repro.injection.targets import (
    CodeTarget, DataTarget, RegisterTarget, TargetGenerator,
)


class TestTargetGenerator:
    def test_code_targets_inside_hot_functions(self, x86_context):
        generator = TargetGenerator(x86_context.base_machine.image,
                                    profile=x86_context.profile, seed=1)
        targets = generator.code_targets(50)
        image = x86_context.base_machine.image
        hot = {name for name, _ in
               x86_context.profile.hot_functions(0.99)}
        for target in targets:
            assert target.function in hot
            info = image.functions[target.function]
            assert info.addr <= target.addr < info.addr + info.size
            assert 0 <= target.bit < target.insn_len * 8

    def test_data_targets_inside_data_section(self, ppc_context):
        image = ppc_context.base_machine.image
        generator = TargetGenerator(image, seed=2)
        targets = generator.data_targets(100, (1000, 2000))
        for target in targets:
            assert image.data_base <= target.addr < image.data_end
            assert 1000 <= target.at_instret < 2000
        # the heap (pools) must NOT be sampled
        assert all(not (image.heap_base <= t.addr <
                        image.heap_base + len(image.heap_bytes))
                   for t in targets)

    def test_register_targets_match_catalogue(self, x86_context,
                                              ppc_context):
        for context, arch, count in ((x86_context, "x86", 21),
                                     (ppc_context, "ppc", 99)):
            generator = TargetGenerator(context.base_machine.image,
                                        seed=3)
            targets = generator.register_targets(300, arch, (0, 100))
            names = {target.name for target in targets}
            assert len(names) > count // 3        # decent coverage

    def test_determinism(self, x86_context):
        image = x86_context.base_machine.image
        first = TargetGenerator(image, x86_context.profile,
                                seed=7).code_targets(20)
        second = TargetGenerator(image, x86_context.profile,
                                 seed=7).code_targets(20)
        assert first == second


class TestInjectionMechanics:
    def _spec(self, context, kind, target):
        return RunSpec(base_machine=context.base_machine,
                       base_programs=context.base_programs,
                       kind=kind, target=target, ops=context.ops,
                       seed=11)

    def test_code_breakpoint_activates(self, ppc_context):
        """A breakpoint on do_syscall's first instruction must fire."""
        image = ppc_context.base_machine.image
        info = image.functions["do_syscall"]
        target = CodeTarget("do_syscall", info.insn_addrs[0], 4, bit=33)
        # bit 33 is out of range for insn 0; use a valid one
        target = CodeTarget("do_syscall", info.insn_addrs[0], 4, bit=3)
        run = InjectionRun(self._spec(ppc_context, CampaignKind.CODE,
                                      target))
        result = run.execute()
        assert result.outcome is not Outcome.NOT_ACTIVATED

    def test_unreached_code_not_activated(self, x86_context):
        image = x86_context.base_machine.image
        info = image.functions["task_exit"]       # never called
        target = CodeTarget("task_exit", info.insn_addrs[2], 2, bit=1)
        run = InjectionRun(self._spec(x86_context, CampaignKind.CODE,
                                      target))
        assert run.execute().outcome is Outcome.NOT_ACTIVATED

    def test_data_write_reinjection(self, x86_context):
        """Write-first activation re-injects the error (paper 3.3)."""
        machine = x86_context.base_machine
        addr = machine.global_addr("jiffies")     # written every tick
        target = DataTarget(addr=addr, bit=30,
                            at_instret=x86_context.probe.boot_instret
                            + 100, initialized=True)
        run = InjectionRun(self._spec(x86_context, CampaignKind.DATA,
                                      target))
        result = run.execute()
        assert result.outcome is not Outcome.NOT_ACTIVATED
        # a flipped high bit of jiffies is harmless
        assert result.outcome in (Outcome.NOT_MANIFESTED,
                                  Outcome.FAIL_SILENCE_VIOLATION)

    def test_pointer_data_flip_crashes(self, ppc_context):
        """Flipping a high bit of the hot 'current' pointer is a wild
        dereference."""
        machine = ppc_context.base_machine
        addr = machine.global_addr("current")
        target = DataTarget(addr=addr + 0, bit=5,
                            at_instret=ppc_context.probe.boot_instret
                            + 50, initialized=False)
        run = InjectionRun(self._spec(ppc_context, CampaignKind.DATA,
                                      target))
        result = run.execute()
        assert result.outcome in (Outcome.CRASH_KNOWN,
                                  Outcome.CRASH_UNKNOWN, Outcome.HANG)

    def test_register_flip_msr_machine_checks(self, ppc_context):
        target = RegisterTarget(name="MSR", bit=4, spr=-1,
                                at_instret=ppc_context.probe
                                .boot_instret + 50)
        run = InjectionRun(self._spec(ppc_context,
                                      CampaignKind.REGISTER, target))
        result = run.execute()
        assert result.outcome in (Outcome.CRASH_KNOWN,
                                  Outcome.CRASH_UNKNOWN)

    def test_register_flip_benign_spr(self, ppc_context):
        target = RegisterTarget(name="PMC1", bit=7, spr=953,
                                at_instret=ppc_context.probe
                                .boot_instret + 50)
        run = InjectionRun(self._spec(ppc_context,
                                      CampaignKind.REGISTER, target))
        assert run.execute().outcome is Outcome.NOT_MANIFESTED

    def test_x86_fs_corruption_eventually_gp(self, x86_context):
        """A corrupted FS selector survives until a context-switch
        reload validates it (General Protection)."""
        from repro.injection.outcomes import CrashCauseP4
        target = RegisterTarget(name="FS", bit=6, attr="fs",
                                at_instret=x86_context.probe
                                .boot_instret + 50)
        run = InjectionRun(self._spec(x86_context,
                                      CampaignKind.REGISTER, target))
        result = run.execute()
        if result.outcome is Outcome.CRASH_KNOWN:
            assert result.cause is CrashCauseP4.GENERAL_PROTECTION
            assert result.latency > 100_000       # parked until reload


class TestCampaign:
    def test_campaign_runs_and_screens(self, ppc_context):
        config = CampaignConfig(arch="ppc", kind=CampaignKind.DATA,
                                count=60, seed=5, ops=ppc_context.ops)
        outcome = Campaign(config, ppc_context).run()
        assert outcome.injected == 60
        screened = [r for r in outcome.results if r.screened]
        assert screened, "expected screened not-activated results"
        assert all(r.outcome is Outcome.NOT_ACTIVATED
                   for r in screened)

    def test_campaign_determinism(self, ppc_context):
        config = CampaignConfig(arch="ppc", kind=CampaignKind.STACK,
                                count=25, seed=6, ops=ppc_context.ops)
        first = Campaign(config, ppc_context).run()
        second = Campaign(config, ppc_context).run()
        assert [r.outcome for r in first.results] == \
            [r.outcome for r in second.results]

    def test_progress_callback(self, x86_context):
        seen = []
        config = CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                                count=10, seed=1, ops=x86_context.ops)
        Campaign(config, x86_context).run(
            progress_callback=lambda done, total, batch: seen.append(
                (done, total)))
        assert seen[-1] == (10, 10)
