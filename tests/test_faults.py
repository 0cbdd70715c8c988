"""The fault-model subsystem (:mod:`repro.faults`).

Covers the declarative spec codec (hypothesis round-trips through the
canonical-JSON boundary every layer shares), the registry, plan
derivation purity and shape per target kind, the targeted structure
pool, MBU-vs-SBU manifestation ordering on both architectures,
legacy manifest mapping, the service protocol fields, and the CLI
surface.  The per-model digest gate lives in
``tests/test_fault_digests.py``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    DEFAULT_MODEL, TARGETED_STRUCTURES, FaultModel, FaultModelError,
    FaultSpec, FaultSpecError, available_models, flip_mask, get_model,
    model_applies, plan_span, register_model, spec_from_dict,
)
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.outcomes import CampaignKind

# ---------------------------------------------------------------------------
# spec codec


def _specs() -> st.SearchStrategy[FaultSpec]:
    """Valid FaultSpec instances across the whole parameter space."""
    names = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
        min_size=1, max_size=24).filter(lambda s: s.strip("-"))
    bits = st.tuples(st.integers(1, 32), st.integers(1, 32)).map(sorted)
    retrigger = st.one_of(
        st.just((0, 0)),
        st.tuples(st.integers(1, 100_000), st.integers(1, 64)))
    structures = st.lists(
        st.sampled_from(TARGETED_STRUCTURES), max_size=4, unique=True)

    def build(name, bit_pair, sched, structs):
        lo, hi = bit_pair
        return FaultSpec(
            name=name, min_bits=lo, max_bits=hi,
            spatial="adjacent" if hi > 1 else "single",
            retrigger_period=sched[0], retrigger_count=sched[1],
            structures=tuple(structs))

    return st.builds(build, names, bits, retrigger, structures)


class TestSpecCodec:
    @given(_specs())
    @settings(max_examples=80, deadline=None)
    def test_round_trips_through_canonical_json(self, spec):
        from repro.store.codec import canonical_json
        payload = json.loads(canonical_json(spec.to_dict()))
        again = spec_from_dict(payload)
        assert again == spec
        assert again.digest() == spec.digest()

    @given(_specs(), _specs())
    @settings(max_examples=40, deadline=None)
    def test_digest_is_an_identity(self, a, b):
        assert (a.digest() == b.digest()) == (a == b)

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown"):
            spec_from_dict({"name": "x", "burst": 3})

    def test_non_dict_rejected(self):
        with pytest.raises(FaultSpecError):
            spec_from_dict(["single-bit"])

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(name="x", pattern="stuck-at-0"),
        dict(name="x", spatial="diagonal"),
        dict(name="x", min_bits=0),
        dict(name="x", min_bits=3, max_bits=2),
        dict(name="x", max_bits=33, spatial="adjacent"),
        dict(name="x", max_bits=4),              # multi-bit, no shape
        dict(name="x", retrigger_period=100),    # period without count
        dict(name="x", retrigger_count=3),       # count without period
        dict(name="x", retrigger_period=-1, retrigger_count=1),
        dict(name="x", structures=("", "jiffies")),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(FaultSpecError):
            FaultSpec(**kwargs)

    def test_describe_mentions_every_dimension(self):
        text = FaultSpec(name="x", min_bits=2, max_bits=8,
                         spatial="adjacent", retrigger_period=500,
                         retrigger_count=3,
                         structures=("jiffies",)).describe()
        assert "2-8" in text and "x3" in text and "jiffies" in text


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_ships_four_models_in_order(self):
        assert available_models() == (
            "single-bit", "burst", "intermittent", "targeted")

    def test_default_is_single_bit(self):
        assert DEFAULT_MODEL == "single-bit"
        spec = get_model(DEFAULT_MODEL).spec
        assert spec.multiplicity == 1
        assert not spec.intermittent and not spec.targeted

    def test_unknown_model_names_the_known_ones(self):
        with pytest.raises(FaultModelError, match="single-bit"):
            get_model("rowhammer")

    def test_duplicate_registration_refused(self):
        with pytest.raises(FaultModelError, match="already registered"):
            register_model(FaultModel(FaultSpec(name="burst")))
        # replace=True is the explicit override; restore the original
        original = get_model("burst")
        try:
            register_model(FaultModel(FaultSpec(name="burst")),
                           replace=True)
            assert get_model("burst").spec.multiplicity == 1
        finally:
            register_model(original, replace=True)

    def test_targeted_applies_to_data_only(self):
        for kind in CampaignKind:
            expected = kind is CampaignKind.DATA
            assert model_applies("targeted", kind.value) is expected
            assert model_applies("burst", kind.value)


# ---------------------------------------------------------------------------
# plan derivation


class TestPlans:
    def test_single_bit_memory_plan_is_the_legacy_flip(self):
        model = get_model("single-bit")
        for seed in (0, 7919, 123456):
            plan = model.memory_plan(0xC030_0010, 5, seed,
                                     0xC030_0000, 0xC031_0000)
            assert plan.flips == ((0xC030_0010, 5),)
            assert plan.retriggers == 0

    def test_single_bit_code_plan_is_the_legacy_flip(self):
        model = get_model("single-bit")
        # legacy: byte_offset = bit // 8, flipped bit = bit % 8
        plan = model.code_plan(0xC000_1000, 19, 4, seed=42)
        assert plan.flips == ((0xC000_1002, 3),)

    def test_burst_spills_across_byte_boundaries(self):
        model = get_model("burst")
        plan = model.memory_plan(0xC030_0010, 6, 0,
                                 0xC030_0000, 0xC031_0000)
        size = len(plan.flips)
        assert 2 <= size <= 8
        positions = [addr * 8 + bit for addr, bit in plan.flips]
        assert positions == list(range(positions[0],
                                       positions[0] + size))
        assert positions[0] == 0xC030_0010 * 8 + 6
        # starting at bit 6, any burst >= 3 crosses into the next byte
        if size >= 3:
            assert len({addr for addr, _ in plan.flips}) >= 2

    def test_burst_truncates_at_region_end(self):
        model = get_model("burst")
        hi = 0xC030_0011                      # region ends next byte
        plan = model.memory_plan(0xC030_0010, 6, 0, 0xC030_0000, hi)
        assert all(addr < hi for addr, _ in plan.flips)
        assert len(plan.flips) >= 1           # the target bit survives

    def test_burst_code_plan_stays_in_the_encoding(self):
        model = get_model("burst")
        for seed in range(8):
            plan = model.code_plan(0xC000_1000, 30, 4, seed)
            assert plan.flips[0] == (0xC000_1003, 6)
            assert all(0xC000_1000 <= addr < 0xC000_1004
                       for addr, _ in plan.flips)

    def test_register_plan_clamps_at_width(self):
        model = get_model("burst")
        plan = model.register_plan(30, 32, seed=1)
        assert plan.register_bits[0] == 30
        assert max(plan.register_bits) <= 31
        assert flip_mask(plan.register_bits) >> 30 in (1, 3)

    def test_plans_are_pure_functions(self):
        a = FaultModel(FaultSpec(name="burst", min_bits=2, max_bits=8,
                                 spatial="adjacent"))
        b = get_model("burst")
        for seed in range(16):
            assert a.memory_plan(0xC030_0040, 3, seed, 0xC030_0000,
                                 0xC031_0000) == \
                b.memory_plan(0xC030_0040, 3, seed, 0xC030_0000,
                              0xC031_0000)

    def test_screen_span_covers_the_plan(self):
        for name in available_models():
            model = get_model(name)
            for seed in range(12):
                plan = model.memory_plan(0xC030_0040, 7, seed,
                                         0xC030_0000, 0xC031_0000)
                lo, hi = plan_span(plan)
                assert hi - lo <= model.screen_span_bytes(7, seed)
            assert model.screen_span_bytes(0, 0) >= 1

    def test_single_bit_screen_span_is_one_byte(self):
        model = get_model("single-bit")
        assert all(model.screen_span_bytes(bit, seed) == 1
                   for bit in range(8) for seed in range(4))

    def test_intermittent_schedule_from_spec(self):
        model = get_model("intermittent")
        plan = model.memory_plan(0xC030_0010, 1, 0,
                                 0xC030_0000, 0xC031_0000)
        assert plan.retriggers == model.spec.retrigger_count
        assert plan.retrigger_period == model.spec.retrigger_period
        assert len(plan.flips) == 1          # same single bit re-fires


# ---------------------------------------------------------------------------
# targeted structure resolution


class TestTargetedPool:
    def test_pool_matches_linker_symbols(self, x86_image):
        pool = get_model("targeted").target_pool(x86_image)
        assert len(pool) == len(TARGETED_STRUCTURES)
        for symbol, (lo, hi) in zip(TARGETED_STRUCTURES, pool):
            info = x86_image.globals[symbol]
            assert (lo, hi) == (info.addr, info.addr + info.size)

    def test_unknown_symbol_is_a_hard_error(self, x86_image):
        model = FaultModel(FaultSpec(name="bad-target",
                                     structures=("no_such_global",)))
        with pytest.raises(FaultModelError, match="no_such_global"):
            model.target_pool(x86_image)

    def test_targets_draw_only_from_the_pool(self, x86_context):
        config = CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                                count=64, seed=3, ops=36,
                                fault_model="targeted")
        campaign = Campaign(config, x86_context)
        pool = get_model("targeted").target_pool(
            x86_context.base_machine.image)
        targets = campaign.generate_targets()
        assert len(targets) == 64
        for target in targets:
            assert any(lo <= target.addr < hi for lo, hi in pool)
        # weighted draw: big structures should absorb multiple hits
        assert len({t.addr for t in targets}) > 8

    def test_targeted_rejected_off_data(self):
        with pytest.raises(ValueError, match="does not apply"):
            CampaignConfig(arch="x86", kind=CampaignKind.CODE,
                           count=4, fault_model="targeted")

    def test_unknown_model_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                           count=4, fault_model="rowhammer")


# ---------------------------------------------------------------------------
# MBU vs SBU (the acceptance criterion)


class TestMbuVsSbu:
    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_burst_manifests_at_least_single_bit(self, arch,
                                                 x86_context,
                                                 ppc_context):
        from repro.analysis.fault_models import (
            render_model_table, sensitivity_for,
        )
        context = x86_context if arch == "x86" else ppc_context
        rows = {}
        for model in ("single-bit", "burst"):
            config = CampaignConfig(arch=arch, kind=CampaignKind.CODE,
                                    count=48, seed=0, ops=36,
                                    fault_model=model)
            result = Campaign(config, context).run(workers=2)
            rows[model] = sensitivity_for(model, arch,
                                          CampaignKind.CODE,
                                          result.results)
        table = render_model_table(list(rows.values()))
        assert rows["burst"].manifested >= \
            rows["single-bit"].manifested, f"\n{table}"
        # both models see the identical target stream, so activation
        # (breakpoint reached) is identical by construction
        assert rows["burst"].activated == rows["single-bit"].activated


# ---------------------------------------------------------------------------
# store manifests: identity + legacy mapping


class TestManifest:
    def _manifest(self, **overrides):
        from repro.store.manifest import CampaignManifest
        config = CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                                count=10, seed=0, ops=36, **overrides)
        return CampaignManifest.from_config(config)

    def test_fault_model_joins_identity(self):
        default = self._manifest()
        burst = self._manifest(fault_model="burst")
        assert default.campaign_id != burst.campaign_id
        assert "fault_model" in burst.identity()
        assert "fault_model" not in default.identity()

    def test_single_bit_serializes_to_format3_shape(self):
        manifest = self._manifest()
        assert manifest._hash_payload() == {
            key: value for key, value
            in dataclasses.asdict(manifest).items()
            if key != "fault_model"}

    def test_legacy_manifest_loads_as_single_bit(self, tmp_path):
        """A format-3 manifest (no fault_model key) loads cleanly:
        the stored hash verifies and the model defaults."""
        from repro.store.manifest import CampaignManifest
        manifest = self._manifest()
        manifest.save(tmp_path)
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        assert payload["fault_model"] == "single-bit"
        del payload["fault_model"]            # exactly the old shape
        path.write_text(json.dumps(payload))
        loaded = CampaignManifest.load(tmp_path)
        assert loaded.fault_model == "single-bit"
        assert loaded.campaign_id == manifest.campaign_id
        assert loaded == manifest

    def test_non_default_manifest_round_trips(self, tmp_path):
        from repro.store.manifest import CampaignManifest
        manifest = self._manifest(fault_model="targeted")
        manifest.save(tmp_path)
        loaded = CampaignManifest.load(tmp_path)
        assert loaded.fault_model == "targeted"
        assert loaded == manifest

    def test_tampered_fault_model_detected(self, tmp_path):
        from repro.store.manifest import CampaignManifest, ManifestError
        self._manifest(fault_model="burst").save(tmp_path)
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        payload["fault_model"] = "intermittent"
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="hash mismatch"):
            CampaignManifest.load(tmp_path)


# ---------------------------------------------------------------------------
# store + replay integration


class TestStoreReplay:
    def test_burst_campaign_stores_and_replays(self, tmp_path,
                                               x86_context):
        from repro.store.manifest import CampaignManifest
        from repro.store.store import CampaignStore
        from repro.trace.replay import Replayer
        config = CampaignConfig(arch="x86", kind=CampaignKind.STACK,
                                count=5, seed=0, ops=36,
                                fault_model="intermittent")
        store = CampaignStore(tmp_path)
        Campaign(config, x86_context).run(store=store)
        campaign_id = CampaignManifest.from_config(config).campaign_id
        replayer = Replayer(store, campaign_id)
        assert replayer.config.fault_model == "intermittent"
        outcomes = replayer.replay_all()
        assert len(outcomes) == 5
        for outcome in outcomes:
            assert outcome.replayed == outcome.journaled


# ---------------------------------------------------------------------------
# service protocol


class TestProtocol:
    def test_campaign_payload_round_trip(self):
        from repro.service.protocol import (
            campaign_config_from_payload, config_to_payload,
        )
        config = CampaignConfig(arch="ppc", kind=CampaignKind.DATA,
                                count=12, seed=5, ops=24,
                                fault_model="targeted")
        payload = config_to_payload(config)
        assert payload["fault_model"] == "targeted"
        again = campaign_config_from_payload(payload)
        assert again == config

    def test_default_when_omitted(self):
        from repro.service.protocol import campaign_config_from_payload
        config = campaign_config_from_payload(
            {"arch": "x86", "kind": "data", "count": 4})
        assert config.fault_model == "single-bit"

    def test_unknown_model_is_a_400(self):
        from repro.service.protocol import (
            ValidationError, campaign_config_from_payload,
        )
        with pytest.raises(ValidationError, match="fault_model"):
            campaign_config_from_payload(
                {"arch": "x86", "kind": "data", "count": 4,
                 "fault_model": "rowhammer"})

    def test_inapplicable_model_is_a_400(self):
        from repro.service.protocol import (
            ValidationError, campaign_config_from_payload,
        )
        with pytest.raises(ValidationError, match="does not apply"):
            campaign_config_from_payload(
                {"arch": "x86", "kind": "code", "count": 4,
                 "fault_model": "targeted"})

    def test_study_payload_applies_model_per_kind(self):
        from repro.service.protocol import study_configs_from_payload
        configs = study_configs_from_payload(
            {"fault_model": "targeted", "scale": 0.001})
        by_kind = {(c.arch, c.kind): c.fault_model for c in configs}
        assert len(configs) == 8
        for arch in ("x86", "ppc"):
            assert by_kind[(arch, CampaignKind.DATA)] == "targeted"
            assert by_kind[(arch, CampaignKind.CODE)] == "single-bit"


# ---------------------------------------------------------------------------
# study fallback


class TestStudyFallback:
    def test_inapplicable_model_falls_back_per_kind(self):
        from repro.core import StudyConfig
        study = StudyConfig(fault_model="targeted")
        data = study.campaign_config("x86", CampaignKind.DATA, 4)
        stack = study.campaign_config("x86", CampaignKind.STACK, 4)
        assert data.fault_model == "targeted"
        assert stack.fault_model == "single-bit"

    def test_applicable_model_used_everywhere(self):
        from repro.core import StudyConfig
        study = StudyConfig(fault_model="burst")
        for kind in CampaignKind:
            config = study.campaign_config("ppc", kind, 4)
            assert config.fault_model == "burst"


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_faults_list(self, capsys):
        from repro.__main__ import main
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in available_models():
            assert name in out
        assert "[default]" in out
        assert get_model("burst").spec.digest()[:12] in out

    def test_campaign_accepts_fault_model(self):
        from repro.__main__ import build_parser
        args = build_parser().parse_args(
            ["campaign", "--kind", "data", "--fault-model", "burst"])
        assert args.fault_model == "burst"

    def test_campaign_rejects_inapplicable_model(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit, match="does not apply"):
            main(["campaign", "--kind", "code",
                  "--fault-model", "targeted", "-n", "2"])

    def test_campaign_rejects_unknown_model(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["campaign", "--kind", "data",
                  "--fault-model", "rowhammer"])

    def test_study_and_submit_accept_fault_model(self):
        from repro.__main__ import build_parser
        parser = build_parser()
        study = parser.parse_args(["study", "--fault-model",
                                   "intermittent"])
        assert study.fault_model == "intermittent"
        submit = parser.parse_args(["submit", "--kind", "data",
                                    "--fault-model", "targeted"])
        assert submit.fault_model == "targeted"


# ---------------------------------------------------------------------------
# injector-level behavior


class TestInjectorBehavior:
    def test_intermittent_refires_on_schedule(self, x86_context):
        """The arming chain re-applies the flip on the spec's period:
        trace the experiment and count the inject events."""
        from repro.injection.injector import InjectionRun
        from repro.trace.recorder import EventKind, TraceRecorder
        config = CampaignConfig(arch="x86", kind=CampaignKind.STACK,
                                count=6, seed=0, ops=36,
                                fault_model="intermittent",
                                exec_mode="step", checkpoints=0)
        campaign = Campaign(config, x86_context)
        targets = campaign.generate_targets()
        spec = campaign.spec_for(0, targets[0])
        run = InjectionRun(spec)
        recorder = TraceRecorder(mode="full", capacity=200_000)
        run.machine.attach_tracer(recorder)
        try:
            run.execute()
        finally:
            run.machine.detach_tracer()
        injects = [e for e in recorder.events
                   if e.kind is EventKind.INJECT]
        model = get_model("intermittent")
        # initial injection + up to retrigger_count re-fires (fewer
        # only if the run ended first)
        assert 1 <= len(injects) <= 1 + model.spec.retrigger_count
        if len(injects) > 2:
            gaps = [b.instret - a.instret
                    for a, b in zip(injects[1:], injects[2:])]
            assert all(gap == model.spec.retrigger_period
                       for gap in gaps)

    def test_single_bit_runspec_default(self, x86_context):
        config = CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                                count=2, seed=0, ops=36)
        campaign = Campaign(config, x86_context)
        spec = campaign.spec_for(0, campaign.generate_targets()[0])
        assert spec.fault_model == "single-bit"
