"""Static-vs-dynamic validation: matrix math, end-to-end, inert bits."""

from __future__ import annotations

import pytest

from repro.analysis.validate_static import (
    ConfusionMatrix, dynamic_label, validate_code_campaign,
    validate_prune,
)
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.outcomes import (
    CampaignKind, InjectionResult, Outcome,
)
from repro.injection.targets import CodeTarget


class TestConfusionMatrix:
    def _matrix(self):
        m = ConfusionMatrix()
        m.add("manifested", "manifested", 6)
        m.add("manifested", "not-manifested", 2)
        m.add("not-manifested", "manifested", 1)
        m.add("not-manifested", "not-manifested", 3)
        m.add("manifested", "not-activated", 4)
        m.add("not-activated", "not-activated", 5)
        return m

    def test_totals(self):
        m = self._matrix()
        assert m.total == 21
        assert m.activated_total == 12

    def test_manifestation_accuracy(self):
        # correct among activated: 6 + 3 of 12
        assert self._matrix().manifestation_accuracy == \
            pytest.approx(9 / 12)

    def test_not_activated_prediction_counts_as_mask(self):
        m = ConfusionMatrix()
        m.add("not-activated", "manifested", 1)   # serious miss
        m.add("not-activated", "not-manifested", 1)
        assert m.manifestation_accuracy == pytest.approx(0.5)

    def test_activation_accuracy(self):
        # agreement on activation: 6+2+1+3 correct-activated + 5 = 17
        assert self._matrix().activation_accuracy == \
            pytest.approx(17 / 21)

    def test_rejects_unknown_labels(self):
        with pytest.raises(ValueError):
            ConfusionMatrix().add("crashed", "manifested")

    def test_render_rows(self):
        text = self._matrix().render()
        assert "manifested" in text and "not-activated" in text
        assert len(text.splitlines()) == 4


class TestDynamicLabel:
    def _result(self, outcome):
        target = CodeTarget("fn", 0xC0000000, 4, 0)
        return InjectionResult(arch="x86", kind=CampaignKind.CODE,
                               target=target, outcome=outcome)

    def test_mapping(self):
        assert dynamic_label(
            self._result(Outcome.NOT_ACTIVATED)) == "not-activated"
        assert dynamic_label(
            self._result(Outcome.NOT_MANIFESTED)) == "not-manifested"
        for outcome in Outcome:
            label = dynamic_label(self._result(outcome))
            if outcome.manifested:
                assert label == "manifested"


class TestEndToEnd:
    """The acceptance gate: join real campaigns with the real report.

    Everything here is deterministic (fixed seed, fixed ops), so the
    accuracy assertions are exact regression pins, not statistics.
    """

    COUNT = 60

    def _campaign(self, arch, context, workers=1):
        config = CampaignConfig(arch=arch, kind=CampaignKind.CODE,
                                count=self.COUNT, seed=0, ops=36)
        return Campaign(config, context).run(workers=workers)

    @pytest.mark.parametrize("fixture,ctx", [
        ("x86_static", "x86_context"), ("ppc_static", "ppc_context")])
    def test_accuracy_meets_floor(self, fixture, ctx, request):
        _cfg, _live, report = request.getfixturevalue(fixture)
        context = request.getfixturevalue(ctx)
        outcome = self._campaign(report.arch, context)
        validation = validate_code_campaign(outcome.results, report)
        assert validation.matrix.total == self.COUNT
        assert validation.manifestation_accuracy >= 0.70
        # render is exercised on real data
        assert report.arch in validation.render()

    def test_serial_and_parallel_validate_identically(
            self, ppc_static, ppc_context):
        _cfg, _live, report = ppc_static
        serial = self._campaign("ppc", ppc_context)
        parallel = self._campaign("ppc", ppc_context, workers=2)
        v1 = validate_code_campaign(serial.results, report)
        v2 = validate_code_campaign(parallel.results, report)
        assert v1.matrix.counts == v2.matrix.counts
        assert v1.manifestation_accuracy == v2.manifestation_accuracy

    def test_wrong_arch_report_rejected(self, x86_static, ppc_context):
        _cfg, _live, report = x86_static
        outcome = self._campaign("ppc", ppc_context)
        with pytest.raises(ValueError):
            validate_code_campaign(outcome.results, report)

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            validate_code_campaign([])


class TestPrune:
    def test_pruned_bits_never_manifest(self, ppc_context):
        """The soundness check: injecting a sample of prunable bits
        classifies zero disagreements."""
        validation = validate_prune("ppc", seed=0, ops=36, limit=30)
        assert validation.injected == 30
        assert validation.prunable_bits > 0
        assert validation.ok, [r.target for r in
                               validation.disagreements]
