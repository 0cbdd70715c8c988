"""Durable campaign store: codec, manifest, journal, store API.

The cheap half of the store test battery — everything here runs on
synthetic records or a tiny shared campaign context.  The expensive
kill/resume equivalence matrix lives in ``tests/test_resume.py``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.outcomes import (
    CampaignKind, CrashCauseG4, CrashCauseP4, InjectionResult, Outcome,
)
from repro.injection.targets import (
    CodeTarget, DataTarget, RegisterTarget, StackTarget,
)
from repro.machine.events import CrashReport
from repro.store import (
    CampaignExistsError, CampaignStore, JournalCorruption, ManifestError,
    StoreMismatchError,
)
from repro.store.codec import (
    report_from_dict, report_to_dict, result_from_dict, result_to_dict,
)
from repro.store.journal import Journal, encode_record, replay
from repro.store.manifest import CampaignManifest


def _result(index: int = 0) -> InjectionResult:
    """A synthetic but fully-populated record."""
    targets = [
        DataTarget(addr=0xC0300010 + index, bit=3, at_instret=1000,
                   initialized=True),
        StackTarget(pid=4, addr=0xC0200000 + index, bit=1,
                    at_instret=900),
        CodeTarget(function="getblk", addr=0xC0100000 + index,
                   insn_len=4, bit=17),
        RegisterTarget(name="cr0", bit=5, at_instret=700, attr="cr0"),
    ]
    causes = [CrashCauseP4.NULL_POINTER, CrashCauseG4.BAD_AREA, None,
              None]
    outcomes = [Outcome.CRASH_KNOWN, Outcome.CRASH_KNOWN,
                Outcome.NOT_ACTIVATED, Outcome.HANG]
    pick = index % 4
    return InjectionResult(
        arch="x86" if pick != 1 else "ppc",
        kind=CampaignKind.DATA,
        target=targets[pick],
        outcome=outcomes[pick],
        cause=causes[pick],
        activation_cycles=100 + index,
        crash_cycles=500 + index if pick < 2 else None,
        detail=f"detail {index}", function="getblk", subsystem="fs",
        screened=(pick == 2))


#: ``_config()``'s manifest as written while ``prune`` was a knob
_PRUNE_NONE_MANIFEST = {
    "arch": "x86", "campaign_id": "data-x86-336c26138d89",
    "code_version": "1.0.0+fmt4", "count": 6,
    "dump_loss_probability": 0.08, "fault_model": "single-bit",
    "kind": "data",
    "manifest_hash": "7db9fcbdad124a8c0151ea2fcce73627980a4236"
                     "1b292d194545019392636f71",
    "ops": 36, "profile_coverage": 0.95, "prune": "none", "seed": 0,
}


def _config(count: int = 6, arch: str = "x86",
            kind: CampaignKind = CampaignKind.DATA) -> CampaignConfig:
    return CampaignConfig(arch=arch, kind=kind, count=count, seed=0,
                          ops=36)


class TestCodec:
    @pytest.mark.parametrize("index", range(4))
    def test_result_roundtrip_is_equality(self, index):
        original = _result(index)
        restored = result_from_dict(
            json.loads(json.dumps(result_to_dict(original))))
        assert restored == original            # full dataclass equality
        assert type(restored.target) is type(original.target)

    def test_target_comes_back_as_dataclass(self):
        restored = result_from_dict(result_to_dict(_result(0)))
        assert isinstance(restored.target, DataTarget)
        assert restored.target.addr == 0xC0300010

    def test_unknown_target_type_kept_raw(self):
        payload = result_to_dict(_result(0))
        payload["target"]["type"] = "FutureTarget"
        restored = result_from_dict(payload)
        assert restored.target["addr"] == 0xC0300010

    def test_crash_report_tuple_fields_roundtrip(self):
        from repro.x86.exceptions import X86Vector
        report = CrashReport(
            arch="x86", vector=X86Vector.PAGE_FAULT, address=0x10,
            detail="d", pc=0xC0100000, cycles_at_crash=5,
            instret_at_crash=3, registers={"cr2": 0x10},
            frame_pointers=(0xC02FF000, 0xC02FF100),
            dump_delivered=True)
        restored = report_from_dict(
            json.loads(json.dumps(report_to_dict(report))))
        assert restored == report
        assert isinstance(restored.frame_pointers, tuple)
        assert restored.vector is X86Vector.PAGE_FAULT

    def test_crash_report_ppc_vector_and_reason(self):
        from repro.ppc.exceptions import PPCVector, ProgramReason
        report = CrashReport(
            arch="ppc", vector=PPCVector.PROGRAM, address=None,
            detail="", pc=0xC0100004, cycles_at_crash=9,
            instret_at_crash=7,
            program_reason=ProgramReason.ILLEGAL)
        restored = report_from_dict(report_to_dict(report))
        assert restored == report
        assert restored.program_reason is ProgramReason.ILLEGAL


class TestManifest:
    def test_identity_excludes_count(self):
        small = CampaignManifest.from_config(_config(count=6))
        large = CampaignManifest.from_config(_config(count=60))
        assert small.campaign_id == large.campaign_id
        assert small.manifest_hash != large.manifest_hash

    def test_identity_covers_config_fields(self):
        base = CampaignManifest.from_config(_config())
        for other in (_config(arch="ppc"),
                      _config(kind=CampaignKind.CODE),
                      CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                                     count=6, seed=1, ops=36),
                      CampaignConfig(arch="x86", kind=CampaignKind.DATA,
                                     count=6, seed=0, ops=40)):
            assert CampaignManifest.from_config(other).campaign_id != \
                base.campaign_id

    def test_save_load_roundtrip(self, tmp_path):
        manifest = CampaignManifest.from_config(_config())
        manifest.save(tmp_path)
        assert CampaignManifest.load(tmp_path) == manifest

    def test_tampered_manifest_detected(self, tmp_path):
        manifest = CampaignManifest.from_config(_config())
        manifest.save(tmp_path)
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        payload["count"] = 999                # drift without rehashing
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="hash mismatch"):
            CampaignManifest.load(tmp_path)

    def test_legacy_manifest_without_prune_rejected(self, tmp_path):
        """Pre-format-2 manifests never recorded a prune policy;
        loading one must fail loudly, not guess."""
        manifest = CampaignManifest.from_config(_config())
        manifest.save(tmp_path)
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        del payload["prune"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="legacy manifest"):
            CampaignManifest.load(tmp_path)

    def test_retired_prune_policy_rejected(self, tmp_path):
        """A store written while ``prune`` was a knob may hold a
        ``dead``/``taint`` campaign; reopening it fails loudly."""
        manifest = dataclasses.replace(
            CampaignManifest.from_config(_config(kind=CampaignKind.CODE)),
            prune="dead")
        manifest.save(tmp_path)
        with pytest.raises(ManifestError, match="retired"):
            CampaignManifest.load(tmp_path)

    def test_prune_none_manifest_resumes(self, tmp_path):
        """A ``prune: "none"`` manifest written before the knob was
        retired reopens as the same campaign, journal included."""
        store = CampaignStore(tmp_path)
        directory = store.campaign_dir(_PRUNE_NONE_MANIFEST["campaign_id"])
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps(_PRUNE_NONE_MANIFEST, indent=2, sort_keys=True))
        with Journal(directory / "journal.jsonl") as journal:
            journal.append(0, _result(0))
        assert CampaignManifest.load(directory) == \
            CampaignManifest.from_config(_config())
        opened = store.open(_config(), resume=True)
        assert opened.manifest.campaign_id == \
            _PRUNE_NONE_MANIFEST["campaign_id"]
        assert opened.manifest.manifest_hash == \
            _PRUNE_NONE_MANIFEST["manifest_hash"]
        assert list(opened.done) == [0]
        opened.close()


class TestJournal:
    def _write(self, path, count: int) -> list:
        results = [(index, _result(index)) for index in range(count)]
        with Journal(path) as journal:
            for index, result in results:
                journal.append(index, result)
        return results

    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        results = self._write(path, 8)
        report = replay(path)
        assert report.truncated_bytes == 0
        assert report.records == results

    def test_missing_file_is_empty(self, tmp_path):
        assert replay(tmp_path / "nope.jsonl").records == []

    def test_torn_tail_truncated_and_repaired(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        results = self._write(path, 5)
        intact = path.read_bytes()
        # simulate a crash mid-append: half of a sixth record
        torn = encode_record(5, _result(5))[:25].encode()
        path.write_bytes(intact + torn)
        report = replay(path)
        assert report.records == results
        assert report.truncated_bytes == len(torn)
        # the file was physically repaired: a second replay is clean
        assert path.read_bytes() == intact
        assert replay(path).truncated_bytes == 0

    def test_bad_checksum_on_tail_is_torn(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        results = self._write(path, 4)
        record = json.loads(encode_record(4, _result(4)))
        record["crc"] = "0" * 16
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        report = replay(path)
        assert report.records == results
        assert report.truncated_bytes > 0
        assert "checksum" in report.torn_detail

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._write(path, 5)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"v":1,"index":1,"crc":"beef","result":{}}\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruption, match="followed by valid"):
            replay(path)

    def test_duplicate_index_first_write_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first, second = _result(0), _result(4)
        with Journal(path) as journal:
            journal.append(0, first)
            journal.append(0, second)
        report = replay(path)
        assert report.records == [(0, first)]


class TestStoreAPI:
    def test_open_refuses_existing_without_resume(self, tmp_path):
        store = CampaignStore(tmp_path)
        opened = store.open(_config())
        opened.record(0, _result(0))
        opened.close()
        with pytest.raises(CampaignExistsError, match="--resume"):
            store.open(_config())
        reopened = store.open(_config(), resume=True)
        assert list(reopened.done) == [0]
        reopened.close()

    def test_open_refuses_shrinking_count(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.open(_config(count=10)).close()
        with pytest.raises(StoreMismatchError, match="shrinks"):
            store.open(_config(count=4), resume=True)

    def test_open_refuses_stray_indices(self, tmp_path):
        store = CampaignStore(tmp_path)
        opened = store.open(_config(count=10))
        opened.record(9, _result(9))
        opened.close()
        # same identity, smaller count than the journaled index — but
        # shrinking is caught by the manifest first; force the journal
        # check by rewriting the manifest to the small count
        manifest = CampaignManifest.from_config(_config(count=4))
        manifest.save(store.campaign_dir(manifest.campaign_id))
        with pytest.raises(StoreMismatchError, match="beyond count"):
            store.open(_config(count=4), resume=True)

    def test_results_sorted_by_global_index(self, tmp_path):
        store = CampaignStore(tmp_path)
        opened = store.open(_config())
        for index in (3, 0, 2, 1):         # completion order != index
            opened.record(index, _result(index))
        opened.close()
        manifest = CampaignManifest.from_config(_config())
        results = store.results(manifest.campaign_id)
        assert results == [_result(index) for index in range(4)]

    def test_load_requires_completeness(self, tmp_path):
        from repro.store.store import StoreError
        store = CampaignStore(tmp_path)
        opened = store.open(_config(count=3))
        opened.record(0, _result(0))
        opened.close()
        with pytest.raises(StoreError, match="incomplete"):
            store.load(_config(count=3))

    def test_verify_flags_incomplete_and_ok(self, tmp_path):
        store = CampaignStore(tmp_path)
        opened = store.open(_config(count=3))
        campaign_id = opened.manifest.campaign_id
        opened.record(0, _result(0))
        opened.close()
        report = store.verify(campaign_id)
        assert not report.ok
        assert any("incomplete" in problem
                   for problem in report.problems)
        opened = store.open(_config(count=3), resume=True)
        opened.record(1, _result(1))
        opened.record(2, _result(2))
        opened.close()
        report = store.verify(campaign_id)
        assert report.ok and report.records == 3

    def test_export_matches_plain_dump(self, tmp_path):
        from repro.analysis.export import load_results
        store = CampaignStore(tmp_path / "store")
        opened = store.open(_config(count=4))
        for index in range(4):
            opened.record(index, _result(index))
        opened.close()
        out = tmp_path / "out.jsonl"
        assert store.export(opened.manifest.campaign_id, out) == 4
        assert load_results(str(out)) == [_result(index)
                                          for index in range(4)]

    def test_ls_lists_many_campaigns(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.open(_config()).close()
        store.open(_config(kind=CampaignKind.CODE)).close()
        store.open(_config(arch="ppc")).close()
        assert len(store.campaign_ids()) == 3
        kinds = {manifest.kind for manifest in store.campaigns()}
        assert kinds == {"data", "code"}


class TestStudyFromStore:
    def test_study_loads_and_renders_off_disk(self, tmp_path,
                                              x86_context, ppc_context):
        from repro.core import Study, StudyConfig
        config = StudyConfig(seed=0, ops=36, store=str(tmp_path / "s"),
                             overrides={
                                 arch: {CampaignKind.DATA: 10,
                                        CampaignKind.STACK: 10}
                                 for arch in ("x86", "ppc")})
        study = Study(config)
        for arch in ("x86", "ppc"):
            study.run_campaign(arch, CampaignKind.DATA)
            study.run_campaign(arch, CampaignKind.STACK)
        # a fresh Study streams the journals back and renders the
        # same tables/figures — no injection, bit-identical results
        loaded = Study(config).load(
            kinds=(CampaignKind.DATA, CampaignKind.STACK))
        assert loaded.results == study.results
        assert loaded.render_table("x86") == study.render_table("x86")
        assert loaded.render_figure(6) == study.render_figure(6)

    def test_load_without_store_is_an_error(self):
        from repro.core import Study, StudyConfig
        with pytest.raises(ValueError, match="no store"):
            Study(StudyConfig()).load_campaign("x86", CampaignKind.DATA)


class TestCollectorReset:
    """Regression: collector state must not leak between campaigns."""

    def test_consecutive_campaigns_do_not_accumulate(self, x86_context):
        config = _config(count=12)
        first = Campaign(config, x86_context).run()
        after_first = x86_context.collector.count
        second = Campaign(config, x86_context).run()
        # same config, same context: identical records, not 2x
        assert x86_context.collector.count == after_first
        assert second.results == first.results
        # and the aggregate covers every delivered crash dump
        known = sum(1 for result in second.results
                    if result.outcome is Outcome.CRASH_KNOWN)
        assert x86_context.collector.count >= known

    def test_study_campaigns_reset_per_campaign(self, x86_context):
        from repro.core import Study, StudyConfig
        stack_config = _config(count=10, kind=CampaignKind.STACK)
        Campaign(stack_config, x86_context).run()
        standalone_count = x86_context.collector.count
        study = Study(StudyConfig(seed=0, ops=36, overrides={
            "x86": {CampaignKind.DATA: 10, CampaignKind.STACK: 10}}))
        study.run_campaign("x86", CampaignKind.DATA)
        study.run_campaign("x86", CampaignKind.STACK)
        # the stack campaign reset the shared context's collector, so
        # the aggregate equals a standalone stack campaign's — the
        # data campaign's records did not leak in
        assert x86_context.collector.count == standalone_count


class TestConcurrentReaders:
    """One writer appending, many readers replaying: every read is a
    consistent prefix.  ``replay(truncate=False)`` is the service's
    read path — it must tolerate (and never repair) a half-written
    tail while the writer still owns the file."""

    def test_reader_sees_prefix_past_inflight_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        results = [(index, _result(index)) for index in range(5)]
        with Journal(path) as journal:
            for index, result in results:
                journal.append(index, result)
        intact = path.read_bytes()
        # a writer mid-append: half of a sixth record on disk
        torn = encode_record(5, _result(5))[:30].encode()
        path.write_bytes(intact + torn)
        report = replay(path, truncate=False)
        assert report.records == results
        assert report.truncated_bytes == len(torn)
        # the reader did NOT truncate the writer's in-flight bytes
        assert path.read_bytes() == intact + torn

    def test_store_results_while_appending(self, tmp_path):
        import threading

        store = CampaignStore(tmp_path)
        config = _config(count=120)
        campaign_id = CampaignManifest.from_config(config).campaign_id
        opened = store.open(config)
        expected = [_result(index) for index in range(120)]
        errors = []
        observed_lengths = []
        writer_done = threading.Event()

        def reader():
            try:
                last = 0
                while not writer_done.is_set() or last < 120:
                    seen = store.results(campaign_id)
                    # consistent prefix: index order, no holes, no
                    # record ever differs from what was written
                    assert seen == expected[:len(seen)]
                    assert len(seen) >= last       # monotone growth
                    last = len(seen)
                    observed_lengths.append(last)
                    if last == 120:
                        break
            except Exception as exc:   # noqa: BLE001 — re-raised below
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        for index, result in enumerate(expected):
            opened.record(index, result)
        writer_done.set()
        opened.close()
        for thread in readers:
            thread.join(60)
            assert not thread.is_alive()
        assert not errors, errors
        # the readers genuinely raced the writer (some saw partials)
        assert max(observed_lengths) == 120

    def test_open_create_false_missing_store(self, tmp_path):
        from repro.store.store import StoreError
        missing = tmp_path / "never-created"
        with pytest.raises(StoreError, match="no store directory"):
            CampaignStore(missing, create=False)
        assert not missing.exists()    # create=False really is no-op

    def test_results_digest_is_order_and_content_bound(self):
        from repro.store.codec import results_digest
        results = [_result(index) for index in range(6)]
        digest = results_digest(results)
        assert digest == results_digest(list(results))   # deterministic
        assert digest != results_digest(results[::-1])   # order matters
        assert digest != results_digest(results[:-1])    # content matters
