"""Campaign service: queue semantics, protocol validation, HTTP
end-to-end digests, concurrency, cancellation, and restart-resume.

The in-process tests run a real daemon (real sockets, real scheduler,
real campaigns through the store) on a background thread; the restart
matrix runs ``repro serve`` as a subprocess and SIGKILLs it
mid-campaign.  Campaign configs reuse the session contexts
(``ops=36``), so the engine-side work is shared with the rest of the
suite.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.outcomes import CampaignKind
from repro.service import CampaignService, ServiceClient, ServiceError
from repro.service import scheduler as scheduler_mod
from repro.service.jobs import FairQueue, Job, JobState
from repro.service.protocol import (
    ValidationError, campaign_config_from_payload, config_to_payload,
    study_configs_from_payload,
)
from repro.store.codec import results_digest
from repro.store.manifest import JOURNAL_NAME, CampaignManifest

DIGESTS = json.loads(
    (Path(__file__).parent / "data"
     / "campaign_digests.json").read_text())


# -- queue semantics (pure, no asyncio) -------------------------------------

def _job(job_id, tenant="t", priority=0, workers=1, seq=None,
         campaign="c"):
    return Job(id=job_id, tenant=tenant, priority=priority,
               workers=workers, config=None, campaign_id=campaign,
               seq=seq if seq is not None else int(job_id))


class TestFairQueue:
    def test_fifo_within_tenant(self):
        queue = FairQueue()
        for seq in range(3):
            queue.push(_job(str(seq), campaign=f"c{seq}"))
        order = [queue.pop_next(8, set()).id for _ in range(3)]
        assert order == ["0", "1", "2"]

    def test_priority_beats_fifo(self):
        queue = FairQueue()
        queue.push(_job("0", priority=0, campaign="a"))
        queue.push(_job("1", priority=5, campaign="b"))
        queue.push(_job("2", priority=5, campaign="c"))
        order = [queue.pop_next(8, set()).id for _ in range(3)]
        assert order == ["1", "2", "0"]

    def test_round_robin_across_tenants(self):
        queue = FairQueue()
        for seq in range(4):
            queue.push(_job(str(seq), tenant="hog",
                            campaign=f"h{seq}"))
        queue.push(_job("9", tenant="small", seq=9, campaign="s"))
        order = [queue.pop_next(8, set()).id for _ in range(5)]
        # the single-job tenant is served second, not fifth
        assert order.index("9") == 1

    def test_slot_admission_skips_not_blocks(self):
        queue = FairQueue()
        queue.push(_job("0", workers=4, campaign="a"))
        queue.push(_job("1", workers=1, seq=1, campaign="b"))
        picked = queue.pop_next(2, set())
        assert picked.id == "1"        # the 4-slot head doesn't block
        assert queue.pop_next(2, set()) is None
        assert queue.pop_next(4, set()).id == "0"

    def test_busy_campaign_skips(self):
        queue = FairQueue()
        queue.push(_job("0", campaign="same"))
        queue.push(_job("1", seq=1, campaign="other"))
        picked = queue.pop_next(8, {"same"})
        assert picked.id == "1"
        assert queue.pop_next(8, {"same"}) is None
        assert queue.pop_next(8, set()).id == "0"

    def test_remove_cancels_queued(self):
        queue = FairQueue()
        job = _job("0")
        queue.push(job)
        assert queue.remove(job) is True
        assert queue.remove(job) is False
        assert len(queue) == 0


# -- protocol validation ----------------------------------------------------

class TestProtocol:
    def test_round_trip(self):
        config = campaign_config_from_payload(
            {"arch": "ppc", "kind": "stack", "count": 7, "seed": 3,
             "ops": 36})
        assert config.arch == "ppc"
        assert config.kind is CampaignKind.STACK
        assert config.count == 7
        again = campaign_config_from_payload(config_to_payload(config))
        assert again == config

    @pytest.mark.parametrize("payload,fragment", [
        ({"kind": "stack", "count": 5}, "arch"),
        ({"arch": "x86", "count": 5}, "kind"),
        ({"arch": "x86", "kind": "stack"}, "count"),
        ({"arch": "arm", "kind": "stack", "count": 5}, "arch"),
        ({"arch": "x86", "kind": "heap", "count": 5}, "kind"),
        ({"arch": "x86", "kind": "stack", "count": 0}, "count"),
        ({"arch": "x86", "kind": "stack", "count": "5"}, "count"),
        ({"arch": "x86", "kind": "stack", "count": 5,
          "bogus": 1}, "bogus"),
        ({"arch": "x86", "kind": "stack", "count": 5,
          "prune": "dead"}, "prune"),
        ({"arch": "x86", "kind": "stack", "count": 5,
          "dump_loss_probability": 2.0}, "dump_loss_probability"),
        ({"arch": "x86", "kind": "stack", "count": 5,
          "dump_loss_probability": -0.5}, "dump_loss_probability"),
        ({"arch": "x86", "kind": "stack", "count": -1}, "count"),
        ({"arch": "x86", "kind": "stack", "count": True}, "count"),
        ({"arch": "x86", "kind": "stack", "count": 5, "ops": 0}, "ops"),
        ({"arch": "x86", "kind": "stack", "count": 5,
          "checkpoints": -1}, "checkpoints"),
        ({"arch": "x86", "kind": "stack", "count": 5,
          "seed": 1.5}, "seed"),
        ({"arch": "x86", "kind": "stack", "count": 5,
          "exec_mode": "jit"}, "exec_mode"),
        ("not a dict", "object"),
    ])
    def test_rejections(self, payload, fragment):
        with pytest.raises(ValidationError) as excinfo:
            campaign_config_from_payload(payload)
        assert fragment in str(excinfo.value)

    def test_study_expands_to_eight(self):
        configs = study_configs_from_payload(
            {"scale": 0.0, "min_campaign": 1, "ops": 36})
        assert len(configs) == 8
        assert {config.arch for config in configs} == {"x86", "ppc"}
        assert all(config.count == 1 for config in configs)

    @pytest.mark.parametrize("prune", ["dead", "taint"])
    def test_retired_prune_policy_rejected(self, prune):
        """The prune knob is retired: a campaign or study payload naming
        a policy other than "none" is refused, naming the field."""
        with pytest.raises(ValidationError, match="prune"):
            campaign_config_from_payload(
                {"arch": "x86", "kind": "code", "count": 5,
                 "prune": prune})
        with pytest.raises(ValidationError, match="prune"):
            study_configs_from_payload({"prune": prune})

    def test_study_drops_prune_none(self):
        """A study payload naming the retired knob's only value expands
        as if it were absent (campaign payloads: test_campaign_knobs)."""
        assert study_configs_from_payload({"prune": "none"}) == \
            study_configs_from_payload({})

    def test_study_rejects_unknown(self):
        with pytest.raises(ValidationError):
            study_configs_from_payload({"scales": 0.5})


# -- job-index recovery -----------------------------------------------------

#: a job-index line as written before the prune knob was retired
_LEGACY_RECORD = {
    "id": "job-000000", "tenant": "t", "priority": 0, "workers": 1,
    "seq": 0, "state": "queued", "done": 0, "total": 0, "counts": {},
    "digest": None, "error": None, "submitted_at": 0.0,
    "started_at": None, "finished_at": None,
    "config": {"arch": "x86", "kind": "code", "count": 100, "seed": 0,
               "ops": 48, "dump_loss_probability": 0.08,
               "prune": "none", "exec_mode": "block", "checkpoints": 8,
               "fault_model": "single-bit"},
    "campaign_id": "code-x86-3d4afdd2d330",
}


class TestRecovery:
    def test_legacy_prune_records(self, tmp_path, caplog):
        """A ``prune: "none"`` record reloads onto its campaign; a
        record naming a retired policy is logged by job id and skipped
        while the other records still recover."""
        from repro.service.scheduler import (
            JOB_INDEX_DIR, JOB_INDEX_NAME, CampaignScheduler,
        )
        from repro.store.store import CampaignStore
        retired = dict(
            _LEGACY_RECORD, id="job-000001", seq=1,
            config=dict(_LEGACY_RECORD["config"], prune="dead"),
            campaign_id="code-x86-3c87672ea671")
        index = tmp_path / JOB_INDEX_DIR / JOB_INDEX_NAME
        index.parent.mkdir(parents=True)
        index.write_text("".join(json.dumps(record) + "\n"
                                 for record in (_LEGACY_RECORD, retired)))
        scheduler = CampaignScheduler(CampaignStore(tmp_path), workers=1)
        try:
            with caplog.at_level("WARNING",
                                 logger="repro.service.scheduler"):
                scheduler._recover()
        finally:
            scheduler._executor.shutdown(wait=True)
        assert list(scheduler.jobs) == ["job-000000"]
        job = scheduler.jobs["job-000000"]
        assert job.campaign_id == _LEGACY_RECORD["campaign_id"]
        assert CampaignManifest.from_config(job.config).campaign_id == \
            _LEGACY_RECORD["campaign_id"]
        assert len(scheduler.queue) == 1
        warnings = [record.getMessage() for record in caplog.records
                    if record.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "job-000001" in warnings[0] and "prune" in warnings[0]


# -- a real daemon on a background thread -----------------------------------

class DaemonThread:
    """A CampaignService in this process, on its own event loop."""

    def __init__(self, store_dir, workers=2):
        self.service = None
        self.port = None
        self.loop = None
        self._started = threading.Event()
        self._stop_event = None
        self._thread = threading.Thread(
            target=self._run, args=(str(store_dir), workers),
            daemon=True)
        self._thread.start()
        assert self._started.wait(30), "daemon failed to start"

    def _run(self, store_dir, workers):
        async def main():
            self.loop = asyncio.get_running_loop()
            self.service = CampaignService(store_dir, workers=workers,
                                           port=0)
            self.port = await self.service.start()
            self._stop_event = asyncio.Event()
            self._started.set()
            await self._stop_event.wait()
            await self.service.stop()
        asyncio.run(main())

    def client(self, timeout=180.0) -> ServiceClient:
        return ServiceClient(f"http://127.0.0.1:{self.port}",
                             timeout=timeout)

    def begin_drain(self):
        """Flip the drain flag from the loop thread (as SIGTERM would)."""
        done = threading.Event()

        def flip():
            self.service.scheduler.draining = True
            done.set()
        self.loop.call_soon_threadsafe(flip)
        assert done.wait(10)

    def shutdown(self):
        if self.loop is not None and self._stop_event is not None:
            self.loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(120)
        assert not self._thread.is_alive(), "daemon failed to stop"


@pytest.fixture()
def daemon(tmp_path):
    handle = DaemonThread(tmp_path / "store", workers=2)
    yield handle
    handle.shutdown()


def _register_x86(count=10):
    return {"arch": "x86", "kind": "register", "count": count,
            "seed": 0, "ops": 36}


def _journal_sha(store_root, campaign_id) -> str:
    path = Path(store_root) / campaign_id / JOURNAL_NAME
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestServiceEndToEnd:
    def test_http_submission_matches_direct_run(self, daemon,
                                                tmp_path,
                                                x86_context):
        """The acceptance bar: same campaign via HTTP and via
        ``Campaign.run(store=)`` — identical result digests AND
        bit-identical journal files."""
        client = daemon.client()
        out = client.submit(_register_x86(), workers=1)
        assert out["deduped"] is False
        job = client.wait(out["job"]["id"], timeout=600)
        assert job["state"] == "done"
        # pinned digest (same config as tests/data recordings)
        assert job["digest"] == DIGESTS["x86/register"]["sha256"]

        config = campaign_config_from_payload(_register_x86())
        direct_store = tmp_path / "direct"
        direct = Campaign(config, x86_context).run(store=direct_store)
        assert results_digest(direct.results) == job["digest"]
        assert (_journal_sha(daemon.service.store.root,
                             job["campaign_id"])
                == _journal_sha(direct_store, job["campaign_id"]))

    def test_duplicate_submission_dedupes(self, daemon, x86_context):
        client = daemon.client()
        first = client.submit(_register_x86(), workers=1)
        second = client.submit(_register_x86(), workers=1)
        assert second["deduped"] is True
        assert second["job"]["id"] == first["job"]["id"]
        job = client.wait(first["job"]["id"], timeout=600)
        # deduping after completion returns the finished job
        third = client.submit(_register_x86(), workers=1)
        assert third["deduped"] is True
        assert third["job"]["digest"] == job["digest"]

    def test_event_stream_and_read_endpoints(self, daemon,
                                             x86_context):
        client = daemon.client()
        payload = {"arch": "x86", "kind": "stack", "count": 12,
                   "seed": 0, "ops": 36}
        job_id = client.submit(payload)["job"]["id"]
        seen_progress = []
        terminal = None
        for event in client.stream(job_id):
            if event["event"] == "progress":
                seen_progress.append(event["done"])
            if (event["event"] == "state"
                    and event["state"] in ("done", "failed")):
                terminal = event
                break
        assert terminal is not None and terminal["state"] == "done"
        assert seen_progress == sorted(seen_progress)
        assert terminal["digest"] == DIGESTS["x86/stack"]["sha256"]

        view = client.job(job_id)
        campaign_id = view["campaign_id"]
        assert any(row["campaign_id"] == campaign_id
                   for row in client.campaigns())
        records = client.results(campaign_id)
        assert [record["index"] for record in records] == list(range(12))
        assert client.results(campaign_id, limit=3)[-1]["index"] == 2
        summary = client.summary(campaign_id)
        assert summary["done"] == 12
        assert summary["digest"] == view["digest"]
        assert sum(summary["outcomes"].values()) == 12
        assert "Stack" in summary["table"]

    def test_cancel_frees_slots_then_resume_completes(self, daemon,
                                                      x86_context,
                                                      monkeypatch):
        client = daemon.client()
        # the job is mostly screened and would finish within
        # milliseconds: once it has reported done >= 2, its next batch
        # waits until the cancel below has returned
        cancel_returned = threading.Event()

        class Paced(Campaign):
            def run(self, *args, progress_callback=None, **kwargs):
                reported = []

                def paced(done, total, batch):
                    if reported:
                        assert cancel_returned.wait(600), "never cancelled"
                    progress_callback(done, total, batch)
                    if done >= 2:
                        reported.append(done)

                return super().run(*args, progress_callback=paced,
                                   **kwargs)

        monkeypatch.setattr(scheduler_mod, "Campaign", Paced)
        payload = {"arch": "x86", "kind": "data", "count": 48,
                   "seed": 0, "ops": 36}
        job_id = client.submit(payload)["job"]["id"]
        try:
            for event in client.stream(job_id):
                if (event["event"] == "progress"
                        and event["done"] >= 2):
                    break
            cancelled = client.cancel(job_id)
        finally:
            cancel_returned.set()
        assert cancelled["cancel_requested"] is True \
            or cancelled["state"] == "cancelled"
        final = client.wait(job_id, timeout=120)
        assert final["state"] == "cancelled"
        assert 0 < final["done"] < 48
        health = client.health()
        assert health["free_slots"] == health["total_slots"]

        # resubmitting resumes from the journal to the full digest
        resumed_id = client.submit(payload)["job"]["id"]
        assert resumed_id != job_id    # cancelled jobs don't dedupe
        resumed = client.wait(resumed_id, timeout=600)
        assert resumed["state"] == "done"
        assert resumed["digest"] == _direct_digest(payload,
                                                   x86_context)

    def test_cancel_queued_job_is_immediate(self, daemon,
                                            x86_context, monkeypatch):
        client = daemon.client()
        # two blockers hold both slots until this test releases them,
        # so the third job is still queued when its cancel lands
        release = threading.Event()

        class Blocker(Campaign):
            def run(self, *args, **kwargs):
                if self.config.dump_loss_probability < 0.09:
                    assert release.wait(600), "blocker never released"
                return super().run(*args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "Campaign", Blocker)
        blockers = [client.submit(
            {"arch": "x86", "kind": "data", "count": 30, "seed": 0,
             "ops": 36, "dump_loss_probability": 0.08 + index * 1e-6},
            workers=1)["job"]["id"] for index in range(2)]
        deadline = time.monotonic() + 60
        while any(client.job(blocker)["state"] != "running"
                  for blocker in blockers):
            assert time.monotonic() < deadline, "blockers never started"
            time.sleep(0.01)
        try:
            queued = client.submit(
                {"arch": "x86", "kind": "data", "count": 30, "seed": 0,
                 "ops": 36, "dump_loss_probability": 0.09})["job"]["id"]
            view = client.cancel(queued)
            assert view["state"] in ("cancelled", "queued")
            final = client.wait(queued, timeout=60)
            assert final["state"] == "cancelled"
            assert final["done"] == 0      # never started
        finally:
            release.set()
        for blocker in blockers:
            assert client.wait(blocker,
                               timeout=600)["state"] == "done"

    def test_draining_daemon_returns_503(self, daemon, x86_context):
        client = daemon.client()
        daemon.begin_drain()
        assert client.health()["status"] == "draining"
        with pytest.raises(ServiceError) as excinfo:
            client.submit(_register_x86())
        assert excinfo.value.status == 503

    def test_http_error_paths(self, daemon):
        client = daemon.client()
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"arch": "x86", "kind": "stack"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("DELETE", "/v1/jobs")
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nonsense")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.summary("no-such-campaign")
        assert excinfo.value.status == 404


def _direct_digest(payload, context) -> str:
    config = campaign_config_from_payload(payload)
    return results_digest(
        Campaign(config, context).run().results)


class TestServiceConcurrency:
    def test_eight_mixed_clients_no_starvation(self, daemon,
                                               x86_context):
        """≥8 simultaneous clients: mixed submit/status/stream/read,
        two tenants, everything completes, nothing is lost."""
        client = daemon.client()
        errors = []
        submitted = {}
        lock = threading.Lock()
        stop = threading.Event()

        def submit_worker(tenant, offset):
            try:
                payload = {"arch": "x86", "kind": "register",
                           "count": 8, "seed": 0, "ops": 36,
                           "dump_loss_probability":
                               0.08 + offset * 1e-6}
                out = daemon.client().submit(payload, tenant=tenant)
                with lock:
                    submitted[out["job"]["id"]] = tenant
                final = daemon.client().wait(out["job"]["id"],
                                             timeout=600)
                assert final["state"] == "done", final
            except Exception as exc:   # noqa: BLE001 — collected
                errors.append(exc)

        def poll_worker():
            try:
                while not stop.is_set():
                    daemon.client(timeout=30).health()
                    daemon.client(timeout=30).jobs()
                    time.sleep(0.05)
            except Exception as exc:   # noqa: BLE001
                errors.append(exc)

        def stream_worker():
            try:
                deadline = time.monotonic() + 120
                while not stop.is_set():
                    with lock:
                        job_ids = list(submitted)
                    if job_ids:
                        for event in daemon.client().stream(
                                job_ids[0]):
                            if (event.get("event") == "state"
                                    and event.get("state")
                                    in ("done", "failed",
                                        "cancelled")):
                                return
                            if stop.is_set():
                                return
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.05)
            except Exception as exc:   # noqa: BLE001
                errors.append(exc)

        def read_worker():
            try:
                while not stop.is_set():
                    for row in daemon.client(timeout=30).campaigns():
                        if "error" not in row:
                            daemon.client(timeout=30).results(
                                row["campaign_id"], limit=5)
                    time.sleep(0.05)
            except Exception as exc:   # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_worker,
                             args=("tenant-a", 0)),
            threading.Thread(target=submit_worker,
                             args=("tenant-a", 1)),
            threading.Thread(target=submit_worker,
                             args=("tenant-b", 2)),
            threading.Thread(target=submit_worker,
                             args=("tenant-b", 3)),
            threading.Thread(target=poll_worker),
            threading.Thread(target=poll_worker),
            threading.Thread(target=stream_worker),
            threading.Thread(target=read_worker),
        ]
        for thread in threads:
            thread.start()
        for thread in threads[:4]:     # the submitters finish
            thread.join(600)
            assert not thread.is_alive(), "submit worker hung"
        stop.set()
        for thread in threads[4:]:
            thread.join(60)
            assert not thread.is_alive(), "auxiliary worker hung"
        assert not errors, errors
        assert len(submitted) == 4
        views = client.jobs()
        done = [view for view in views if view["state"] == "done"]
        assert len(done) >= 4
        assert {view["tenant"] for view in done
                if view["id"] in submitted} == {"tenant-a",
                                                "tenant-b"}

    def test_tenant_fairness_under_contention(self, tmp_path,
                                              x86_context):
        """One slot, tenant A floods the queue, tenant B submits one
        job: B runs before A's backlog drains."""
        handle = DaemonThread(tmp_path / "store", workers=1)
        try:
            client = handle.client()
            blocker = client.submit(
                {"arch": "x86", "kind": "data", "count": 24,
                 "seed": 0, "ops": 36},
                tenant="z")["job"]["id"]
            hogs = [client.submit(
                {"arch": "x86", "kind": "register", "count": 4,
                 "seed": 0, "ops": 36,
                 "dump_loss_probability": 0.08 + index * 1e-6},
                tenant="hog")["job"]["id"] for index in range(3)]
            small = client.submit(
                {"arch": "x86", "kind": "register", "count": 4,
                 "seed": 0, "ops": 36,
                 "dump_loss_probability": 0.09},
                tenant="small")["job"]["id"]
            for job_id in [blocker] + hogs + [small]:
                assert client.wait(job_id,
                                   timeout=600)["state"] == "done"
            finished = {view["id"]: view["finished_at"]
                        for view in client.jobs()}
            # round-robin: the small tenant is not behind the whole
            # hog backlog — it beats at least one hog job
            assert finished[small] < max(finished[job_id]
                                         for job_id in hogs)
        finally:
            handle.shutdown()


@pytest.mark.slow
class TestServiceRestart:
    """Kill -9 the daemon mid-campaign; the restart resumes to the
    same digest — the journal + job index make it bit-identical."""

    def _spawn(self, store, port):
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(store), "--workers", "1",
             "--port", str(port)],
            env=env, cwd=root, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)

    def test_sigkill_restart_resumes_to_same_digest(self, tmp_path,
                                                    x86_context):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        store = tmp_path / "store"
        payload = {"arch": "x86", "kind": "data", "count": 60,
                   "seed": 0, "ops": 36}
        expected = _direct_digest(payload, x86_context)

        daemon = self._spawn(store, port)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}",
                                   timeout=300)
            client.wait_ready(timeout=120)
            job_id = client.submit(payload)["job"]["id"]
            for event in client.stream(job_id):
                if (event.get("event") == "progress"
                        and event["done"] >= 2):
                    break
            daemon.kill()              # SIGKILL: no drain, no journal
            daemon.wait(30)

            daemon = self._spawn(store, port)
            client.wait_ready(timeout=120)
            view = client.job(job_id)  # survived via the job index
            assert view["state"] in ("queued", "running", "done")
            final = client.wait(job_id, timeout=600)
            assert final["state"] == "done"
            assert final["digest"] == expected

            # graceful shutdown exits 0
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(60) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(30)
