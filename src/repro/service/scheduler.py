"""Worker-slot scheduling, job execution, and the durable job index.

The scheduler is the bridge between the asyncio daemon and the
blocking campaign engine:

* every admitted job runs in a thread of a bounded pool, calling
  ``Campaign.run(store=..., resume=True, workers=job.workers,
  progress_callback=...)`` — the PR 1 sharded path journaling through
  the PR 2 store, so results are durable the instant they exist;
* **slots**: the daemon owns ``workers`` slots total; a job occupies
  ``job.workers`` of them while running, and the fair queue only
  releases a job when its request fits (cancellation frees slots at
  the next batch boundary);
* **cancellation** is cooperative: the progress callback — which runs
  after the batch is journaled — observes ``cancel_requested`` and
  raises, so no completed work is ever lost and a cancelled job can
  later be resubmitted to resume;
* **durability**: every job state transition appends to
  ``<store>/service/jobs.jsonl``; on startup the index is replayed
  and jobs that were queued or running when the daemon died are
  requeued — their campaign journals make the rerun a bit-identical
  resume;
* **dedupe**: a submission whose config maps to the same stored
  campaign identity and count as a live (or completed) job returns
  that job instead of queueing a duplicate writer.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.injection.campaign import (
    Campaign, CampaignConfig, CampaignContext,
)
from repro.service.jobs import FairQueue, Job, JobState, campaign_identity
from repro.service.protocol import (
    ValidationError, campaign_config_from_payload, config_to_payload,
)
from repro.store.codec import results_digest
from repro.store.store import CampaignStore

logger = logging.getLogger(__name__)

JOB_INDEX_DIR = "service"
JOB_INDEX_NAME = "jobs.jsonl"


class JobCancelled(Exception):
    """Raised inside the worker thread when a cancel lands."""


class JobInterrupted(Exception):
    """Raised inside the worker thread on graceful daemon shutdown."""


class SchedulerDraining(Exception):
    """Submission refused: the daemon is shutting down (HTTP 503)."""


#: serializes CampaignContext construction across job threads — two
#: jobs sharing (arch, seed, ops) then build the multi-second context
#: once instead of racing to build it twice
_context_lock = threading.Lock()


def _job_record(job: Job) -> dict:
    return {
        "id": job.id, "tenant": job.tenant, "priority": job.priority,
        "workers": job.workers, "seq": job.seq,
        "config": config_to_payload(job.config),
        "campaign_id": job.campaign_id, "state": job.state.value,
        "done": job.done, "total": job.total,
        "counts": dict(job.counts), "digest": job.digest,
        "error": job.error, "submitted_at": job.submitted_at,
        "started_at": job.started_at, "finished_at": job.finished_at,
    }


def _job_from_record(record: dict) -> Job:
    job = Job(
        id=record["id"], tenant=record["tenant"],
        priority=record["priority"], workers=record["workers"],
        config=campaign_config_from_payload(record["config"]),
        campaign_id=record["campaign_id"], seq=record["seq"],
        state=JobState(record["state"]))
    job.done = record.get("done", 0)
    job.total = record.get("total", 0)
    job.counts = dict(record.get("counts", {}))
    job.digest = record.get("digest")
    job.error = record.get("error")
    job.submitted_at = record.get("submitted_at", 0.0)
    job.started_at = record.get("started_at")
    job.finished_at = record.get("finished_at")
    return job


class CampaignScheduler:
    """Admits, runs, streams, cancels, and persists campaign jobs."""

    def __init__(self, store: CampaignStore, workers: int = 2):
        self.store = store
        self.total_slots = max(1, workers)
        self.free_slots = self.total_slots
        self.queue = FairQueue()
        self.jobs: Dict[str, Job] = {}
        self.draining = False
        self._interrupt = False
        self._busy: Set[str] = set()          # campaign ids running
        self._tasks: Dict[str, asyncio.Task] = {}
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        self._history: Dict[str, List[dict]] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.total_slots,
            thread_name_prefix="repro-job")
        self._wake: Optional[asyncio.Event] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._index_path = (store.root / JOB_INDEX_DIR / JOB_INDEX_NAME)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Recover the job index and start the dispatch loop."""
        self._wake = asyncio.Event()
        self._recover()
        self._pump_task = asyncio.create_task(self._pump())
        self._wake.set()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, stop jobs at the next
        journaled batch boundary, keep them queued for the restart."""
        self.draining = True
        self._interrupt = True
        if self._pump_task is not None:
            self._pump_task.cancel()
        running = list(self._tasks.values())
        if running:
            await asyncio.gather(*running, return_exceptions=True)
        self._executor.shutdown(wait=True)

    def _recover(self) -> None:
        """Replay the job index; requeue interrupted jobs."""
        latest: Dict[str, dict] = {}
        try:
            lines = self._index_path.read_text(
                encoding="utf-8").splitlines()
        except FileNotFoundError:
            lines = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                latest[record["id"]] = record
            except (ValueError, KeyError):
                continue               # torn tail of a killed daemon
        max_seq = -1
        for job_id, record in latest.items():
            try:
                job = _job_from_record(record)
            except (ValidationError, KeyError, ValueError) as exc:
                logger.warning("job %s not recovered from %s: %s: %s",
                               job_id, self._index_path,
                               type(exc).__name__, exc)
                continue
            max_seq = max(max_seq, job.seq)
            self.jobs[job.id] = job
            self._history[job.id] = []
            if not job.state.terminal:
                # queued or mid-run when the daemon died: requeue;
                # the campaign journal turns the rerun into a resume
                job.state = JobState.QUEUED
                job.started_at = None
                self.queue.push(job)
                self._journal(job)
        for _ in range(max_seq + 1):   # seq continues past recovery
            self.queue.next_seq()
        requeued = len(self.queue)
        if requeued:
            logger.info("recovered %d job(s) from %s; %d requeued",
                        len(self.jobs), self._index_path, requeued)

    def _journal(self, job: Job) -> None:
        self._index_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._index_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(_job_record(job),
                                    sort_keys=True) + "\n")

    # -- submission --------------------------------------------------------

    def submit(self, config: CampaignConfig, tenant: str = "default",
               priority: int = 0, workers: int = 1
               ) -> Tuple[Job, bool]:
        """Queue one campaign job; returns ``(job, deduped)``.

        A config mapping to the same stored campaign identity and
        count as an existing non-failed job dedupes onto it: two
        clients asking for the same experiments share one writer and
        one result stream.
        """
        if self.draining:
            raise SchedulerDraining("service is draining; resubmit "
                                    "after restart")
        cid = campaign_identity(config)
        for job in self.jobs.values():
            if (job.campaign_id == cid
                    and job.config.count == config.count
                    and job.state not in (JobState.FAILED,
                                          JobState.CANCELLED)):
                return job, True
        seq = self.queue.next_seq()
        job = Job(
            id=f"job-{seq:06d}", tenant=tenant, priority=priority,
            workers=max(1, min(workers, self.total_slots)),
            config=config, campaign_id=cid, seq=seq)
        self.jobs[job.id] = job
        self._history[job.id] = []
        self.queue.push(job)
        self._journal(job)
        self._emit(job, {"event": "state", "state": job.state.value})
        if self._wake is not None:
            self._wake.set()
        return job, False

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job immediately, a running one at the next
        journaled batch boundary.  Idempotent on terminal jobs."""
        job = self.jobs[job_id]
        if job.state.terminal:
            return job
        if job.state is JobState.QUEUED and self.queue.remove(job):
            self._finish(job, JobState.CANCELLED)
        else:
            job.cancel_requested = True
        return job

    # -- dispatch ----------------------------------------------------------

    async def _pump(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.draining:
                continue
            while True:
                job = self.queue.pop_next(self.free_slots, self._busy)
                if job is None:
                    break
                self._start_job(job)

    def _start_job(self, job: Job) -> None:
        self.free_slots -= job.workers
        self._busy.add(job.campaign_id)
        job.state = JobState.RUNNING
        job.started_at = time.time()
        self._journal(job)
        self._emit(job, {"event": "state", "state": job.state.value})
        self._tasks[job.id] = asyncio.create_task(self._run_job(job))

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()

        def progress_cb(done: int, total: int, batch) -> None:
            # runs in the worker thread, *after* the batch is
            # journaled — raising aborts the run losing nothing
            if job.cancel_requested:
                raise JobCancelled(job.id)
            if self._interrupt:
                raise JobInterrupted(job.id)
            tally: Dict[str, int] = {}
            for _index, result in batch:
                key = result.outcome.value
                tally[key] = tally.get(key, 0) + 1
            loop.call_soon_threadsafe(self._on_progress, job, done,
                                      total, tally)

        def run_sync():
            with _context_lock:
                context = CampaignContext.get(
                    job.config.arch, job.config.seed, job.config.ops)
            campaign = Campaign(job.config, context)
            return campaign.run(store=self.store, resume=True,
                                workers=job.workers,
                                progress_callback=progress_cb)

        try:
            result = await loop.run_in_executor(self._executor,
                                                run_sync)
        except JobCancelled:
            self._finish(job, JobState.CANCELLED)
        except JobInterrupted:
            # graceful shutdown: back to the queue, journaled, so the
            # restarted daemon resumes it
            job.state = JobState.QUEUED
            job.started_at = None
            self._journal(job)
            self._emit(job, {"event": "state",
                             "state": job.state.value})
        except Exception as exc:       # noqa: BLE001 — job-level fault
            logger.exception("job %s failed", job.id)
            self._finish(job, JobState.FAILED,
                         error=f"{type(exc).__name__}: {exc}")
        else:
            job.done = job.total = len(result.results)
            counts: Dict[str, int] = {}
            for item in result.results:
                key = item.outcome.value
                counts[key] = counts.get(key, 0) + 1
            job.counts = counts
            self._finish(job, JobState.DONE,
                         digest=results_digest(result.results))
        finally:
            self.free_slots += job.workers
            self._busy.discard(job.campaign_id)
            self._tasks.pop(job.id, None)
            if self._wake is not None:
                self._wake.set()

    def _finish(self, job: Job, state: JobState,
                digest: Optional[str] = None,
                error: Optional[str] = None) -> None:
        job.state = state
        job.digest = digest if digest is not None else job.digest
        job.error = error
        job.finished_at = time.time()
        self._journal(job)
        event = {"event": "state", "state": state.value,
                 "done": job.done, "total": job.total,
                 "counts": dict(job.counts)}
        if job.digest:
            event["digest"] = job.digest
        if error:
            event["error"] = error
        self._emit(job, event, terminal=True)

    # -- progress fan-out --------------------------------------------------

    def _on_progress(self, job: Job, done: int, total: int,
                     tally: Dict[str, int]) -> None:
        job.done, job.total = done, total
        for key, bump in tally.items():
            job.counts[key] = job.counts.get(key, 0) + bump
        self._emit(job, {"event": "progress", "done": done,
                         "total": total, "counts": dict(job.counts)})

    def _emit(self, job: Job, event: dict,
              terminal: bool = False) -> None:
        event = dict(event, job=job.id, ts=time.time())
        self._history.setdefault(job.id, []).append(event)
        for queue in list(self._subscribers.get(job.id, ())):
            queue.put_nowait(event)
            if terminal:
                queue.put_nowait(None)

    def subscribe(self, job_id: str
                  ) -> Tuple[List[dict], Optional[asyncio.Queue]]:
        """History so far plus a live queue (None when terminal —
        the history already ends with the terminal event)."""
        job = self.jobs[job_id]
        history = list(self._history.get(job_id, ()))
        if job.state.terminal:
            return history, None
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        return history, queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        listeners = self._subscribers.get(job_id, [])
        if queue in listeners:
            listeners.remove(queue)

    # -- views -------------------------------------------------------------

    def job_views(self, tenant: Optional[str] = None,
                  state: Optional[str] = None) -> List[dict]:
        jobs = sorted(self.jobs.values(), key=lambda job: job.seq)
        if tenant is not None:
            jobs = [job for job in jobs if job.tenant == tenant]
        if state is not None:
            jobs = [job for job in jobs if job.state.value == state]
        return [job.view() for job in jobs]

    def stats(self) -> dict:
        return {
            "total_slots": self.total_slots,
            "free_slots": self.free_slots,
            "queued": len(self.queue),
            "running": len(self._tasks),
            "jobs": len(self.jobs),
            "draining": self.draining,
        }
