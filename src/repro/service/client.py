"""A thin blocking client for the campaign service.

Stdlib-only (``http.client``); one connection per request, matching
the daemon's one-request-per-connection policy.  The ``repro submit``
/ ``repro jobs`` / ``repro cancel`` CLI subcommands wrap this class,
and so do the service tests and benchmarks.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from typing import Iterator, List, Optional
from urllib.parse import urlencode, urlsplit


class ServiceError(Exception):
    """A non-2xx response (or a dead daemon)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Blocking JSON client for one campaign-service daemon."""

    def __init__(self, url: str = "http://127.0.0.1:8321",
                 timeout: float = 120.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8321
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port,
                              timeout=self.timeout)

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None):
        connection = self._connection()
        try:
            body = headers = None
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers = {"Content-Type": "application/json"}
            connection.request(method, path, body=body,
                               headers=headers or {})
            response = connection.getresponse()
            data = response.read()
            parsed = json.loads(data) if data else {}
            if response.status >= 400:
                message = (parsed.get("error", data.decode("utf-8",
                                                           "replace"))
                           if isinstance(parsed, dict) else str(parsed))
                raise ServiceError(response.status, message)
            return parsed
        finally:
            connection.close()

    # -- service API -------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def wait_ready(self, timeout: float = 30.0) -> dict:
        """Poll until the daemon answers (startup helper)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (OSError, ServiceError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    def submit(self, config: dict, tenant: str = "default",
               priority: int = 0, workers: int = 1,
               job_type: str = "campaign") -> dict:
        """Submit; returns the response payload (``job`` or ``jobs``,
        plus ``deduped``)."""
        return self._request("POST", "/v1/jobs", {
            "type": job_type, "tenant": tenant, "priority": priority,
            "workers": workers, "config": config})

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self, tenant: Optional[str] = None,
             state: Optional[str] = None) -> List[dict]:
        query = {key: value for key, value in
                 (("tenant", tenant), ("state", state))
                 if value is not None}
        path = "/v1/jobs" + (f"?{urlencode(query)}" if query else "")
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST",
                             f"/v1/jobs/{job_id}/cancel")["job"]

    def stream(self, job_id: str) -> Iterator[dict]:
        """Yield progress events (NDJSON) until the job reaches a
        terminal state or the daemon goes away."""
        connection = self._connection()
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status >= 400:
                data = response.read()
                try:
                    message = json.loads(data).get("error", "")
                except ValueError:
                    message = data.decode("utf-8", "replace")
                raise ServiceError(response.status, message)
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue               # keep-alive
                yield json.loads(line)
        finally:
            connection.close()

    def wait(self, job_id: str, timeout: float = 600.0,
             on_event=None) -> dict:
        """Block until *job_id* is terminal; returns the final view.

        Streams events (reconnecting if the stream drops) and falls
        back to polling, so it survives a daemon restart mid-job.
        """
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["state"] in ("done", "failed", "cancelled"):
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['state']} after "
                    f"{timeout:.0f}s")
            try:
                for event in self.stream(job_id):
                    if on_event is not None:
                        on_event(event)
                    if (event.get("event") == "state"
                            and event.get("state") in
                            ("done", "failed", "cancelled")):
                        break
                    if time.monotonic() >= deadline:
                        break
            except (OSError, ServiceError):
                time.sleep(0.2)        # daemon restarting: poll again

    # -- read endpoints ----------------------------------------------------

    def campaigns(self) -> List[dict]:
        return self._request("GET", "/v1/campaigns")["campaigns"]

    def campaign(self, campaign_id: str) -> dict:
        return self._request("GET", f"/v1/campaigns/{campaign_id}")

    def results(self, campaign_id: str,
                limit: Optional[int] = None) -> List[dict]:
        path = f"/v1/campaigns/{campaign_id}/results"
        if limit is not None:
            path += f"?limit={limit}"
        connection = self._connection()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            data = response.read()
            if response.status >= 400:
                try:
                    message = json.loads(data).get("error", "")
                except ValueError:
                    message = data.decode("utf-8", "replace")
                raise ServiceError(response.status, message)
            return [json.loads(line)
                    for line in data.decode("utf-8").splitlines()
                    if line.strip()]
        finally:
            connection.close()

    def summary(self, campaign_id: str) -> dict:
        return self._request("GET",
                             f"/v1/campaigns/{campaign_id}/summary")

    def sensitivity(self, campaign_id: str) -> str:
        connection = self._connection()
        try:
            connection.request(
                "GET", f"/v1/campaigns/{campaign_id}/sensitivity")
            response = connection.getresponse()
            data = response.read().decode("utf-8")
            if response.status >= 400:
                try:
                    message = json.loads(data).get("error", data)
                except ValueError:
                    message = data
                raise ServiceError(response.status, message)
            return data
        finally:
            connection.close()
