"""Stdlib HTTP client for the serve API.

:class:`ServeClient` is a thin ``http.client`` wrapper: one method per
endpoint, JSON in/out, provenance headers surfaced on the response.  It
exists so tests, the ``repro client`` CLI, and CI smoke scripts talk to
the server through one code path (and so nothing here ever needs a
third-party HTTP library).  It imports nothing of the campaign stack:
fanning a spec out over machines is ``campaign run --shard i/n`` into a
shared cache (docs/SERVE.md section 5), not a client-side loop.

When telemetry is enabled in the calling process and a span is open
(e.g. the CLI's root span), every request carries an ``X-Repro-Trace``
header, so the server's events -- and its campaign workers' events --
join the caller's trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import Any
from urllib.parse import urlencode, urlsplit

import repro.obs as obs


def _trace_header() -> str | None:
    """The current trace carrier, when telemetry is on and a span is open."""
    tel = obs.get()
    if tel is None:
        return None
    ctx = tel.current_context()
    return None if ctx is None else obs.format_traceparent(ctx)


class ServeError(Exception):
    """A non-2xx reply from the server."""

    def __init__(self, status: int, message: str, payload: Any = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


@dataclass
class ServeResponse:
    """One reply: parsed JSON payload + the provenance headers."""

    status: int
    payload: Any
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def source(self) -> str | None:
        """``cache`` / ``inflight`` / ``live`` for task endpoints."""
        return self.headers.get("x-repro-source")

    @property
    def task_hash(self) -> str | None:
        return self.headers.get("x-repro-task-hash")

    def raise_for_status(self) -> ServeResponse:
        if not self.ok:
            message = ""
            if isinstance(self.payload, dict):
                message = str(self.payload.get("error", ""))
            raise ServeError(self.status, message or "request failed", self.payload)
        return self


class ServeClient:
    """JSON client for one ``repro serve`` instance."""

    def __init__(self, base_url: str, *, timeout: float = 300.0) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// is supported, got {base_url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        *,
        query: dict[str, Any] | None = None,
    ) -> ServeResponse:
        if query:
            path = f"{path}?{urlencode(query)}"
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            carrier = _trace_header()
            if carrier is not None:
                headers[obs.TRACE_HEADER] = carrier
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                parsed: Any = json.loads(raw.decode("utf-8")) if raw else None
            except ValueError:
                parsed = None
            return ServeResponse(
                status=resp.status,
                payload=parsed,
                headers={k.lower(): v for k, v in resp.getheaders()},
                body=raw,
            )
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # task endpoints
    # ------------------------------------------------------------------
    def search(
        self, scenario: str, params: dict[str, Any] | None = None, **knobs: int
    ) -> ServeResponse:
        return self._request(
            "POST", "/v1/search", {"scenario": scenario, "params": params or {}, **knobs}
        )

    def classify(
        self, scenario: str, params: dict[str, Any] | None = None, **knobs: int
    ) -> ServeResponse:
        return self._request(
            "POST",
            "/v1/classify",
            {"scenario": scenario, "params": params or {}, **knobs},
        )

    def lint(
        self, scenario: str, params: dict[str, Any] | None = None, **knobs: int
    ) -> ServeResponse:
        return self._request(
            "POST", "/v1/lint", {"scenario": scenario, "params": params or {}, **knobs}
        )

    def campaign(
        self, spec: str, *, limit: int | None = None, shard: str | None = None
    ) -> ServeResponse:
        body: dict[str, Any] = {"spec": spec}
        if limit is not None:
            body["limit"] = limit
        if shard is not None:
            body["shard"] = shard
        return self._request("POST", "/v1/campaign", body)

    # ------------------------------------------------------------------
    # status / events
    # ------------------------------------------------------------------
    def status(self) -> ServeResponse:
        return self._request("GET", "/v1/status")

    def metrics(self) -> str:
        """Scrape ``GET /metrics``; returns the raw exposition text."""
        resp = self._request("GET", "/metrics")
        if not resp.ok:
            message = ""
            if isinstance(resp.payload, dict):
                message = str(resp.payload.get("error", ""))
            raise ServeError(resp.status, message or "metrics scrape failed",
                             resp.payload)
        return resp.body.decode("utf-8")

    def events(
        self, *, max_events: int = 50, timeout: float = 5.0
    ) -> list[dict[str, Any]]:
        """Subscribe to ``/v1/events`` and collect up to ``max_events``
        telemetry events (or until ``timeout`` seconds pass)."""
        conn = HTTPConnection(self.host, self.port, timeout=timeout + 10.0)
        events: list[dict[str, Any]] = []
        try:
            query = urlencode({"max_events": max_events, "timeout": timeout})
            carrier = _trace_header()
            headers = {} if carrier is None else {obs.TRACE_HEADER: carrier}
            conn.request("GET", f"/v1/events?{query}", headers=headers)
            resp = conn.getresponse()
            if resp.status != 200:
                raw = resp.read()
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except ValueError:
                    payload = None
                raise ServeError(resp.status, "events subscription failed", payload)
            while len(events) < max_events:
                line = resp.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    events.append(json.loads(line.decode("utf-8")))
        finally:
            conn.close()
        return events


__all__ = [
    "ServeClient",
    "ServeError",
    "ServeResponse",
]
