"""``python -m repro serve``: verification-as-a-service over asyncio HTTP/JSON.

A long-lived, stdlib-only HTTP server wrapping the campaign machinery so
verification queries become service calls:

========================== ===========================================
``POST /v1/search``        deadlock reachability for one scenario;
                           byte-identical to ``repro search --json``
``POST /v1/classify``      full-adversary classification;
                           byte-identical to ``repro classify --json``
``POST /v1/lint``          the static linter's report; byte-identical
                           to ``repro lint --json``
``POST /v1/campaign``      run a whole spec (optionally one shard)
                           through the batcher; returns the summary
``GET  /v1/status``        server / batcher / per-tier cache stats,
                           integrity scans
``GET  /v1/events``        live telemetry stream as newline-delimited
                           JSON (docs/OBSERVABILITY.md schema)
``GET  /metrics``          Prometheus text exposition of the live
                           registry (counters, gauges, histograms,
                           span summaries)
========================== ===========================================

A request becomes a task through the builder ``repro search``/``classify``/
``lint`` use (:func:`repro.campaign.query.query_task`: JSON-object params
that name no analysis option, integer options in range), after a check
that the scenario is registered, and is content-addressed with the
task's ``task_hash``; answers come from the tiered cache when
possible, otherwise through the :class:`~repro.serve.batcher.MicroBatcher`
(in-flight dedup, so N concurrent identical cold queries execute exactly
once, and one execution lane: misses that arrive while a batch runs form
the next batch).  The lane runs on a one-thread executor; ``--jobs``
fans each batch out through the campaign process pool from there,
keeping the event loop free to answer cache hits in microseconds.

Task endpoints attach provenance headers instead of polluting the
verdict payload (which must stay CLI-identical): ``X-Repro-Source``
(``cache`` / ``inflight`` / ``live``), ``X-Repro-Task-Hash``,
``X-Repro-Wall-Time``.

Distributed tracing: an ``X-Repro-Trace`` request header (W3C
traceparent shaped, see ``repro.obs.trace``) joins the request to the
caller's trace -- every event the request produces, including campaign
pool worker events, carries the caller's trace id.  Without the header
each request starts a fresh trace.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qs

import repro.obs as obs
from repro.campaign.cache import (
    CacheBackend,
    MemoryLRUCache,
    TieredCache,
    make_backend,
)
from repro.campaign.ledger import CampaignSummary
from repro.campaign.query import query_task
from repro.campaign.runner import RunnerConfig
from repro.campaign.scenarios import scenario_names
from repro.campaign.specs import build_spec, spec_names
from repro.campaign.tasks import CampaignTask, parse_shard, shard_tasks
from repro.serve.batcher import MicroBatcher
from repro.serve.payloads import (
    classify_payload_from_result,
    dumps,
    search_payload_from_result,
)

SERVER_NAME = "repro-serve"

#: seconds a client may take over each header line, and over the body
READ_TIMEOUT_S = 30.0
#: largest request body accepted (the largest real one is one task query)
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

class ApiError(Exception):
    """A structured 4xx/5xx reply."""

    def __init__(self, status: int, message: str, **details: Any) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.details = details

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {"error": self.message, "status": self.status}
        out.update(self.details)
        return out


@dataclass
class _Request:
    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict[str, Any]:
        if not self.body:
            return {}
        try:
            parsed = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(parsed, dict):
            raise ApiError(400, "request body must be a JSON object")
        return parsed


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: make_backend spec for the durable tier (dir:/sqlite:/memory[:N]/path)
    cache_backend: str | None = None
    #: entries held by the in-memory hot tier; 0 disables tiering
    hot_capacity: int = 1024
    jobs: int = 1
    retries: int = 0
    task_timeout: float | None = None
    telemetry: bool = True


def _json_response(
    status: int, payload: Any, headers: dict[str, str] | None = None
) -> bytes:
    body = (dumps(payload) + "\n").encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Server: {SERVER_NAME}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    lines += ["", ""]
    return "\r\n".join(lines).encode("latin-1") + body


def _text_response(status: int, body: str, content_type: str) -> bytes:
    data = body.encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Server: {SERVER_NAME}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(data)}",
        "Connection: close",
        "",
        "",
    ]
    return "\r\n".join(lines).encode("latin-1") + data


def _serve_headers(result: Any, source: str) -> dict[str, str]:
    return {
        "X-Repro-Source": source,
        "X-Repro-Task-Hash": result.task_hash,
        "X-Repro-Wall-Time": f"{result.wall_time:.6f}",
    }


class ReproServer:
    """One serve instance: cache tiers, batcher, HTTP front."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        # checked first: a bad option must not leave a cache store behind
        self.runner_config = RunnerConfig(
            max_workers=self.config.jobs,
            retries=self.config.retries,
            task_timeout=self.config.task_timeout,
        )
        cold = make_backend(self.config.cache_backend)
        self.cold: CacheBackend = cold
        self.cache: CacheBackend
        if self.config.hot_capacity > 0:
            self.cache = TieredCache(MemoryLRUCache(self.config.hot_capacity), cold)
        else:
            self.cache = cold
        self.batcher: MicroBatcher | None = None
        self.host = self.config.host
        self.port = self.config.port
        self.started_at: float | None = None
        self.requests = 0
        self.by_endpoint: Counter[str] = Counter()
        self._subscribers: set[asyncio.Queue[dict[str, Any] | None]] = set()
        #: live connection handlers, so stop() can end them
        self._handlers: dict[asyncio.Task[None], asyncio.StreamWriter] = {}
        self._tel: obs.Telemetry | None = None
        self._tel_prev: obs.Telemetry | None = None
        self._env_prev: str | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        # the batcher's execution lane: one batch runs at a time (on the
        # batcher's process pool with --jobs 2 or more)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        if self.config.telemetry:
            self._env_prev = os.environ.get(obs.ENV_VAR)
            os.environ[obs.ENV_VAR] = "on"  # campaign pool workers inherit
            self._tel = obs.Telemetry(run_id=SERVER_NAME)
            self._tel_prev = obs.configure(self._tel)
            self._tel.add_sink(self._event_sink)
        self.batcher = MicroBatcher(
            cache=self.cache,
            config=self.runner_config,
            executor=self._executor,
            spec_name="serve",
        )
        if self.batcher.pool is not None:
            # with --jobs 2 or more the workers start before the server
            # listens, so no cold query waits for a worker's start-up
            self.batcher.pool.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self.started_at = time.time()
        if self._tel is not None:
            self._tel.event("serve.start", host=self.host, port=self.port)
        self._ready.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        for queue in list(self._subscribers):
            with suppress(asyncio.QueueFull):
                queue.put_nowait(None)
        # end live connections before wait_closed(), which waits for them
        # from Python 3.12.1; a handler left for asyncio.run to cancel
        # would print a traceback per connection.  The abort also ends a
        # handler whose cancellation a pre-3.12 wait_for() swallows.
        handlers = list(self._handlers.items())
        for task, writer in handlers:
            writer.transport.abort()
            task.cancel()
        await asyncio.gather(*(task for task, _ in handlers), return_exceptions=True)
        if self._server is not None:
            with suppress(Exception):
                await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self.batcher is not None:
            self.batcher.close()
        if self._tel is not None:
            self._tel.event("serve.stop")
            self._tel.remove_sink(self._event_sink)
            obs.configure(self._tel_prev)
            if self._env_prev is None:
                os.environ.pop(obs.ENV_VAR, None)
            else:
                os.environ[obs.ENV_VAR] = self._env_prev
            self._tel = None
        close = getattr(self.cold, "close", None)
        if callable(close):
            close()
        self._ready.clear()

    async def run_async(self, announce: Callable[[str], None] | None = None) -> None:
        await self.start()
        assert self._stop is not None
        if threading.current_thread() is threading.main_thread():
            # SIGTERM takes SIGINT's way out: through stop(), which also
            # shuts the worker pool down; closing the loop removes the handler
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, self._stop.set)
        try:
            if announce is not None:
                announce(
                    f"{SERVER_NAME} listening on {self.url} "
                    f"(cache: {type(self.cold).__name__}, "
                    f"hot tier: {self.config.hot_capacity}, "
                    f"jobs: {self.config.jobs})"
                )
            await self._stop.wait()
        finally:
            await self.stop()

    def run(self, announce: Callable[[str], None] | None = None) -> None:
        """Blocking entry point (the CLI's)."""
        asyncio.run(self.run_async(announce))

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block (from another thread) until the server is accepting."""
        return self._ready.wait(timeout)

    def shutdown(self) -> None:
        """Request a stop from any thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)

    # ------------------------------------------------------------------
    # telemetry fan-out
    # ------------------------------------------------------------------
    def _event_sink(self, event: dict[str, Any]) -> None:
        # sinks fire on the emitting thread (event loop *or* the batch
        # executor); hop onto the loop before touching subscriber queues
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._fanout, event)

    def _fanout(self, event: dict[str, Any]) -> None:
        for queue in list(self._subscribers):
            if queue.qsize() < 10_000:  # drop on a stuck consumer, never block
                queue.put_nowait(event)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader) -> _Request:
        line = await asyncio.wait_for(reader.readline(), timeout=READ_TIMEOUT_S)
        if not line:
            raise ConnectionError("client closed before sending a request")
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=READ_TIMEOUT_S)
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ApiError(
                400, f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413, f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = (
            await asyncio.wait_for(reader.readexactly(length), timeout=READ_TIMEOUT_S)
            if length
            else b""
        )
        path, _, qs = target.partition("?")
        query = {k: v[-1] for k, v in parse_qs(qs).items()}
        return _Request(
            method=method.upper(), path=path, query=query, headers=headers, body=body
        )

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers[task] = writer
        try:
            try:
                req = await self._read_request(reader)
            except ApiError as exc:
                writer.write(_json_response(exc.status, exc.payload()))
                await writer.drain()
                return
            except (ConnectionError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                return
            self.requests += 1
            self.by_endpoint[f"{req.method} {req.path}"] += 1
            tel = self._tel
            # join the caller's trace when the carrier header is present
            # (lenient: a malformed header means a fresh trace, never a 4xx)
            ctx = (
                obs.extract_traceparent(req.headers.get("x-repro-trace"))
                if tel is not None
                else None
            )
            try:
                with tel.activate(ctx) if tel is not None else nullcontext():
                    if req.method == "GET" and req.path == "/metrics":
                        await self._h_metrics(req, writer)
                        return
                    if req.method == "GET" and req.path == "/v1/events":
                        await self._h_events(req, writer)
                        return
                    status, payload, headers = await self._dispatch(req)
                writer.write(_json_response(status, payload, headers))
                await writer.drain()
            except ApiError as exc:
                writer.write(_json_response(exc.status, exc.payload()))
                await writer.drain()
            except Exception as exc:  # noqa: BLE001 - a handler bug must 500
                writer.write(
                    _json_response(
                        500, {"error": f"{type(exc).__name__}: {exc}", "status": 500}
                    )
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # stop() ended this connection; end the task without a traceback
        finally:
            self._handlers.pop(task, None)
            with suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self, req: _Request
    ) -> tuple[int, Any, dict[str, str] | None]:
        routes: dict[tuple[str, str], Any] = {
            ("POST", "/v1/search"): self._h_search,
            ("POST", "/v1/classify"): self._h_classify,
            ("POST", "/v1/lint"): self._h_lint,
            ("POST", "/v1/campaign"): self._h_campaign,
            ("GET", "/v1/status"): self._h_status,
        }
        handler = routes.get((req.method, req.path))
        if handler is not None:
            return await handler(req)
        extra = [("GET", "/v1/events"), ("GET", "/metrics")]
        if req.method == "GET" and req.path == "/":
            endpoints = sorted(f"{m} {p}" for m, p in list(routes) + extra)
            return 200, {"server": SERVER_NAME, "endpoints": endpoints}, None
        known_paths = {p for _, p in routes} | {p for _, p in extra}
        if req.path in known_paths:
            raise ApiError(405, f"method {req.method} not allowed for {req.path}")
        raise ApiError(
            404,
            f"unknown endpoint {req.path}",
            endpoints=sorted(
                {f"{m} {p}" for m, p in routes} | {f"{m} {p}" for m, p in extra}
            ),
        )

    # ------------------------------------------------------------------
    # task endpoints
    # ------------------------------------------------------------------
    def _parse_task(
        self, body: dict[str, Any], *, kind: str
    ) -> tuple[CampaignTask, dict[str, Any]]:
        """Validate a request and build its task (the CLI's builder);
        returns ``(task, scenario_params)``."""
        scenario = body.get("scenario")
        if not isinstance(scenario, str) or scenario not in scenario_names():
            raise ApiError(
                400,
                f"unknown scenario {scenario!r}",
                registered=list(scenario_names()),
            )
        params = body.get("params", {})
        try:
            # the analysis options are top-level body keys
            return query_task(kind, scenario, params, body), params
        except ValueError as exc:
            raise ApiError(400, str(exc)) from None

    async def _submit(
        self, task: CampaignTask, *, endpoint: str
    ) -> tuple[Any, str]:
        assert self.batcher is not None
        tel = self._tel
        if tel is None:
            result, source = await self.batcher.submit(task)
        else:
            t0 = time.perf_counter()
            with tel.span(
                "serve.request",
                endpoint=endpoint,
                kind=task.kind,
                scenario=task.scenario,
            ) as sp:
                result, source = await self.batcher.submit(task)
                sp.set(
                    task_hash=task.task_hash,
                    verdict=result.verdict,
                    ok=result.ok,
                    source=source,
                )
            tel.observe(
                "serve.request.latency_s",
                time.perf_counter() - t0,
                endpoint=endpoint,
                source=source,
            )
            tel.incr("serve.requests")
            tel.incr(f"serve.source.{source}")
        if not result.ok:
            raise ApiError(
                502,
                f"task execution failed: {result.error}",
                task_hash=task.task_hash,
                verdict=result.verdict,
            )
        return result, source

    async def _h_search(self, req: _Request) -> tuple[int, Any, dict[str, str]]:
        body = req.json()
        task, params = self._parse_task(body, kind="reachability")
        result, source = await self._submit(task, endpoint="search")
        payload = search_payload_from_result(result, params=params)
        return 200, payload, _serve_headers(result, source)

    async def _h_classify(self, req: _Request) -> tuple[int, Any, dict[str, str]]:
        body = req.json()
        task, params = self._parse_task(body, kind="classify")
        result, source = await self._submit(task, endpoint="classify")
        payload = classify_payload_from_result(result, params=params)
        return 200, payload, _serve_headers(result, source)

    async def _h_lint(self, req: _Request) -> tuple[int, Any, dict[str, str]]:
        body = req.json()
        task, _ = self._parse_task(body, kind="lint")
        result, source = await self._submit(task, endpoint="lint")
        return 200, result.detail["report"], _serve_headers(result, source)

    async def _h_campaign(self, req: _Request) -> tuple[int, Any, None]:
        body = req.json()
        spec = body.get("spec", "quick")
        if not isinstance(spec, str) or spec not in spec_names():
            raise ApiError(
                400, f"unknown spec {spec!r}", registered=list(spec_names())
            )
        limit = body.get("limit")
        if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
            raise ApiError(400, f"limit must be an integer, got {limit!r}")
        tasks = build_spec(spec, limit=limit)
        spec_label = spec
        shard_text = body.get("shard")
        if shard_text is not None:
            try:
                shard = parse_shard(str(shard_text))
            except ValueError as exc:
                raise ApiError(400, str(exc)) from None
            tasks = shard_tasks(tasks, *shard)
            spec_label = f"{spec}-shard{shard[0]}of{shard[1]}"
        results = await asyncio.gather(
            *(self._submit(task, endpoint="campaign") for task in tasks),
            return_exceptions=True,
        )
        summary = CampaignSummary(spec=spec_label, workers=self.runner_config.max_workers)
        errors = 0
        for item in results:
            if isinstance(item, BaseException):
                errors += 1
                continue
            result, _source = item
            summary.add(result)
        payload = summary.to_json()
        payload["request_errors"] = errors
        return 200, payload, None

    # ------------------------------------------------------------------
    # status + events
    # ------------------------------------------------------------------
    def _cache_status(self) -> dict[str, Any]:
        def describe(backend: CacheBackend) -> dict[str, Any]:
            return {
                "backend": type(backend).__name__,
                "entries": len(backend),
                "stats": backend.stats.to_json(),
                "integrity": backend.integrity().to_json(),
            }

        if isinstance(self.cache, TieredCache):
            return {
                "tiered": True,
                "hit_rate": round(self.cache.stats.hit_rate, 4),
                "stats": self.cache.stats.to_json(),
                "hot": describe(self.cache.hot),
                "cold": describe(self.cache.cold),
            }
        return {
            "tiered": False,
            "hit_rate": round(self.cache.stats.hit_rate, 4),
            **describe(self.cache),
        }

    async def _h_status(self, req: _Request) -> tuple[int, Any, None]:
        import repro

        assert self.batcher is not None
        payload = {
            "server": {
                "name": SERVER_NAME,
                "version": repro.__version__,
                "url": self.url,
                "uptime_s": round(time.time() - (self.started_at or time.time()), 3),
                "requests": self.requests,
                "by_endpoint": dict(sorted(self.by_endpoint.items())),
                "telemetry": self.config.telemetry,
                "jobs": self.config.jobs,
            },
            "batcher": self.batcher.stats.to_json(),
            "cache": self._cache_status(),
        }
        return 200, payload, None

    async def _h_events(
        self, req: _Request, writer: asyncio.StreamWriter
    ) -> None:
        if self._tel is None:
            writer.write(
                _json_response(
                    503,
                    {
                        "error": "telemetry is disabled on this server "
                        "(restart without --no-telemetry)",
                        "status": 503,
                    },
                )
            )
            await writer.drain()
            return
        try:
            max_events = int(req.query.get("max_events", "0")) or None
            timeout = float(req.query.get("timeout", "0")) or None
        except ValueError as exc:
            raise ApiError(400, f"bad events query: {exc}") from None
        if max_events is not None and max_events < 0:
            raise ApiError(
                400, f"max_events must be non-negative, got {max_events}"
            )
        if timeout is not None and (timeout < 0 or timeout != timeout):
            raise ApiError(400, f"timeout must be non-negative, got {timeout}")
        queue: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()
        self._subscribers.add(queue)
        self._tel.gauge("serve.events.subscribers", len(self._subscribers))
        try:
            writer.write(
                (
                    "HTTP/1.1 200 OK\r\n"
                    f"Server: {SERVER_NAME}\r\n"
                    "Content-Type: application/x-ndjson\r\n"
                    "Cache-Control: no-store\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            # guarantees at least one event reaches every subscriber
            self._tel.event("serve.events.subscribe")
            sent = 0
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                try:
                    event = await asyncio.wait_for(queue.get(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
                if event is None:  # shutdown sentinel
                    break
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
                await writer.drain()
                sent += 1
                if max_events is not None and sent >= max_events:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._subscribers.discard(queue)
            if self._tel is not None:  # gauge symmetry: one per disconnect
                self._tel.gauge("serve.events.subscribers", len(self._subscribers))

    async def _h_metrics(
        self, req: _Request, writer: asyncio.StreamWriter
    ) -> None:
        if self._tel is None:
            raise ApiError(
                503,
                "telemetry is disabled on this server "
                "(restart without --no-telemetry)",
            )
        text = obs.render_prometheus(self._tel)
        writer.write(_text_response(200, text, obs.PROM_CONTENT_TYPE))
        await writer.drain()
