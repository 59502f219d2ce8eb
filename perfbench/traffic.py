"""Seeded ``/v1/search`` traffic for the ``serve-mixed`` workload.

The population is every valid parameterisation of three scenario
families (about 2.4k distinct queries, each a millisecond-scale search).
The stream draws a fresh, never-seen query with probability
:data:`P_NEW` -- a cold miss that searches and then writes the cache --
and otherwise repeats an earlier query, skewed towards the ones seen
first (a power law over first-appearance rank), which the cache answers.
With ``P_NEW = 0.2`` the overall p50 lands among the hits and the p90
near the middle of the misses, never on the boundary between the two.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass

P_NEW = 0.2
#: exponent of the repeat draw ``rank = floor(k * u**SKEW)``; larger is hotter
SKEW = 2.5


def population() -> list[tuple[str, dict]]:
    """Every query the stream may send, in a fixed order."""
    pairs = [
        ("fig2-pair", {"d1": d1, "d2": d2, "hold": hold})
        for d1, d2 in itertools.product(range(1, 7), repeat=2)
        for hold in range(2, 6)  # hold 1 routes a message through its destination
    ]
    shared = [
        ("shared-cycle", {"approaches": list(ds), "holds": list(hs)})
        for ds in itertools.permutations(range(1, 5), 3)
        for hs in itertools.product(range(1, 5), repeat=3)
    ]
    minimal = [
        ("minimal-config", {"approaches": list(ds), "holds": list(hs)})
        for ds in itertools.product(range(1, 4), repeat=3)
        for hs in itertools.product(range(1, 4), repeat=3)
    ]
    return pairs + shared + minimal


def stream(seed: int) -> Iterator[tuple[str, dict]]:
    """The deterministic request stream for ``seed`` (infinite until the
    population is exhausted)."""
    rng = random.Random(seed)
    fresh = population()
    rng.shuffle(fresh)
    fresh_iter = iter(fresh)
    seen: list[tuple[str, dict]] = []
    while True:
        if not seen or rng.random() < P_NEW:
            query = next(fresh_iter, None)
            if query is None:
                return
            seen.append(query)
        else:
            query = seen[int(len(seen) * rng.random() ** SKEW)]
        yield query


def query_key(query: tuple[str, dict]) -> str:
    return json.dumps(query, sort_keys=True)


@dataclass
class Reply:
    key: str
    status: int
    latency_s: float
    source: str
    task_wall_s: float | None
    body: bytes
    done_at: float  # perf_counter() when the reply was complete


def post_search(host: str, port: int, query: tuple[str, dict]) -> Reply:
    """One ``POST /v1/search`` over a fresh connection (the server closes
    each connection after its reply).  A transport failure is a reply
    with status 0, so it counts as failed instead of ending the run."""
    scenario, params = query
    payload = json.dumps({"scenario": scenario, "params": params}).encode()
    t0 = time.perf_counter()
    conn = http.client.HTTPConnection(host, port, timeout=60)
    status, body, source, wall = 0, b"", "", None
    try:
        conn.request(
            "POST", "/v1/search", body=payload,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        body = resp.read()
        status = resp.status
        source = resp.getheader("X-Repro-Source", "")
        wall = resp.getheader("X-Repro-Wall-Time")
    except (OSError, http.client.HTTPException):
        pass
    finally:
        conn.close()
    done = time.perf_counter()
    return Reply(
        key=query_key(query),
        status=status,
        latency_s=done - t0,
        source=source,
        task_wall_s=None if wall is None else float(wall),
        body=body,
        done_at=done,
    )


def get_json(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()
