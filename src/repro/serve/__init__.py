"""Verification-as-a-service: the ``repro serve`` subsystem.

Layers, bottom up:

* :mod:`repro.serve.payloads` -- the verdict payload builders, one per
  query command, over its task result; the CLI renders through them too
  (the byte-identity contract);
* :mod:`repro.serve.batcher` -- in-flight dedup and batching on one
  execution lane in front of :func:`~repro.campaign.runner.run_campaign`;
* :mod:`repro.serve.server` -- the asyncio HTTP/JSON front
  (``python -m repro serve``);
* :mod:`repro.serve.client` -- the stdlib HTTP client (``python -m repro
  client``); it loads none of the campaign stack.

Fan-out across machines needs no serve component: ``campaign run
--shard i/n`` processes write one shared cache, and ``campaign status``
reports their union.

Cache backends themselves (directory / memory LRU / sqlite / tiered)
live in :mod:`repro.campaign.cache`; the server composes them via
``make_backend`` + :class:`~repro.campaign.cache.TieredCache`.

See ``docs/SERVE.md`` for the API reference and operational model.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

#: public name -> the submodule defining it, imported on first access
_EXPORTS = {
    "ApiError": "server",
    "BatcherStats": "batcher",
    "MicroBatcher": "batcher",
    "ReproServer": "server",
    "ServeClient": "client",
    "ServeConfig": "server",
    "ServeError": "client",
    "ServeResponse": "client",
    "classify_payload_from_result": "payloads",
    "dumps": "payloads",
    "search_payload_from_result": "payloads",
}

if TYPE_CHECKING:  # pragma: no cover - the static view of _EXPORTS
    from repro.serve.batcher import BatcherStats, MicroBatcher
    from repro.serve.client import ServeClient, ServeError, ServeResponse
    from repro.serve.payloads import (
        classify_payload_from_result,
        dumps,
        search_payload_from_result,
    )
    from repro.serve.server import ApiError, ReproServer, ServeConfig

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
