"""Online serving layer: persistent gallery + async matching server.

The batch study answers "how interoperable are these devices?" offline;
this package turns the same pipeline into the system the paper's
US-VISIT motivation actually describes — an online service where
fingers are enrolled once and verified or identified later, possibly
from a different device:

* :mod:`repro.service.gallery` — persistent, device-aware index of
  enrolled templates with an NFIQ quality gate and per-shard
  descriptor matrices for the two-stage ``/identify`` prefilter;
* :mod:`repro.service.batching` — admission queue that coalesces
  concurrent comparisons into batched matcher dispatches;
* :mod:`repro.service.server` — stdlib-asyncio HTTP server speaking
  the versioned ``/v1`` API (``/v1/enroll``, ``/v1/verify``,
  ``/v1/identify``, ``/v1/healthz``, ``/v1/stats``; nothing outside
  ``/v1`` is served);
* :mod:`repro.service.client` — blocking client for tests, smoke
  checks, and the load benchmark;
* :mod:`repro.service.stats` — live request/latency/batch-size
  counters, mirrored into the telemetry manifest;
* :mod:`repro.service.metrics` — Prometheus text exposition behind
  ``GET /metrics`` plus a strict parser for validating scrapes;
* :mod:`repro.service.reqlog` — JSONL per-request audit log with
  size-based rotation;
* :mod:`repro.service.workers` — horizontally sharded serving: a
  supervised pool of matcher processes, each owning a BLAKE2b
  identity-hash slice of the gallery (``REPRO_SERVE_WORKERS`` /
  ``--workers``), with cross-shard top-K merges bit-identical to the
  single-process path;
* :mod:`repro.service.auth` — keyed access control: API-key principals
  from a hot-reloading keyfile (``--keys`` / ``REPRO_SERVE_KEYS``),
  constant-time lookup, per-endpoint roles (401/403 in the ``/v1``
  envelope);
* :mod:`repro.service.limits` — per-(principal, endpoint-class) token
  buckets and windowed quotas behind 429 ``rate_limited`` +
  ``Retry-After``;
* :mod:`repro.service.top` — the ``repro top`` live dashboard.

Gallery writes are durable: every enroll/delete is appended to a
write-ahead log (:mod:`repro.runtime.wal`) *before* it is applied and
acknowledged, the log is replayed at startup, and ``repro serve
--follow <wal>`` runs a read-only follower replica that tails the
same log (writes there answer 403 with the ``read_only`` error code).

Start one from the command line with ``repro serve`` (and populate it
with ``repro enroll``), or in-process::

    from repro.service import GalleryIndex, VerificationServer

    server = VerificationServer(GalleryIndex(Path("gallery")), port=0)
    await server.start()
"""

from .auth import ApiKeyAuthenticator, generate_key, write_keyfile
from .batching import BatchingConfig
from .limits import LimitsConfig, RateLimiter
from .client import ServiceClient, ServiceClientError, encode_template
from .gallery import GalleryIndex, GalleryReadOnlyError
from .metrics import EXPOSITION_CONTENT_TYPE, parse_exposition, sample_value
from .reqlog import RequestLog, iter_reqlog
from .runner import ServiceRunner
from .server import ServerStartupError, VerificationServer
from .stats import ServiceStats
from .top import run_top
from .workers import shard_of

__all__ = [
    "ApiKeyAuthenticator",
    "generate_key",
    "write_keyfile",
    "LimitsConfig",
    "RateLimiter",
    "BatchingConfig",
    "ServiceClient",
    "ServiceClientError",
    "encode_template",
    "GalleryIndex",
    "GalleryReadOnlyError",
    "VerificationServer",
    "ServerStartupError",
    "ServiceRunner",
    "ServiceStats",
    "EXPOSITION_CONTENT_TYPE",
    "parse_exposition",
    "sample_value",
    "RequestLog",
    "iter_reqlog",
    "run_top",
    "shard_of",
]
