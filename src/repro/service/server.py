"""Asyncio HTTP server for online verification and identification.

A deliberately small, dependency-free HTTP/1.1 server (stdlib asyncio
only — the reproduction adds no packages) exposing the study's matcher
as an online service.  The HTTP surface is versioned under ``/v1``:

========  =================================  ====================================
Method    Path                               Meaning
========  =================================  ====================================
POST      ``/v1/enroll``                     quality-gated enrollment
POST      ``/v1/verify``                     1:1 claim check against one enrollment
POST      ``/v1/identify``                   1:N rank-k search (exact or two-stage)
DELETE    ``/v1/enroll/<device>/<identity>`` remove one enrollment
GET       ``/v1/healthz``                    liveness + gallery size
GET       ``/v1/stats``                      live counters, latency, batch sizes
GET       ``/v1/metrics``                    Prometheus text exposition of the same
POST      ``/v1/admin/keys/reload``          force a keyfile reload (auth mode only)
========  =================================  ====================================

An unversioned path (``/verify``, ...) is an unknown path: 404
``not_found``, after the same authentication any unknown path gets.
Every error response, on every endpoint and status code, is one
envelope shape::

    {"error": {"code": "unknown_identity", "message": "...",
               "request_id": "...", "kind": "UnknownIdentityError"}}

``code`` is a stable machine-readable slug (per-status, see
``_ERROR_CODES``), ``message`` is human-readable, ``request_id`` echoes
the ``X-Request-ID`` header, and ``kind`` (when present) names the
library exception class.

``/identify`` is two-stage capable: ``REPRO_IDENTIFY_MODE=two_stage``
(or ``"mode": "two_stage"`` per request) runs the descriptor prefilter
(:meth:`repro.service.gallery.GalleryIndex.prefilter`) and hands only
the top ``candidate_k`` survivors to the exact matcher; ``exact``
(the default) remains the exhaustive recall oracle, bit-identical to
the pre-index behavior.

Every request is traced: the server honors a client-supplied
``X-Request-ID`` header (token-shaped, else it generates one), installs
a :class:`~repro.runtime.telemetry.TraceContext` for the request task,
and echoes the id on **every** response — success, error, even a
malformed request line — so client and server logs join on one key.
The trace records a phase timeline (``[auth → limits →] parse →
gallery → [prefilter →] queue_wait → batch_wait → match → respond``;
the ``auth``/``limits`` phases appear when keyed access is enabled and
run *before* the body is decoded, the ``prefilter`` phase appears on
two-stage identify requests, and sharded serving adds a
``worker_dispatch`` phase covering the scatter/gather round trip);
finished requests are appended to an
optional JSONL :class:`~repro.service.reqlog.RequestLog` (each line
carries the authenticated ``principal``), and requests
slower than ``REPRO_SERVE_SLOW_MS`` dump their full timeline at
WARNING.  Overloaded (503) and rate-limited (429) responses carry
``Retry-After`` so well-behaved clients back off.

Admission control (see :mod:`repro.service.auth` and
:mod:`repro.service.limits`) activates when a keyfile is configured —
``REPRO_SERVE_KEYS``, ``repro serve --keys``, or an explicit
``auth=ApiKeyAuthenticator(...)``.  Missing/unknown credentials → 401
``unauthorized``, a valid key lacking the endpoint's role → 403
``forbidden``, an exhausted token bucket or quota → 429
``rate_limited``; all in the one error envelope.  Without a keyfile
the server stays open, bit-identical to the pre-auth stack.

Templates travel as base64-encoded ANSI/INCITS 378 records — the same
interchange format the paper's interoperability scenario is about — so
any client that can produce a standard minutiae record can talk to the
server.  Match work is delegated to the
:class:`~repro.service.batching.MicroBatcher`, which coalesces the
comparisons of concurrent requests into batched matcher dispatches.

Failures map the study's error taxonomy onto HTTP status codes:

* malformed JSON / bad template / bad parameters
  (:class:`~repro.runtime.errors.TemplateFormatError`,
  :class:`~repro.runtime.errors.ConfigurationError`) → 400,
* unknown identity → 404,
* quality-gate rejection → 409,
* admission-queue overload (transient) → 503,
* deadline exceeded (transient) → 504.

Binding a port that is already taken raises
:class:`ServerStartupError`, a :class:`~repro.runtime.errors.TransientError`
— the CLI surfaces it with the transient exit code so a supervising
process knows a retry (or a different port) can succeed.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import os
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.identification import DEFAULT_CANDIDATE_K, IDENTIFY_MODES
from ..io.incits378 import decode as decode_378
from ..matcher.engine import BioEngineMatcher
from ..matcher.types import Template
from ..runtime.config import env_float, env_int, env_str
from ..runtime.errors import (
    ConfigurationError,
    PermanentError,
    ReproError,
    TemplateFormatError,
    TransientError,
)
from ..runtime.telemetry import (
    TraceContext,
    current_trace,
    get_logger,
    get_recorder,
    new_request_id,
    reset_current_trace,
    sanitize_request_id,
    set_current_trace,
)
from .auth import (
    ANONYMOUS,
    ApiKeyAuthenticator,
    AuthenticationError,
    AuthorizationError,
    ENDPOINT_ROLES,
    Principal,
)
from .batching import (
    BatchingConfig,
    DeadlineExceededError,
    MicroBatcher,
    ServiceOverloadError,
)
from .limits import LimitsConfig, RateLimiter, RateLimitExceeded
from ..core.prefilter import descriptor_vector
from ..runtime.wal import WalError, WalFollower
from .gallery import (
    EnrollmentRejected,
    GalleryIndex,
    GalleryReadOnlyError,
    UnknownIdentityError,
)
from .metrics import EXPOSITION_CONTENT_TYPE, render_exposition
from .reqlog import RequestLog, slow_threshold_ms
from .stats import (
    AUTH_REQUESTS,
    CANDIDATES,
    DEADLINE_EXCEEDED,
    OVERLOADS,
    PREFILTER,
    RATE_LIMITED,
    SEARCHES,
    TRACES,
    ServiceStats,
)
from .workers import WorkerPool, WorkerPoolConfig, WorkerPoolDegradedError

#: Operating threshold on the matcher's 0–30 score scale.  The paper's
#: figures put the impostor band at 0–7 and genuine scores at 7–24, so
#: 7.5 sits just above the impostor ceiling; override per deployment
#: with ``REPRO_SERVE_THRESHOLD`` or per request with ``"threshold"``.
DEFAULT_THRESHOLD = 7.5

#: Largest accepted request body; INCITS 378 templates are ~1 KiB.
MAX_BODY_BYTES = 1 << 20

#: How often a follower polls the primary's WAL for new records, in
#: milliseconds (``REPRO_WAL_POLL_MS`` overrides).
DEFAULT_WAL_POLL_MS = 200.0

_log = get_logger("service.server")


def _phase(name: str):
    """Context manager timing `name` on the current trace (no-op untraced)."""
    trace = current_trace()
    return trace.phase(name) if trace is not None else nullcontext()


class ServerStartupError(TransientError):
    """The server could not bind its address (typically: port in use)."""


class _HttpError(Exception):
    """Internal: an HTTP failure response ready to send."""

    def __init__(self, status: int, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code or _DEFAULT_CODES.get(status, "error")


_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Stable machine-readable slug per HTTP failure status — the ``code``
#: field of the error envelope when no more specific one applies.
_DEFAULT_CODES = {
    400: "bad_request",
    401: "unauthorized",
    403: "read_only",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    413: "payload_too_large",
    429: "rate_limited",
    500: "internal",
    503: "overloaded",
    504: "deadline_exceeded",
}


def _status_for(exc: ReproError) -> int:
    """Map a library exception onto its HTTP status."""
    if isinstance(exc, AuthenticationError):
        return 401
    if isinstance(exc, AuthorizationError):
        return 403
    if isinstance(exc, RateLimitExceeded):
        return 429
    if isinstance(exc, EnrollmentRejected):
        return 409
    if isinstance(exc, GalleryReadOnlyError):
        return 403
    if isinstance(exc, UnknownIdentityError):
        return 404
    if isinstance(exc, ServiceOverloadError):
        return 503
    if isinstance(exc, DeadlineExceededError):
        return 504
    if isinstance(exc, (TemplateFormatError, ConfigurationError)):
        return 400
    if isinstance(exc, PermanentError):
        return 400
    return 500


def _code_for(exc: ReproError) -> str:
    """The error-envelope ``code`` slug for a library exception."""
    if isinstance(exc, AuthenticationError):
        return "unauthorized"
    if isinstance(exc, AuthorizationError):
        return "forbidden"
    if isinstance(exc, RateLimitExceeded):
        return "rate_limited"
    if isinstance(exc, EnrollmentRejected):
        return "quality_rejected"
    if isinstance(exc, GalleryReadOnlyError):
        return "read_only"
    if isinstance(exc, UnknownIdentityError):
        return "unknown_identity"
    if isinstance(exc, ServiceOverloadError):
        return "overloaded"
    if isinstance(exc, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(exc, TemplateFormatError):
        return "invalid_template"
    if isinstance(exc, ConfigurationError):
        return "invalid_request"
    if isinstance(exc, PermanentError):
        return "bad_request"
    return "internal"


def _error_envelope(
    code: str,
    message: str,
    request_id: str,
    kind: Optional[str] = None,
) -> dict:
    """The one error shape every endpoint and status code speaks."""
    error = {"code": code, "message": message, "request_id": request_id}
    if kind is not None:
        error["kind"] = kind
    return {"error": error}


def decode_template_field(payload: dict, field: str = "template") -> Template:
    """Decode a base64 INCITS 378 template from a JSON request body."""
    raw = payload.get(field)
    if not isinstance(raw, str) or not raw:
        raise TemplateFormatError(f"request body needs a base64 {field!r} field")
    try:
        buffer = base64.b64decode(raw, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise TemplateFormatError(f"{field} is not valid base64: {exc}") from exc
    template, _metadata = decode_378(buffer)
    return template


class VerificationServer:
    """The online serving layer bundled into one object.

    Owns a :class:`~repro.service.gallery.GalleryIndex`, a matcher, and a
    :class:`~repro.service.batching.MicroBatcher`; speaks HTTP/1.1 with
    keep-alive on an asyncio event loop.  ``port=0`` binds an ephemeral
    port (read it back from :attr:`address` — tests do).
    """

    def __init__(
        self,
        gallery: GalleryIndex,
        matcher=None,
        host: str = "127.0.0.1",
        port: int = 8799,
        threshold: Optional[float] = None,
        batching: Optional[BatchingConfig] = None,
        stats: Optional[ServiceStats] = None,
        reqlog: Optional[RequestLog] = None,
        tracing: Optional[bool] = None,
        slow_ms: Optional[float] = None,
        identify_mode: Optional[str] = None,
        candidate_k: Optional[int] = None,
        workers: Optional[int] = None,
        matcher_factory=None,
        follow: Optional[os.PathLike] = None,
        auth=None,
        limits=None,
    ) -> None:
        if threshold is None:
            threshold = env_float("REPRO_SERVE_THRESHOLD")
        if identify_mode is None:
            identify_mode = env_str("REPRO_IDENTIFY_MODE") or "exact"
        if identify_mode not in IDENTIFY_MODES:
            raise ConfigurationError(
                f"identify mode must be one of {IDENTIFY_MODES}, "
                f"got {identify_mode!r}"
            )
        if candidate_k is None:
            candidate_k = env_int("REPRO_IDENTIFY_CANDIDATES")
        if candidate_k is None:
            candidate_k = DEFAULT_CANDIDATE_K
        if candidate_k < 1:
            raise ConfigurationError(
                f"candidate_k must be >= 1, got {candidate_k}"
            )
        self.identify_mode = identify_mode
        self.candidate_k = int(candidate_k)
        self.gallery = gallery
        self.matcher = matcher if matcher is not None else BioEngineMatcher()
        self.threshold = DEFAULT_THRESHOLD if threshold is None else float(threshold)
        self.stats = stats if stats is not None else ServiceStats()
        self.batcher = MicroBatcher(
            self.matcher,
            stats=self.stats,
            config=batching if batching is not None else BatchingConfig.from_environment(),
        )
        if tracing is None:
            flag = env_int("REPRO_SERVE_TRACING")
            tracing = True if flag is None else bool(flag)
        self.tracing = bool(tracing)
        self.reqlog = reqlog if reqlog is not None else RequestLog.from_environment()
        self.slow_ms = slow_ms if slow_ms is not None else slow_threshold_ms()
        # Admission control: keyed auth + per-principal rate limits.
        # ``auth=None`` defers to REPRO_SERVE_KEYS (no keyfile → open,
        # the pre-auth behavior every existing test and bench relies
        # on); ``auth=False`` forces open even with the env set (the
        # CLI's --no-auth).  The limiter rides along whenever auth is
        # on — buckets are keyed by principal — but can also be passed
        # explicitly for a key-less deterministic-limits setup.
        if auth is None:
            auth = ApiKeyAuthenticator.from_environment()
        self.auth: Optional[ApiKeyAuthenticator] = auth or None
        if limits is None and self.auth is not None:
            limits = RateLimiter(
                LimitsConfig.from_environment(),
                overrides=self.auth.limit_overrides(),
            )
        self.limits: Optional[RateLimiter] = limits or None
        self._rebootstraps = 0
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # Follower mode: tail the primary's WAL instead of accepting
        # writes.  The gallery must be a read-only view — a follower
        # that could write the primary's shards would corrupt them.
        self._follow_dir = Path(follow) if follow is not None else None
        if self._follow_dir is not None and not gallery.readonly:
            raise ConfigurationError(
                "follower mode needs a read-only gallery "
                "(GalleryIndex(root, readonly=True))"
            )
        self._follower: Optional[WalFollower] = None
        self._follow_task: Optional[asyncio.Task] = None
        self._follow_lock = asyncio.Lock()
        self._follow_error: Optional[str] = None
        self._applied_lsn = 0
        poll_ms = env_float("REPRO_WAL_POLL_MS")
        self._poll_interval = (
            DEFAULT_WAL_POLL_MS if poll_ms is None else max(1.0, poll_ms)
        ) / 1000.0
        # Sharded serving: the pool spins up in start() (it needs the
        # running loop); workers <= 1 keeps the single-process path —
        # the bit-identical control arm of the worker sweep.
        pool_config = WorkerPoolConfig.from_environment()
        if workers is not None:
            pool_config = WorkerPoolConfig(
                workers=int(workers),
                rpc_timeout_s=pool_config.rpc_timeout_s,
                respawn_budget=pool_config.respawn_budget,
            )
        self._pool_config = pool_config
        self._matcher_factory = matcher_factory
        self._pool_batching = (
            batching
            if batching is not None
            else BatchingConfig.from_environment()
        )
        self.pool: Optional[WorkerPool] = None

    # ------------------------------------------------------------------
    # Replication (follower mode)
    # ------------------------------------------------------------------
    @property
    def role(self) -> str:
        """``"primary"`` (owns the gallery) or ``"follower"`` (tails a WAL)."""
        return "follower" if self._follow_dir is not None else "primary"

    async def _drain_follower(self) -> None:
        """Apply every WAL record completed so far (follower only).

        Serialized by a lock: the poll loop and an eager ``/healthz``
        drain must never interleave, or records could apply out of
        order.  Applied ops are forwarded to the worker pool's delta
        log so sharded reads see them too.
        """
        if self._follower is None:
            return
        async with self._follow_lock:
            for rec in self._follower.poll():
                applied = self.gallery.apply_wal_record(rec)
                self._applied_lsn = rec.lsn
                if applied is None:
                    continue
                op, device, identity, record = applied
                if self._live_pool is not None:
                    if op == "enroll":
                        await self.pool.apply_enroll(
                            device, identity, record.template,
                            self.gallery.descriptor(identity, device),
                            lsn=rec.lsn,
                        )
                    else:
                        await self.pool.apply_delete(
                            device, identity, lsn=rec.lsn
                        )

    async def _follow_loop(self) -> None:
        """Poll the primary's WAL until cancelled.

        A :class:`WalError` meaning "fell behind retention" (the
        primary compacted past our cursor) is recoverable: the replica
        re-bootstraps from the gallery's on-disk snapshot — which by
        construction reflects at least everything the compacted WAL
        did — and resumes tailing from the retained log.  Any other
        failure stops replication and is surfaced in ``/v1/healthz``;
        the replica keeps answering reads from what it has applied.
        """
        while True:
            try:
                await self._drain_follower()
            except asyncio.CancelledError:
                raise
            except WalError as exc:
                if not await self._rebootstrap_follower(exc):
                    return
            except Exception as exc:  # noqa: BLE001 - keep serving reads
                self._follow_error = repr(exc)
                _log.error(
                    "follower replication stopped",
                    extra={"data": {"error": repr(exc),
                                    "applied_lsn": self._applied_lsn}},
                )
                return
            await asyncio.sleep(self._poll_interval)

    async def _rebootstrap_follower(self, cause: WalError) -> bool:
        """Reload the snapshot and restart the WAL tail after falling
        behind retention; ``True`` when replication can continue.

        The primary applies every write to its shards before the WAL
        compacts past it, so the on-disk snapshot is always at least as
        new as the oldest retained record — reloading it and re-tailing
        from the retained log's start converges (WAL application is
        idempotent).  Counted as ``replication.rebootstraps``.
        """
        try:
            async with self._follow_lock:
                records = self.gallery.rebootstrap()
                self._follower = WalFollower(self._follow_dir)
            self._rebootstraps += 1
            self._follow_error = None
            get_recorder().count("replication.rebootstraps")
            _log.warning(
                "follower re-bootstrapped from the gallery snapshot",
                extra={"data": {"cause": str(cause), "records": records,
                                "rebootstraps": self._rebootstraps}},
            )
            return True
        except Exception as exc:  # noqa: BLE001 - degrade to stale reads
            self._follow_error = repr(exc)
            _log.error(
                "follower re-bootstrap failed; replication stopped",
                extra={"data": {"cause": str(cause), "error": repr(exc),
                                "applied_lsn": self._applied_lsn}},
            )
            return False

    def _replication(self) -> dict:
        """The ``{role, applied_lsn, lag_records}`` health block."""
        if self._follower is None:
            return {
                "role": "primary",
                "applied_lsn": self.gallery.wal_last_lsn,
                "lag_records": 0,
                "rebootstraps": 0,
            }
        info = {
            "role": "follower",
            "applied_lsn": self._applied_lsn,
            "lag_records": self._follower.pending(),
            "rebootstraps": self._rebootstraps,
        }
        if self._follow_error is not None:
            info["error"] = self._follow_error
        return info

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); raises until :meth:`start` succeeds."""
        if self._server is None or not self._server.sockets:
            raise ConfigurationError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listening socket and start the batch collector.

        With ``workers >= 2`` the sharded pool also spins up here.  The
        in-process batcher starts regardless: it is both the control arm
        (pool off) and the degraded fallback (pool broken), so falling
        back never needs new machinery mid-request.
        """
        if self._pool_config.workers >= 2 and self.pool is None:
            factory = self._matcher_factory
            if factory is None:
                # Fork-context workers inherit the closure; callers on
                # spawn-only platforms should pass a picklable factory.
                matcher = self.matcher
                factory = lambda: matcher  # noqa: E731
            self.pool = WorkerPool(
                self.gallery,
                factory,
                stats=self.stats,
                config=self._pool_config,
                batching=self._pool_batching,
            )
            await self.pool.start()
        if self._follow_dir is not None and self._follow_task is None:
            self._follower = WalFollower(self._follow_dir)
            self._follow_task = asyncio.create_task(self._follow_loop())
        await self.batcher.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self._host, port=self._port
            )
        except OSError as exc:
            await self.batcher.stop()
            if self.pool is not None:
                await self.pool.stop()
                self.pool = None
            raise ServerStartupError(
                f"could not bind {self._host}:{self._port}: {exc}"
            ) from exc
        host, port = self.address
        _log.info(
            "service listening",
            extra={"data": {"host": host, "port": port,
                            "enrolled": len(self.gallery),
                            "workers": self._pool_config.workers,
                            "role": self.role}},
        )

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI wraps this with signal handling)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, drain the batcher, flush the request log.

        Also closes the gallery: dirty descriptor matrices flush and the
        WAL checkpoints on the way down — the deferred-write shutdown
        path.  :meth:`GalleryIndex.close` is idempotent, so an owner
        that closes the gallery again afterwards is fine.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._follow_task is not None:
            self._follow_task.cancel()
            try:
                await self._follow_task
            except asyncio.CancelledError:
                pass
            self._follow_task = None
        if self.pool is not None:
            await self.pool.stop()
            # The manifest sees the pool's final width and liveness.
            self.stats.publish(workers=self._pool_health())
            self.pool = None
        await self.batcher.stop()
        self.gallery.close()
        if self.reqlog is not None:
            self.reqlog.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # A request too broken to route (bad request line,
                    # oversized body) still deserves an answer — and a
                    # request id, so the failure is attributable — but
                    # the connection state is unknown, so close after.
                    request_id = new_request_id()
                    await self._respond(
                        writer,
                        exc.status,
                        _error_envelope(exc.code, exc.message, request_id),
                        request_id=request_id,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = await self._handle_request(
                    writer, method, path, headers, body
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels open keep-alive connections; ending
            # the handler normally keeps shutdown quiet.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; ``None`` on a cleanly closed connection."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            # Drain the upload (bounded, with a deadline) before
            # answering: closing mid-upload RSTs the socket and the
            # client may never get to read the 413.
            await self._drain_body(reader, length)
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    @staticmethod
    async def _drain_body(
        reader: asyncio.StreamReader, length: int
    ) -> None:
        """Discard up to ``length`` declared body bytes, best-effort."""

        async def _drain() -> None:
            remaining = min(length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = await reader.read(min(65536, remaining))
                if not chunk:
                    return
                remaining -= len(chunk)

        try:
            await asyncio.wait_for(_drain(), timeout=5.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass

    async def _handle_request(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> bool:
        started = time.perf_counter()
        base_path = self._normalize_path(path)
        endpoint = self._endpoint_for(method, base_path)
        request_id = (
            sanitize_request_id(headers.get("x-request-id")) or new_request_id()
        )
        trace: Optional[TraceContext] = None
        token = None
        if self.tracing:
            trace = TraceContext(request_id=request_id, endpoint=endpoint)
            token = set_current_trace(trace)
        principal_name: Optional[str] = None
        retry_after: Optional[float] = None
        try:
            try:
                principal = self._admit(endpoint, headers)
                principal_name = principal.name
                if trace is not None:
                    trace.meta["principal"] = principal_name
                status, payload = await self._route(method, base_path, body)
            except _HttpError as exc:
                status = exc.status
                payload = _error_envelope(exc.code, exc.message, request_id)
            except ReproError as exc:
                status = _status_for(exc)
                payload = _error_envelope(
                    _code_for(exc), str(exc), request_id,
                    kind=type(exc).__name__,
                )
                # A 403 or 429 happens *after* authentication succeeded;
                # _admit stamps the principal on the exception so the
                # audit log can still attribute the refusal.
                principal_name = getattr(exc, "principal", principal_name)
                if trace is not None and principal_name is not None:
                    trace.meta["principal"] = principal_name
                if status == 503:
                    self.stats.record(OVERLOADS)
                elif status == 504:
                    self.stats.record(DEADLINE_EXCEEDED)
                elif status == 429:
                    retry_after = getattr(exc, "retry_after", 1.0)
            except Exception as exc:  # noqa: BLE001 - never kill the connection
                _log.warning(
                    "unhandled service error",
                    extra={"data": {"request_id": request_id, "path": path,
                                    "error": repr(exc)}},
                )
                status = 500
                payload = _error_envelope("internal", "internal error", request_id)
            if trace is not None:
                trace.finalize_batch_phases()
                with trace.phase("respond"):
                    keep_alive = await self._respond(
                        writer, status, payload,
                        request_id=request_id, retry_after=retry_after,
                    )
            else:
                keep_alive = await self._respond(
                    writer, status, payload,
                    request_id=request_id, retry_after=retry_after,
                )
        finally:
            if token is not None:
                reset_current_trace(token)
        elapsed = time.perf_counter() - started
        device = trace.meta.get("device") if trace is not None else None
        self.stats.record_request(endpoint, elapsed, status, device=device)
        self._audit(
            request_id, endpoint, method, path, status, elapsed, trace,
            principal=principal_name,
        )
        return keep_alive

    def _admit(self, endpoint: str, headers: Dict[str, str]) -> Principal:
        """Authenticate, authorize, and rate-limit one request.

        Runs before the body is even decoded — refused requests must be
        cheap.  With authentication disabled every caller is
        :data:`~repro.service.auth.ANONYMOUS` (full access, the pre-auth
        behavior); ``healthz`` is always open and never limited so
        liveness probes keep working without credentials.
        """
        principal = ANONYMOUS
        role = ENDPOINT_ROLES.get(endpoint, "admin")
        if self.auth is not None and role is not None:
            try:
                with _phase("auth"):
                    principal = self.auth.authenticate(headers)
                    self.auth.authorize(principal, endpoint)
            except AuthenticationError:
                self.stats.record(AUTH_REQUESTS, outcome="unauthorized")
                raise
            except AuthorizationError as exc:
                self.stats.record(AUTH_REQUESTS, outcome="forbidden")
                exc.principal = principal.name
                raise
            self.stats.record(AUTH_REQUESTS, outcome="ok")
        if self.limits is not None and endpoint != "healthz":
            try:
                with _phase("limits"):
                    self.limits.check(principal.name, endpoint)
            except RateLimitExceeded as exc:
                self.stats.record(RATE_LIMITED, principal=principal.name)
                exc.principal = principal.name
                raise
        return principal

    def _audit(
        self,
        request_id: str,
        endpoint: str,
        method: str,
        path: str,
        status: int,
        elapsed: float,
        trace: Optional[TraceContext],
        principal: Optional[str] = None,
    ) -> None:
        """Request-level accounting: audit line, slow log, trace counter."""
        latency_ms = elapsed * 1000.0
        slow = self.slow_ms is not None and latency_ms >= self.slow_ms
        if slow:
            self.stats.record_slow()
        if trace is not None:
            self.stats.record(TRACES)
        if self.reqlog is not None:
            record = {
                "ts": round(time.time(), 3),
                "request_id": request_id,
                "endpoint": endpoint,
                "method": method,
                "path": path.split("?", 1)[0],
                "status": status,
                "latency_ms": round(latency_ms, 3),
                "gallery_size": len(self.gallery),
                "slow": slow,
                "principal": principal,
            }
            if trace is not None:
                timeline = trace.timeline()
                record["device"] = trace.meta.get("device")
                record["batch_ids"] = timeline["batch_ids"]
                record["queue_wait_ms"] = timeline["queue_wait_ms"]
                record["batch_wait_ms"] = timeline["batch_wait_ms"]
                record["match_ms"] = timeline["match_ms"]
                record["phases"] = timeline["phases"]
            self.reqlog.write(record)
        if slow:
            _log.warning(
                "slow request",
                extra={"data": (
                    trace.timeline() if trace is not None else {
                        "request_id": request_id,
                        "endpoint": endpoint,
                        "total_ms": round(latency_ms, 3),
                        "status": status,
                    }
                )},
            )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        request_id: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> bool:
        if isinstance(payload, str):
            # Pre-rendered text body (the /metrics exposition).
            data = payload.encode("utf-8")
            content_type = EXPOSITION_CONTENT_TYPE
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        extra = ""
        if request_id is not None:
            extra += f"X-Request-ID: {request_id}\r\n"
        if status == 401:
            extra += "WWW-Authenticate: Bearer\r\n"
        if status == 429 and retry_after is not None:
            # The limiter knows exactly when the next token lands; a
            # client sleeping that long succeeds on its next attempt.
            extra += f"Retry-After: {max(0.0, retry_after):.3f}\r\n"
        if status == 503:
            # Overload is transient by construction; tell well-behaved
            # clients when to come back instead of letting them hammer.
            extra += "Retry-After: 1\r\n"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra}"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + data)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # Routing and endpoint handlers
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_path(path: str) -> str:
        """Strip the query string and the ``/v1`` version prefix.

        The router only ever sees base paths.  A path outside ``/v1``
        maps to ``""``, which no route or endpoint matches.
        """
        path = path.split("?", 1)[0]
        if path == "/v1" or path.startswith("/v1/"):
            return path[len("/v1"):] or "/"
        return ""

    @staticmethod
    def _endpoint_for(method: str, path: str) -> str:
        """Stats bucket for a request — known before the handler runs, so
        failed requests still land in the right per-endpoint tally.
        Expects a base path (see :meth:`_normalize_path`)."""
        if path == "/healthz":
            return "healthz"
        if path == "/stats":
            return "stats"
        if path == "/metrics":
            return "metrics"
        if path == "/verify":
            return "verify"
        if path == "/identify":
            return "identify"
        if path == "/enroll":
            return "enroll"
        if path.startswith("/enroll/"):
            return "delete" if method == "DELETE" else "enroll"
        if path == "/admin" or path.startswith("/admin/"):
            return "admin"
        return "unknown"

    async def _route(self, method: str, path: str, body: bytes) -> Tuple[int, object]:
        if path == "/healthz" and method == "GET":
            return 200, await self._handle_healthz()
        if path == "/stats" and method == "GET":
            return 200, self._handle_stats()
        if path == "/metrics" and method == "GET":
            return 200, self._handle_metrics()
        if path == "/enroll" and method == "POST":
            self._reject_write("enroll")
            return await self._handle_enroll(self._json_body(body))
        if path == "/verify" and method == "POST":
            return await self._handle_verify(self._json_body(body))
        if path == "/identify" and method == "POST":
            return await self._handle_identify(self._json_body(body))
        if path.startswith("/enroll/") and method == "DELETE":
            self._reject_write("delete")
            parts = [p for p in path.split("/") if p]
            if len(parts) != 3:
                raise _HttpError(400, "DELETE path must be /enroll/<device>/<identity>")
            _, device, identity = parts
            trace = current_trace()
            if trace is not None:
                trace.meta["device"] = device
            with _phase("gallery"):
                lsn = self.gallery.delete(identity, device=device)
            if self._live_pool is not None:
                await self.pool.apply_delete(device, identity, lsn=lsn)
            return 200, {"deleted": identity, "device": device}
        if path == "/admin/keys/reload" and method == "POST":
            return 200, self._handle_keys_reload()
        raise _HttpError(
            405 if path in ("/enroll", "/verify", "/identify",
                            "/healthz", "/stats", "/metrics",
                            "/admin/keys/reload")
            else 404,
            f"no route for {method} {path}" if path
            else "only /v1 paths are served",
        )

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "request body must be a JSON object")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    @property
    def _live_pool(self) -> Optional[WorkerPool]:
        """The worker pool, when it is running and not degraded."""
        pool = self.pool
        if pool is not None and not pool.degraded:
            return pool
        return None

    def _reject_write(self, operation: str) -> None:
        """Follower replicas answer reads only; writes go to the primary."""
        if self.role == "follower":
            raise _HttpError(
                403,
                f"this replica is read-only; {operation} must go to "
                "the primary",
                code="read_only",
            )

    async def _handle_healthz(self) -> dict:
        # A follower drains whatever the WAL holds before reporting, so
        # `lag_records == 0` in the response means "caught up with every
        # record written when the probe arrived" — the CI smoke keys on
        # exactly that.
        if self._follower is not None and self._follow_error is None:
            try:
                await self._drain_follower()
            except WalError as exc:
                if await self._rebootstrap_follower(exc):
                    try:
                        await self._drain_follower()
                    except WalError as again:
                        self._follow_error = str(again)
        return {
            "status": "ok",
            "enrolled": len(self.gallery),
            "uptime_seconds": round(time.time() - self.stats.started_at, 3),
            "workers": self._pool_health(),
            "replication": self._replication(),
        }

    def _pool_health(self) -> dict:
        """The worker pool's width, liveness and degraded flag (zeros
        when serving in-process)."""
        pool = self.pool
        return {
            "configured": pool.workers if pool is not None else 0,
            "alive": pool.alive_count if pool is not None else 0,
            "degraded": pool.degraded if pool is not None else False,
        }

    def _sources(self, gallery: dict) -> dict:
        """The values the collected metric families read (see
        :data:`repro.service.stats.FAMILIES`); ``gallery`` is
        :meth:`GalleryIndex.stats`."""
        queued = self.batcher.queue_depth
        if self.pool is not None:
            queued += self.pool.queue_depth
        return {
            "gallery_devices": gallery["devices"],
            "queue_depth": queued,
            "corrupt_dropped": gallery["corrupt_dropped"],
            "wal": gallery["wal"],
            "replication": self._replication(),
            "auth_enabled": self.auth is not None,
            "limits": self.limits.snapshot() if self.limits is not None else None,
            "workers": self._pool_health(),
        }

    def _handle_stats(self) -> dict:
        gallery = self.gallery.stats()
        sources = self._sources(gallery)
        payload = self.stats.snapshot(sources)
        payload["gallery"] = gallery
        payload["batching"]["config"] = {
            "enabled": self.batcher.config.enabled,
            "max_batch": self.batcher.config.max_batch,
            "queue_depth": self.batcher.config.queue_depth,
            "timeout_s": self.batcher.config.timeout_s,
        }
        payload["batching"]["queued_jobs"] = sources["queue_depth"]
        payload["identify"]["default_mode"] = self.identify_mode
        payload["identify"]["candidate_k"] = self.candidate_k
        payload["threshold"] = self.threshold
        payload["tracing"] = self.tracing
        payload["replication"] = sources["replication"]
        auth = payload["auth"]
        auth["enabled"] = sources["auth_enabled"]
        if self.auth is not None:
            auth["principals"] = self.auth.principals
        if self.limits is not None:
            auth["limits"] = sources["limits"]
        return payload

    def _handle_keys_reload(self) -> dict:
        """``POST /v1/admin/keys/reload`` — force a keyfile re-read now.

        404s when authentication is disabled: there is nothing to
        reload, and the route must not advertise itself on open
        servers.
        """
        if self.auth is None:
            raise _HttpError(404, "authentication is not enabled")
        count = self.auth.reload()
        if self.limits is not None:
            self.limits.set_overrides(self.auth.limit_overrides())
        return {"reloaded": True, "principals": count}

    def _handle_metrics(self) -> str:
        return render_exposition(
            self.stats, **self._sources(self.gallery.stats())
        )

    async def _handle_enroll(self, payload: dict) -> Tuple[int, dict]:
        identity = self._required_str(payload, "identity")
        device = str(payload.get("device", "default"))
        trace = current_trace()
        if trace is not None:
            trace.meta["device"] = device
        with _phase("parse"):
            template = decode_template_field(payload)
        try:
            with _phase("gallery"):
                record = self.gallery.enroll(identity, template, device=device)
        except EnrollmentRejected as exc:
            self.stats.record_enroll_rejected()
            raise exc
        if self._live_pool is not None:
            # The response only returns after the owning worker acked,
            # so a follow-up verify against this identity cannot race a
            # not-yet-delivered delta.
            await self.pool.apply_enroll(
                device, identity, record.template,
                self.gallery.descriptor(identity, device),
                lsn=record.lsn,
            )
        return 201, {
            "identity": record.identity,
            "device": record.device,
            "nfiq_level": record.nfiq_level,
            "nfiq_utility": round(record.nfiq_utility, 4),
            "minutiae": len(record.template),
        }

    async def _handle_verify(self, payload: dict) -> Tuple[int, dict]:
        identity = self._required_str(payload, "identity")
        device = str(payload.get("device", "default"))
        trace = current_trace()
        if trace is not None:
            trace.meta["device"] = device
        with _phase("parse"):
            probe = decode_template_field(payload)
        threshold = self._threshold(payload)
        with _phase("gallery"):
            record = self.gallery.get(identity, device=device)
        scores = None
        if self._live_pool is not None:
            try:
                with _phase("worker_dispatch"):
                    scores = await self.pool.score_keyed(
                        probe, device, [identity],
                        timeout_s=self._timeout(payload),
                    )
            except WorkerPoolDegradedError:
                scores = None
        if scores is None:
            scores = await self.batcher.score(
                [(probe, record.template)], timeout_s=self._timeout(payload)
            )
        score = float(scores[0])
        accepted = score >= threshold
        self.stats.record_decision(accepted)
        return 200, {
            "identity": identity,
            "device": device,
            "score": round(score, 4),
            "threshold": threshold,
            "decision": "accept" if accepted else "reject",
        }

    async def _handle_identify(self, payload: dict) -> Tuple[int, dict]:
        with _phase("parse"):
            probe = decode_template_field(payload)
        device = payload.get("device")
        if device is not None:
            device = str(device)
        trace = current_trace()
        if trace is not None and device is not None:
            trace.meta["device"] = device
        threshold = self._threshold(payload)
        max_candidates = payload.get("max_candidates", 10)
        if not isinstance(max_candidates, int) or max_candidates < 1:
            raise _HttpError(
                400, "max_candidates must be a positive integer",
                code="invalid_request",
            )
        mode = payload.get("mode", self.identify_mode)
        if mode not in IDENTIFY_MODES:
            raise _HttpError(
                400, f"mode must be one of {list(IDENTIFY_MODES)}, got {mode!r}",
                code="invalid_request",
            )
        candidate_k = payload.get("candidate_k", self.candidate_k)
        if not isinstance(candidate_k, int) or isinstance(candidate_k, bool) \
                or candidate_k < 1:
            raise _HttpError(
                400, "candidate_k must be a positive integer",
                code="invalid_request",
            )
        result = None
        if self._live_pool is not None:
            try:
                result = await self._identify_sharded(
                    probe, device, mode, candidate_k, max_candidates,
                    self._timeout(payload),
                )
            except WorkerPoolDegradedError:
                result = None
        if result is None:
            result = await self._identify_local(
                probe, device, mode, candidate_k, max_candidates,
                self._timeout(payload),
            )
        gallery_size, scored, ranked, prefilter_seconds, prefilter_ranks = result
        self.stats.record(SEARCHES, mode=mode)
        self.stats.record(CANDIDATES, scored)
        if mode == "two_stage":
            self.stats.record(PREFILTER, prefilter_seconds)
        stage = "rescored" if mode == "two_stage" else "exhaustive"
        best = ranked[0] if ranked else None
        return 200, {
            "device": device,
            "threshold": threshold,
            "search": {
                "mode": mode,
                "gallery_size": gallery_size,
                "candidates_scored": scored,
                "candidate_k": candidate_k if mode == "two_stage" else None,
                "prefilter_seconds": round(prefilter_seconds, 6),
            },
            "candidates": [
                {
                    "identity": key.split("/", 1)[1] if device is None and "/" in key else key,
                    "device": (
                        key.split("/", 1)[0] if device is None and "/" in key
                        else device
                    ),
                    "score": round(score, 4),
                    "prefilter_rank": prefilter_ranks.get(key),
                    "stage": stage,
                }
                for key, score in ranked
            ],
            "best": (
                {
                    "identity": best[0],
                    "score": round(best[1], 4),
                    "decision": "accept" if best[1] >= threshold else "reject",
                }
                if best is not None
                else None
            ),
        }

    async def _identify_local(
        self, probe, device, mode, candidate_k, max_candidates, timeout_s
    ):
        """The single-process 1:N search.

        Also the live fallback when the worker pool has degraded, which
        is why it stays a complete, self-contained path.  Two-stage mode
        reads only the shard size and the K survivors' templates.
        """
        two_stage = mode == "two_stage"
        with _phase("gallery"):
            if two_stage:
                gallery_size = self.gallery.size(device)
            else:
                candidates = self.gallery.candidates(device=device)
                gallery_size = len(candidates)
        prefilter_seconds = 0.0
        prefilter_ranks: Dict[str, int] = {}
        if two_stage:
            shortlist: List[str] = []
            if gallery_size:
                with _phase("prefilter"):
                    prefilter_started = time.perf_counter()
                    survivors = self.gallery.prefilter(
                        probe, device=device, k=candidate_k
                    )
                    prefilter_seconds = time.perf_counter() - prefilter_started
                prefilter_ranks = {c.key: c.rank for c in survivors}
                shortlist = sorted(prefilter_ranks)
            # No await since the prefilter: every survivor is still enrolled.
            templates = self.gallery.lookup(shortlist, device)
        else:
            shortlist = sorted(candidates)
            templates = [candidates[identity] for identity in shortlist]
        scores = await self.batcher.score(
            [(probe, template) for template in templates],
            timeout_s=timeout_s,
        )
        ranked = sorted(
            zip(shortlist, (float(s) for s in scores)),
            key=lambda item: (-item[1], item[0]),
        )[:max_candidates]
        return (
            gallery_size, len(shortlist), ranked,
            prefilter_seconds, prefilter_ranks,
        )

    async def _identify_sharded(
        self, probe, device, mode, candidate_k, max_candidates, timeout_s
    ):
        """Scatter/gather 1:N across the worker pool.

        Both modes reduce with the comparators the local path uses —
        ``(-score, key)`` for ranking, ``(distance, key)`` in the
        prefilter merge — so the response is bit-identical to
        :meth:`_identify_local`, deterministic tie-breaks included.
        """
        prefilter_seconds = 0.0
        prefilter_ranks: Dict[str, int] = {}
        if mode == "two_stage":
            vector = descriptor_vector(probe)
            with _phase("prefilter"):
                prefilter_started = time.perf_counter()
                gallery_size, survivors = await self.pool.prefilter(
                    vector, device, candidate_k
                )
                prefilter_seconds = time.perf_counter() - prefilter_started
            prefilter_ranks = {c.key: c.rank for c in survivors}
            shortlist = sorted(prefilter_ranks)
            with _phase("worker_dispatch"):
                scores = await self.pool.score_keyed(
                    probe, device, shortlist, timeout_s=timeout_s
                )
            ranked = sorted(
                zip(shortlist, (float(s) for s in scores)),
                key=lambda item: (-item[1], item[0]),
            )[:max_candidates]
            return (
                gallery_size, len(shortlist), ranked,
                prefilter_seconds, prefilter_ranks,
            )
        with _phase("worker_dispatch"):
            gallery_size, ranked = await self.pool.rank(
                probe, device, limit=max_candidates
            )
        # Exact mode scores the whole (sharded) gallery.
        return gallery_size, gallery_size, ranked, 0.0, prefilter_ranks

    # ------------------------------------------------------------------
    # Small request helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _required_str(payload: dict, field: str) -> str:
        value = payload.get(field)
        if not isinstance(value, str) or not value:
            raise _HttpError(400, f"request body needs a string {field!r} field")
        return value

    def _threshold(self, payload: dict) -> float:
        value = payload.get("threshold", self.threshold)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _HttpError(400, "threshold must be a number")
        return float(value)

    def _timeout(self, payload: dict) -> Optional[float]:
        value = payload.get("timeout_s")
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            raise _HttpError(400, "timeout_s must be a positive number")
        return float(value)


__all__ = [
    "VerificationServer",
    "ServerStartupError",
    "decode_template_field",
    "DEFAULT_THRESHOLD",
    "MAX_BODY_BYTES",
]
