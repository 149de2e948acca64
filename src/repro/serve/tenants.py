"""Tenant registry of the service tier: identity, namespacing, quotas.

Every gateway request (except ``/healthz``) carries an API key that
resolves to one :class:`Tenant`.  Tenants are isolated by *namespacing*,
not by separate engines: a tenant's stream ids are prefixed with its name
before they reach the shared session (``tenant-a`` posting ``cam-01``
becomes session stream ``tenant-a/cam-01``), its query ids are
tenant-local (dense, starting at 0) and mapped to session query ids by
the gateway, and matches are delivered to a tenant only for *its own*
streams — a query that also evaluates on another tenant's feeds (window
groups are shared infrastructure) never leaks results across the prefix
boundary.

Quotas are enforced per tenant, before any work reaches the session:

* ``max_queries`` — active registered queries (HTTP 429 beyond it);
* ``max_streams`` — distinct stream ids (HTTP 429 beyond it);
* ``frames_per_sec`` — ingest rate, enforced by a :class:`TokenBucket`
  over the frames in each batch; an exhausted bucket answers HTTP 429
  with a ``Retry-After`` header.

The registry also knows the *admin* key, which unlocks the operational
endpoints (repair, full stats).
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterable, Optional

from repro.serve.http import HTTPError

#: Separator between the tenant namespace and the tenant-local stream id.
#: Local stream ids may not contain it.
STREAM_SCOPE_SEP = "/"


class AuthError(HTTPError):
    """Missing or unknown API key (HTTP 401)."""

    def __init__(self, message: str = "a valid API key is required"):
        super().__init__(401, message, code="unauthorized")


class QuotaError(HTTPError):
    """A per-tenant quota was exceeded (HTTP 429)."""

    def __init__(
        self,
        message: str,
        *,
        retry_after: Optional[float] = None,
    ):
        headers = ()
        if retry_after is not None:
            # Ceil: telling the client to come back too early just burns
            # a request on another 429.
            headers = (("Retry-After", str(max(1, math.ceil(retry_after)))),)
        super().__init__(429, message, code="quota_exceeded", headers=headers)
        self.retry_after = retry_after


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/sec, ``burst`` capacity.

    Deterministic given its clock — tests inject a fake clock.  The
    bucket starts full, so a tenant's first burst is never throttled.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_clock")

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, 2 * rate)
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        self._tokens = self.burst
        self._clock = clock
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def try_take(self, tokens: int = 1) -> bool:
        """Take ``tokens`` if available; False (state unchanged) otherwise."""
        self._refill()
        if tokens <= self._tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after(self, tokens: int = 1) -> float:
        """Seconds until ``tokens`` would be available (0 when they are)."""
        self._refill()
        deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class TenantConfig:
    """Static configuration of one tenant (identity plus quotas)."""

    __slots__ = (
        "name", "api_key", "max_queries", "max_streams", "frames_per_sec",
        "burst",
    )

    def __init__(
        self,
        name: str,
        api_key: str,
        *,
        max_queries: int = 16,
        max_streams: int = 16,
        frames_per_sec: Optional[float] = None,
        burst: Optional[float] = None,
    ):
        if not name or STREAM_SCOPE_SEP in name:
            raise ValueError(
                f"tenant name must be non-empty and must not contain "
                f"{STREAM_SCOPE_SEP!r}, got {name!r}"
            )
        if not api_key:
            raise ValueError(f"tenant {name!r} needs a non-empty api_key")
        if max_queries < 1 or max_streams < 1:
            raise ValueError(
                f"tenant {name!r}: max_queries and max_streams must be >= 1"
            )
        if frames_per_sec is not None and frames_per_sec <= 0:
            raise ValueError(
                f"tenant {name!r}: frames_per_sec must be positive or None"
            )
        self.name = str(name)
        self.api_key = str(api_key)
        self.max_queries = int(max_queries)
        self.max_streams = int(max_streams)
        self.frames_per_sec = (
            float(frames_per_sec) if frames_per_sec is not None else None
        )
        self.burst = float(burst) if burst is not None else None


class Tenant:
    """One tenant's live gateway state (loop-thread only, no locking)."""

    def __init__(
        self,
        config: TenantConfig,
        session_index: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        #: Which pooled session this tenant's work is multiplexed onto.
        self.session_index = session_index
        #: Tenant-local query id -> session query id (active queries only).
        self.queries: Dict[int, int] = {}
        self._next_local_qid = 0
        #: Tenant-local stream ids that have ingested at least one frame.
        self.streams: Dict[str, None] = {}
        self.bucket: Optional[TokenBucket] = (
            TokenBucket(config.frames_per_sec, config.burst, clock)
            if config.frames_per_sec is not None
            else None
        )
        #: Lifetime counters, surfaced in ``/v1/stats``.
        self.frames_ingested = 0
        self.matches_delivered = 0
        self.throttled = 0

    @property
    def name(self) -> str:
        return self.config.name

    # -- namespacing ----------------------------------------------------
    def scope_stream(self, stream_id: str) -> str:
        """The session-level (tenant-prefixed) form of a local stream id."""
        if not stream_id or STREAM_SCOPE_SEP in stream_id:
            raise HTTPError(
                400,
                f"stream id must be non-empty and must not contain "
                f"{STREAM_SCOPE_SEP!r}, got {stream_id!r}",
            )
        return f"{self.name}{STREAM_SCOPE_SEP}{stream_id}"

    def owns_scoped(self, scoped_stream_id: str) -> bool:
        """True when a session-level stream id is in this tenant's namespace."""
        return scoped_stream_id.startswith(self.name + STREAM_SCOPE_SEP)

    def unscope(self, scoped_stream_id: str) -> str:
        """Strip this tenant's namespace prefix off a session stream id."""
        return scoped_stream_id[len(self.name) + len(STREAM_SCOPE_SEP):]

    # -- quota checks (each raises QuotaError) --------------------------
    def charge_query(self) -> int:
        """Check the query quota and hand out the next local query id."""
        if len(self.queries) >= self.config.max_queries:
            raise QuotaError(
                f"tenant {self.name!r} is at its max_queries quota "
                f"({self.config.max_queries}); cancel a query first"
            )
        local_qid = self._next_local_qid
        self._next_local_qid += 1
        return local_qid

    def charge_stream(self, stream_id: str) -> None:
        """Check the stream quota for (and record) a local stream id."""
        if stream_id in self.streams:
            return
        if len(self.streams) >= self.config.max_streams:
            raise QuotaError(
                f"tenant {self.name!r} is at its max_streams quota "
                f"({self.config.max_streams})"
            )
        self.streams[stream_id] = None

    def charge_frames(self, count: int) -> None:
        """Check the ingest token bucket for a batch of ``count`` frames."""
        if self.bucket is None:
            return
        if not self.bucket.try_take(count):
            self.throttled += 1
            raise QuotaError(
                f"tenant {self.name!r} exceeded its ingest rate "
                f"({self.config.frames_per_sec:g} frames/sec)",
                retry_after=self.bucket.retry_after(count),
            )

    def usage(self) -> Dict:
        """The tenant's quota usage snapshot (for ``/v1/stats``)."""
        return {
            "name": self.name,
            "session": self.session_index,
            "queries": {
                "active": len(self.queries),
                "max": self.config.max_queries,
            },
            "streams": {
                "active": len(self.streams),
                "max": self.config.max_streams,
            },
            "ingest": {
                "frames": self.frames_ingested,
                "frames_per_sec_limit": self.config.frames_per_sec,
                "throttled": self.throttled,
            },
            "matches_delivered": self.matches_delivered,
        }


class TenantRegistry:
    """All tenants of one gateway, keyed by API key and by name.

    Tenants are assigned to pooled sessions round-robin in configuration
    order — a deterministic layout, so a seeded benchmark drives the same
    tenant→session mapping every run.
    """

    def __init__(
        self,
        configs: Iterable[TenantConfig],
        num_sessions: int = 1,
        admin_key: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if num_sessions < 1:
            raise ValueError("num_sessions must be >= 1")
        self._by_key: Dict[str, Tenant] = {}
        #: Also the configuration order (dicts keep insertion order).
        self._by_name: Dict[str, Tenant] = {}
        for index, config in enumerate(configs):
            if config.api_key in self._by_key:
                raise ValueError(
                    f"duplicate api_key between tenants "
                    f"{self._by_key[config.api_key].name!r} and "
                    f"{config.name!r}"
                )
            if config.name in self._by_name:
                raise ValueError(f"duplicate tenant name {config.name!r}")
            tenant = Tenant(config, index % num_sessions, clock)
            self._by_key[config.api_key] = tenant
            self._by_name[config.name] = tenant
        if not self._by_name:
            raise ValueError("a gateway needs at least one tenant")
        self.admin_key = admin_key
        if admin_key is not None and admin_key in self._by_key:
            raise ValueError("the admin key must differ from every tenant key")

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def authenticate(self, api_key: Optional[str]) -> Tenant:
        """Resolve an API key to its tenant; :class:`AuthError` otherwise."""
        if not api_key:
            raise AuthError()
        tenant = self._by_key.get(api_key)
        if tenant is None:
            raise AuthError("unknown API key")
        return tenant

    def is_admin(self, api_key: Optional[str]) -> bool:
        return self.admin_key is not None and api_key == self.admin_key

    def by_name(self, name: str) -> Optional[Tenant]:
        """The tenant called ``name``, or None."""
        return self._by_name.get(name)

    def owner_of_scoped(self, scoped_stream_id: str) -> Optional[Tenant]:
        """The tenant whose namespace a session stream id belongs to."""
        name, sep, _ = scoped_stream_id.partition(STREAM_SCOPE_SEP)
        if not sep:
            return None
        return self._by_name.get(name)
