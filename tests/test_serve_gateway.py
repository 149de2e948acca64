"""The service tier end to end: framing, auth, quotas, delivery, faults.

Tests drive a real :class:`~repro.serve.gateway.Gateway` over loopback
TCP through the blocking :class:`~repro.serve.client.GatewayClient` (plus
raw sockets for the framing edge cases) — no mocked transport, the same
code path production requests take.  Each test builds its own gateway so
quota state never leaks between tests; the inline backend keeps that
cheap.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import time

import pytest

from repro.datamodel.observation import FrameObservation
from repro.serve import (
    ChunkedWriter,
    Gateway,
    GatewayClient,
    GatewayError,
    GatewayRunner,
    MatchFeed,
    TenantConfig,
    TenantRegistry,
    TokenBucket,
)
from repro.serve.broker import FEED_CLOSED
from repro.serve.gateway import match_event
from repro.session import Session

ADMIN = "admin-key"


@contextlib.contextmanager
def gateway(tenant_configs=None, **kwargs):
    """A running gateway plus a client factory, torn down afterwards."""
    configs = tenant_configs or [
        TenantConfig("alpha", "key-alpha"),
        TenantConfig("beta", "key-beta"),
    ]
    kwargs.setdefault("admin_key", ADMIN)
    kwargs.setdefault("backend", "inline")
    gw = Gateway(configs, **kwargs)
    clients = []
    with GatewayRunner(gw) as runner:
        def connect(api_key):
            client = GatewayClient(runner.host, runner.port, api_key)
            clients.append(client)
            return client
        try:
            yield connect
        finally:
            for client in clients:
                client.close()


def frames(n, labels=None, start=0):
    labels = labels or {1: "person", 2: "car"}
    return [FrameObservation(i, labels) for i in range(start, start + n)]


QUERY = "person >= 1"
QUERY_KW = {"window": 10, "duration": 3}


# ----------------------------------------------------------------------
# Unit layers: token bucket, registry, feed
# ----------------------------------------------------------------------
def test_token_bucket_is_deterministic_under_a_fake_clock():
    now = [0.0]
    bucket = TokenBucket(rate=10, burst=20, clock=lambda: now[0])
    assert bucket.try_take(20)          # starts full
    assert not bucket.try_take(1)
    assert bucket.retry_after(5) == pytest.approx(0.5)
    now[0] += 0.5
    assert bucket.try_take(5)
    assert not bucket.try_take(1)


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1, burst=0.5)


def test_registry_rejects_duplicate_keys_names_and_bad_tenants():
    with pytest.raises(ValueError, match="duplicate api_key"):
        TenantRegistry([TenantConfig("a", "k"), TenantConfig("b", "k")])
    with pytest.raises(ValueError, match="duplicate tenant name"):
        TenantRegistry([TenantConfig("a", "k1"), TenantConfig("a", "k2")])
    with pytest.raises(ValueError, match="admin key"):
        TenantRegistry([TenantConfig("a", "k")], admin_key="k")
    with pytest.raises(ValueError, match="must not contain"):
        TenantConfig("a/b", "k")
    with pytest.raises(ValueError, match="at least one tenant"):
        TenantRegistry([])


def test_registry_resolves_tenants_by_name():
    registry = TenantRegistry(
        [TenantConfig("a", "k1"), TenantConfig("b", "k2")]
    )
    assert registry.by_name("b") is registry.authenticate("k2")
    assert registry.by_name("c") is None
    assert registry.owner_of_scoped("a/cam-0") is registry.by_name("a")
    assert registry.owner_of_scoped("c/cam-0") is None
    assert registry.owner_of_scoped("no-scope") is None


def test_round_robin_session_assignment():
    registry = TenantRegistry(
        [TenantConfig(f"t{i}", f"k{i}") for i in range(5)], num_sessions=2
    )
    assert [t.session_index for t in registry] == [0, 1, 0, 1, 0]


def test_match_feed_poll_buffer_drops_oldest_and_counts_lag():
    feed = MatchFeed(poll_buffer=3, subscriber_queue=4)
    for i in range(5):
        feed.publish({"i": i})
    assert feed.lagged == 2
    assert [e["i"] for e in feed.take_pending()] == [2, 3, 4]
    assert feed.take_pending() == []


def test_subscriber_queue_drops_oldest_and_close_sentinel_fits():
    feed = MatchFeed(poll_buffer=10, subscriber_queue=2)
    sub = feed.subscribe()
    for i in range(4):
        feed.publish({"i": i})
    assert sub.lagged == 2
    feed.close()
    # The sentinel evicted the oldest queued event rather than being lost.
    drained = []
    while not sub.queue.empty():
        drained.append(sub.queue.get_nowait())
    assert drained[-1] is FEED_CLOSED
    assert sub.lagged == 3


# ----------------------------------------------------------------------
# HTTP framing edge cases, on a raw socket
# ----------------------------------------------------------------------
def raw_roundtrip(host, port, payload: bytes) -> bytes:
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def test_framing_rejections_and_keep_alive():
    with gateway() as connect:
        client = connect("key-alpha")
        host, port = client.host, client.port
        assert b"400" in raw_roundtrip(host, port, b"NOT A REQUEST\r\n\r\n")
        assert b"501" in raw_roundtrip(
            host, port,
            b"POST /v1/queries HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        )
        assert b"413" in raw_roundtrip(
            host, port,
            b"POST /v1/queries HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
        )
        # Two requests on one connection: keep-alive works.
        double = (
            b"GET /healthz HTTP/1.1\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert raw_roundtrip(host, port, double).count(b"200 OK") == 2


# ----------------------------------------------------------------------
# Auth and quotas
# ----------------------------------------------------------------------
def test_requests_without_or_with_unknown_key_get_401():
    with gateway() as connect:
        for key in (None, "who-dis"):
            client = connect(key)
            with pytest.raises(GatewayError) as excinfo:
                client.list_queries()
            assert excinfo.value.status == 401
        # /healthz needs no key.
        assert connect(None).healthz().payload["status"] == "ok"


def test_bearer_token_auth_works_too():
    with gateway() as connect:
        client = connect(None)
        response = client.request(
            "GET", "/v1/queries",
        )
        assert response.status == 401
        conn_client = GatewayClient(client.host, client.port)
        try:
            import http.client
            conn = http.client.HTTPConnection(client.host, client.port)
            conn.request("GET", "/v1/queries",
                         headers={"Authorization": "Bearer key-alpha"})
            assert conn.getresponse().status == 200
            conn.close()
        finally:
            conn_client.close()


def test_max_queries_quota_returns_429():
    configs = [TenantConfig("solo", "k", max_queries=2)]
    with gateway(configs) as connect:
        client = connect("k")
        client.register_query("person >= 1", **QUERY_KW)
        client.register_query("car >= 1", **QUERY_KW)
        with pytest.raises(GatewayError) as excinfo:
            client.register_query("bus >= 1", **QUERY_KW)
        assert excinfo.value.status == 429
        assert excinfo.value.code == "quota_exceeded"


def test_max_streams_quota_returns_429():
    configs = [TenantConfig("solo", "k", max_streams=1)]
    with gateway(configs) as connect:
        client = connect("k")
        client.post_frames("cam-0", frames(2))
        with pytest.raises(GatewayError) as excinfo:
            client.post_frames("cam-1", frames(2))
        assert excinfo.value.status == 429


def test_ingest_rate_limit_throttles_with_retry_after():
    configs = [TenantConfig("solo", "k", frames_per_sec=1, burst=4)]
    with gateway(configs) as connect:
        client = connect("k")
        client.post_frames("cam-0", frames(4))  # burst allows this
        with pytest.raises(GatewayError) as excinfo:
            client.post_frames("cam-0", frames(4, start=4))
        assert excinfo.value.status == 429
        response = client.request(
            "POST", "/v1/streams/cam-0/frames",
            body=b'{"frame_id": 99, "objects": {}}',
            content_type="application/x-ndjson",
        )
        assert response.status == 429
        assert int(response.headers.get("Retry-After")) >= 1


# ----------------------------------------------------------------------
# Query lifecycle and match delivery
# ----------------------------------------------------------------------
def oracle_events(local_qid, stream_id, query, query_kw, frame_list):
    """What the gateway must deliver: a direct session, same encoder."""
    from repro.query.parser import parse_query

    parsed = parse_query(query, **query_kw)
    with Session("inline", restrict_labels=False) as session:
        handle = session.register(parsed)
        for frame in frame_list:
            session.ingest(stream_id, frame)
        session.flush()
        return [
            match_event(local_qid, stream_id, m)
            for m in handle.take_matches()
        ]


def test_register_ingest_flush_poll_matches_oracle():
    with gateway() as connect:
        client = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        batch = frames(12)
        client.post_frames("cam-0", batch)
        client.flush()
        payload = client.poll_matches(qid)
        assert payload["lagged"] == 0 and payload["active"]
        assert payload["matches"] == oracle_events(
            qid, "cam-0", QUERY, QUERY_KW, batch
        )
        # The poll consumed the buffer.
        assert client.poll_matches(qid)["matches"] == []


def test_duplicate_registration_within_a_tenant_is_409():
    with gateway() as connect:
        client = connect("key-alpha")
        client.register_query(QUERY, **QUERY_KW)
        with pytest.raises(GatewayError) as excinfo:
            client.register_query(QUERY, **QUERY_KW)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "duplicate_query"


def test_cross_tenant_isolation_with_a_shared_query():
    """Two tenants registering the same query (shared session-side) each
    see exactly their own streams' matches — never the co-tenant's."""
    with gateway() as connect:
        alpha, beta = connect("key-alpha"), connect("key-beta")
        qid_a = alpha.register_query(QUERY, **QUERY_KW)
        qid_b = beta.register_query(QUERY, **QUERY_KW)
        batch_a = frames(12)
        batch_b = frames(8, labels={5: "person"})
        alpha.post_frames("cam-0", batch_a)
        beta.post_frames("cam-0", batch_b)   # same *local* stream id!
        alpha.flush()
        got_a = alpha.poll_matches(qid_a)["matches"]
        got_b = beta.poll_matches(qid_b)["matches"]
        assert got_a == oracle_events(qid_a, "cam-0", QUERY, QUERY_KW, batch_a)
        assert got_b == oracle_events(qid_b, "cam-0", QUERY, QUERY_KW, batch_b)
        object_ids = {tuple(e["object_ids"]) for e in got_b}
        assert object_ids == {(5,)}  # none of alpha's objects leaked


def test_cancel_delivers_tail_then_marks_feed_inactive():
    with gateway() as connect:
        client = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        client.post_frames("cam-0", frames(12))
        # No explicit flush: cancel itself must barrier the buffered
        # frames through (session cancel semantics surfaced over HTTP).
        cancelled = client.cancel_query(qid)
        assert cancelled.payload["cancelled"]
        payload = client.poll_matches(qid)
        assert not payload["active"]
        assert payload["matches"] == oracle_events(
            qid, "cam-0", QUERY, QUERY_KW, frames(12)
        )
        with pytest.raises(GatewayError) as excinfo:
            client.cancel_query(qid)
        assert excinfo.value.status == 404


def test_listing_and_unknown_ids_404():
    with gateway() as connect:
        client = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        listed = client.list_queries()
        assert [q["query_id"] for q in listed] == [qid]
        for path in (f"/v1/queries/{qid + 5}/matches", "/v1/queries/zzz"):
            assert client.request("GET", path).status in (400, 404)
        with pytest.raises(GatewayError) as excinfo:
            client.poll_matches(qid + 5)
        assert excinfo.value.status == 404


def test_unknown_stream_matches_endpoint_404s():
    """The gateway 404 built on Session.matches_for's UnknownStreamError."""
    with gateway() as connect:
        client = connect("key-alpha")
        client.register_query(QUERY, **QUERY_KW)
        with pytest.raises(GatewayError) as excinfo:
            client.retained_matches("never-posted")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_stream"
        # Another tenant's stream is unknown under *this* tenant's prefix
        # even when the local id collides — namespacing in action.
        beta = connect("key-beta")
        beta.post_frames("cam-9", frames(2))
        with pytest.raises(GatewayError) as excinfo:
            client.retained_matches("cam-9")
        assert excinfo.value.status == 404


def test_bad_ingest_bodies_are_400():
    with gateway() as connect:
        client = connect("key-alpha")
        for body in (b"", b"not json\n", b'{"objects": {}}\n',
                     b'{"frame_id": "x", "objects": {}}\n'):
            response = client.request(
                "POST", "/v1/streams/cam-0/frames", body=body,
                content_type="application/x-ndjson",
            )
            assert response.status == 400, body
        response = client.request(
            "POST", "/v1/streams/bad/slash/frames", body=b'{"frame_id": 0}',
        )
        assert response.status == 404  # '/' in the id changes the route


def test_stream_endpoint_delivers_events_and_respects_limit():
    with gateway() as connect:
        client = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        batch = frames(12)
        client.post_frames("cam-0", batch)
        client.flush()
        expected = oracle_events(qid, "cam-0", QUERY, QUERY_KW, batch)
        assert len(expected) >= 3
        events = list(client.stream_matches(qid, limit=2))
        matches = [e for e in events if e["event"] == "match"]
        assert len(matches) == 2
        assert events[-1]["event"] == "end"
        stripped = [
            {k: v for k, v in e.items() if k != "event"} for e in matches
        ]
        assert stripped == expected[:2]


@pytest.mark.parametrize("backend", ["inline", "router"])
def test_a_post_delivers_its_matches_before_the_200(backend):
    """No pump and no flush: the hop that ingests a batch publishes the
    matches it completed.  The router's partial batch waits for a flush."""
    with gateway(backend=backend, pump_interval=3600) as connect:
        client = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        batch = frames(16)  # two full router batches (batch_size 8)
        client.post_frames("cam-0", batch)
        assert client.poll_matches(qid)["matches"] == oracle_events(
            qid, "cam-0", QUERY, QUERY_KW, batch
        )
        if backend == "router":
            tail = frames(3, start=16)
            client.post_frames("cam-0", tail)
            assert client.poll_matches(qid)["matches"] == []
            client.flush()
            assert client.poll_matches(qid)["matches"] == oracle_events(
                qid, "cam-0", QUERY, QUERY_KW, batch + tail
            )[-3:]
        assert client.stats().payload["gateway"]["pump_errors"] == 0


class FailOnce:
    """A query handle whose next ``take_matches`` raises, once."""

    def __init__(self, handle):
        self.handle = handle
        self.armed = True

    def take_matches(self):
        if self.armed:
            self.armed = False
            raise RuntimeError("injected collection failure")
        return self.handle.take_matches()


@pytest.mark.parametrize("where", ["ingest", "sweep"])
def test_a_failed_collection_is_counted_and_loses_nothing(where):
    """The second of two handles raises once, in the ingest hop or in a
    flush sweep: the first query's matches are delivered at once, the
    error is counted, and the next sweep delivers the rest."""
    gw = Gateway(
        [TenantConfig("alpha", "key-alpha")], backend="router",
        pump_interval=3600,
    )
    with GatewayRunner(gw) as runner, GatewayClient(
        runner.host, runner.port, "key-alpha"
    ) as client:
        first = client.register_query(QUERY, **QUERY_KW)
        second = client.register_query("car >= 1", **QUERY_KW)
        handles = gw._handles[0]
        victim = sorted(handles)[1]
        batch = frames(12)  # one full batch and a partial one
        if where == "sweep":
            client.post_frames("cam-0", batch)
            client.poll_matches(first)
            client.poll_matches(second)
            batch = batch[8:]
        handles[victim] = FailOnce(handles[victim])
        if where == "ingest":
            client.post_frames("cam-0", batch)  # 200 all the same
            assert client.poll_matches(first)["matches"]
        else:
            assert client.request("POST", "/v1/flush").status == 500
            assert len(client.poll_matches(first)["matches"]) == 4
        assert client.poll_matches(second)["matches"] == []
        counters = client.stats().payload["gateway"]
        assert counters["pump_errors"] == 1
        handles[victim] = handles[victim].handle
        client.flush()
        assert client.poll_matches(second)["matches"] == [
            event for event in oracle_events(
                second, "cam-0", "car >= 1", QUERY_KW, frames(12)
            )
            if event["frame_id"] >= batch[0].frame_id
        ]
        assert client.stats().payload["gateway"]["pump_errors"] == 1


def test_a_failed_flush_is_retried_by_the_next_pump_sweep(monkeypatch):
    """A pump sweep whose flush raises re-marks the session dirty, so the
    next sweep flushes the partial batch again and delivers it."""
    real_flush = Session.flush
    failures = []

    def flush_failing_once(session):
        if not failures:
            failures.append(session)
            raise RuntimeError("injected flush failure")
        real_flush(session)

    with gateway(backend="router", pump_interval=0.01) as connect:
        client = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        batch = frames(3)  # a partial router batch: only a flush runs it
        expected = oracle_events(qid, "cam-0", QUERY, QUERY_KW, batch)
        monkeypatch.setattr(Session, "flush", flush_failing_once)
        client.post_frames("cam-0", batch)
        delivered = []
        deadline = time.monotonic() + 10
        while len(delivered) < len(expected) and time.monotonic() < deadline:
            delivered += client.poll_matches(qid)["matches"]
            time.sleep(0.01)
        assert failures and delivered == expected
        assert client.stats().payload["gateway"]["pump_errors"] == 1


def chunk(payload) -> bytes:
    """One event as the stream's wire chunk, encoded independently."""
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return b"%x\r\n" % len(data) + data + b"\r\n"


def raw_stream_body(host, port, path) -> bytes:
    """The chunked body of one ``Connection: close`` stream request."""
    response = raw_roundtrip(host, port, (
        f"GET {path} HTTP/1.1\r\nX-API-Key: key-alpha\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1"))
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200") and b"chunked" in head
    return body


def test_a_queued_batch_is_the_concatenation_of_per_event_chunks():
    """Everything queued before the streamer wakes leaves in one write;
    the bytes are those of one chunk per event, limit and end included."""
    with gateway() as connect:
        client = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        batch = frames(12)
        client.post_frames("cam-0", batch)
        expected = oracle_events(qid, "cam-0", QUERY, QUERY_KW, batch)
        assert len(expected) >= 5
        matches = [chunk({"event": "match", **e}) for e in expected]
        # The cancelled feed's subscriber is handed every event and the
        # close sentinel at once.
        client.cancel_query(qid)
        path = f"/v1/queries/{qid}/stream"
        assert raw_stream_body(client.host, client.port, path) == (
            b"".join(matches) + chunk({"event": "end"}) + b"0\r\n\r\n"
        )
        assert raw_stream_body(
            client.host, client.port, path + "?limit=3"
        ) == (
            b"".join(matches[:3])
            + chunk({"event": "end", "reason": "limit"}) + b"0\r\n\r\n"
        )


def test_a_lag_notice_precedes_the_events_after_the_drop():
    with gateway(subscriber_queue=4) as connect:
        client = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        batch = frames(12)
        client.post_frames("cam-0", batch)
        expected = oracle_events(qid, "cam-0", QUERY, QUERY_KW, batch)
        client.cancel_query(qid)
        # A queue of 4 keeps the last 3 events and the close sentinel.
        events = list(client.stream_matches(qid))
        assert events[0] == {"event": "lagged", "dropped": len(expected) - 3}
        assert events[1:] == [
            {"event": "match", **e} for e in expected[-3:]
        ] + [{"event": "end"}]


def test_send_events_is_one_write_and_one_drain_of_per_event_chunks():
    class Recorder:
        def __init__(self):
            self.writes, self.drains = [], 0

        def write(self, data):
            self.writes.append(data)

        async def drain(self):
            self.drains += 1

    payloads = [{"event": "match", "i": i} for i in range(5)]
    recorder = Recorder()
    asyncio.run(ChunkedWriter(recorder).send_events(payloads))
    assert recorder.writes == [b"".join(chunk(p) for p in payloads)]
    assert recorder.drains == 1


def test_stream_endpoint_ends_when_query_is_cancelled():
    with gateway() as connect:
        client = connect("key-alpha")
        other = connect("key-alpha")
        qid = client.register_query(QUERY, **QUERY_KW)
        client.post_frames("cam-0", frames(12))
        client.flush()

        import threading
        events = []
        def consume():
            events.extend(other.stream_matches(qid))
        consumer = threading.Thread(target=consume)
        consumer.start()
        client.cancel_query(qid)
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert events and events[-1]["event"] == "end"


# ----------------------------------------------------------------------
# Stats, health, admin
# ----------------------------------------------------------------------
def test_stats_are_tenant_scoped_unless_admin():
    with gateway() as connect:
        alpha = connect("key-alpha")
        alpha.register_query(QUERY, **QUERY_KW)
        alpha.post_frames("cam-0", frames(3))
        payload = alpha.stats().payload
        assert set(payload["tenants"]) == {"alpha"}
        assert payload["tenants"]["alpha"]["ingest"]["frames"] == 3
        admin_payload = connect(ADMIN).stats().payload
        assert set(admin_payload["tenants"]) == {"alpha", "beta"}
        assert admin_payload["gateway"]["frames_ingested"] == 3
        session_stats = admin_payload["sessions"]["0"]
        assert "stats" in session_stats and "stream_health" in session_stats


def test_repair_requires_the_admin_key():
    with gateway() as connect:
        with pytest.raises(GatewayError) as excinfo:
            connect("key-alpha").repair()
        assert excinfo.value.status == 403
        assert connect(ADMIN).repair() == []  # nothing parked: no-op


def test_healthz_reports_stream_state():
    with gateway() as connect:
        client = connect("key-alpha")
        client.post_frames("cam-0", frames(2))
        payload = client.healthz().payload
        assert payload["status"] == "ok"
        assert payload["streams"]["alpha/cam-0"]["state"] == "healthy"


def test_multiple_sessions_partition_tenants():
    with gateway(num_sessions=2) as connect:
        alpha, beta = connect("key-alpha"), connect("key-beta")
        qa = alpha.register_query(QUERY, **QUERY_KW)
        qb = beta.register_query(QUERY, **QUERY_KW)
        alpha.post_frames("cam-0", frames(12))
        beta.post_frames("cam-0", frames(12))
        alpha.flush()
        beta.flush()
        expected = oracle_events(0, "cam-0", QUERY, QUERY_KW, frames(12))
        assert alpha.poll_matches(qa)["matches"] == expected
        assert beta.poll_matches(qb)["matches"] == expected
        sessions = connect(ADMIN).stats().payload["sessions"]
        assert set(sessions) == {"0", "1"}
