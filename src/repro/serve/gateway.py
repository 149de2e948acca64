"""The multi-tenant asyncio gateway over pooled sessions.

One :class:`Gateway` fronts ``num_sessions`` pooled
:class:`~repro.session.session.Session`\\ s (any backend — inline, router
or the multiprocess pool).  Each session is owned by one
:class:`~repro.session.dispatch.SessionDispatcher` worker thread; the
event loop never touches a session directly, it submits closures and
awaits their futures — which preserves the session's single-caller
contract and its flush-barrier semantics exactly.

Tenants are multiplexed onto the sessions by namespacing (see
:mod:`repro.serve.tenants`): stream ids are tenant-prefixed, query ids
are tenant-local, and structurally equal queries from different tenants
*share* one session-level registration — the gateway fans each produced
match out to every tenant that registered the query, but only for
streams inside that tenant's namespace, so results never leak across
tenants.

Endpoints (all JSON; auth via ``X-API-Key`` or ``Authorization: Bearer``):

========  ==============================  =====================================
method    path                            purpose
========  ==============================  =====================================
GET       ``/healthz``                    liveness + degraded state (no auth)
GET       ``/v1/stats``                   tenant usage, session stats/health
POST      ``/v1/queries``                 register a query (fluent grammar)
GET       ``/v1/queries``                 list the tenant's queries
DELETE    ``/v1/queries/{id}``            cancel a query
GET       ``/v1/queries/{id}/matches``    poll delivered matches (bounded)
GET       ``/v1/queries/{id}/stream``     chunked NDJSON match stream
POST      ``/v1/streams/{id}/frames``     ingest an NDJSON frame batch
GET       ``/v1/streams/{id}/matches``    a stream's retained matches
POST      ``/v1/flush``                   barrier: force buffered frames through
POST      ``/v1/admin/repair``            re-adopt parked streams (admin key)
========  ==============================  =====================================

Label projection (``restrict_labels``) defaults **off** here, unlike the
bare session: projection works on the union of a window group's query
classes, and with several tenants sharing groups that union would couple
one tenant's results to another's workload.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.datamodel.observation import FrameObservation
from repro.query.evaluator import QueryMatch
from repro.query.model import DEFAULT_DURATION, DEFAULT_WINDOW, CNFQuery
from repro.query.parser import parse_query
from repro.serve.broker import FEED_CLOSED, MatchFeed
from repro.serve.http import (
    ChunkedWriter,
    HTTPError,
    Request,
    error_response,
    json_response,
    read_request,
)
from repro.serve.tenants import Tenant, TenantConfig, TenantRegistry
from repro.session.dispatch import SessionDispatcher
from repro.session.session import Session, UnknownStreamError

#: Return value of a handler that wrote its own (streaming) response.
STREAMED = object()


def match_event(local_qid: int, stream_id: str, match: QueryMatch) -> Dict:
    """One match as its deterministic wire event.

    The same function serializes the oracle side of the benchmark's
    byte-identity check, so "the gateway delivered exactly what a direct
    session produced" is a comparison of identical encodings.
    """
    return {
        "query_id": local_qid,
        "stream": stream_id,
        "frame_id": match.frame_id,
        "frame_ids": list(match.frame_ids),
        "object_ids": sorted(match.object_ids),
        "classes": [[label, count] for label, count in match.class_counts],
    }


def _take_matches(session, handles, flush: bool):
    """The session half of a delivery: ``(taken, error)``.

    Flushes first when asked, then takes every handle's new matches as
    ``(session qid, matches)`` pairs.  An exception ends the collection
    and is returned beside what was taken before it, so a failed
    collection loses nothing: the rest stays in the session.
    """
    taken = []
    try:
        if flush:
            session.flush()
        for session_qid, handle in handles:
            taken.append((session_qid, handle.take_matches()))
    except Exception as exc:
        return taken, exc
    return taken, None


class Gateway:
    """The asyncio service tier: multi-tenant HTTP over pooled sessions.

    Parameters
    ----------
    tenants:
        The tenant fleet (:class:`~repro.serve.tenants.TenantConfig`).
        Tenants are assigned to sessions round-robin in this order.
    admin_key:
        Key unlocking ``/v1/admin/*`` and fleet-wide ``/v1/stats``.
    num_sessions:
        Pooled sessions to spread tenants over.
    backend / session_kwargs:
        Forwarded to each :class:`~repro.session.session.Session`.
        ``restrict_labels`` defaults to False (see the module docstring).
    host / port:
        Bind address; port 0 picks an ephemeral port (see :attr:`port`).
    pump_interval:
        Seconds between background delivery sweeps per session.  A frame
        batch's matches are published on the hop that ingests it, before
        its POST is answered; a sweep only flushes partial router batches
        and retries after a failed collection (``/v1/stats``
        ``gateway.pump_errors``).
    poll_buffer / subscriber_queue:
        Bounded delivery depths (see :mod:`repro.serve.broker`).
    """

    def __init__(
        self,
        tenants: List[TenantConfig],
        *,
        admin_key: Optional[str] = None,
        num_sessions: int = 1,
        backend: str = "inline",
        session_kwargs: Optional[Dict] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        pump_interval: float = 0.02,
        poll_buffer: int = 4096,
        subscriber_queue: int = 256,
        max_body: int = 8 * 1024 * 1024,
        keepalive_timeout: float = 30.0,
    ):
        self._registry = TenantRegistry(
            tenants, num_sessions=num_sessions, admin_key=admin_key
        )
        self._num_sessions = int(num_sessions)
        self._backend = backend
        kwargs = dict(session_kwargs or {})
        kwargs.setdefault("restrict_labels", False)
        self._session_kwargs = kwargs
        self._host = host
        self._requested_port = int(port)
        self.pump_interval = float(pump_interval)
        self.poll_buffer = int(poll_buffer)
        self.subscriber_queue = int(subscriber_queue)
        self.max_body = int(max_body)
        self.keepalive_timeout = float(keepalive_timeout)

        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._dispatchers: List[SessionDispatcher] = []
        self._pump_tasks: List[asyncio.Task] = []
        self._pump_locks: List[asyncio.Lock] = []
        self._ingest_dirty: List[bool] = []
        #: Per session: canonical query -> session query id (active).
        self._squeries: List[Dict[CNFQuery, int]] = []
        #: Per session: session query id -> QueryHandle (touched only
        #: inside dispatcher closures).
        self._handles: List[Dict[int, object]] = []
        #: Per session: session query id -> {(tenant, local_qid): feed}.
        self._routes: List[Dict[int, Dict[Tuple[str, int], MatchFeed]]] = []
        #: Every feed ever created, kept past cancel so final matches stay
        #: pollable: (tenant name, local qid) -> feed.
        self._feeds: Dict[Tuple[str, int], MatchFeed] = {}
        #: Per tenant name: local qid -> canonical query (active).
        self._tenant_queries: Dict[str, Dict[int, CNFQuery]] = {
            tenant.name: {} for tenant in self._registry
        }
        self._counters = {
            "requests": 0,
            "errors": 0,
            "frames_ingested": 0,
            "matches_delivered": 0,
            "throttled": 0,
            "pump_sweeps": 0,
            "pump_errors": 0,
        }
        self._started = False
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral request after start)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> Tuple[str, int]:
        """Build the session fleet, bind the socket, start the pumps."""
        if self._started:
            raise RuntimeError("the gateway is already running")
        loop = asyncio.get_running_loop()
        backend = self._backend
        kwargs = self._session_kwargs
        for index in range(self._num_sessions):
            # Dispatcher construction blocks on the worker thread building
            # the session (the pool backend spawns processes) — keep the
            # event loop responsive while it happens.
            dispatcher = await loop.run_in_executor(
                None,
                lambda i=index: SessionDispatcher(
                    lambda: Session(backend, **kwargs),
                    name=f"gateway-session-{i}",
                ),
            )
            self._dispatchers.append(dispatcher)
            self._pump_locks.append(asyncio.Lock())
            self._ingest_dirty.append(False)
            self._squeries.append({})
            self._handles.append({})
            self._routes.append({})
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._requested_port
        )
        for index in range(self._num_sessions):
            self._pump_tasks.append(
                asyncio.create_task(self._pump(index), name=f"pump-{index}")
            )
        self._started = True
        return self._host, self.port

    async def stop(self) -> None:
        """Stop serving: final delivery sweep, close feeds and sessions."""
        if not self._started or self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._pump_tasks) + list(self._connections):
            task.cancel()
        for task in list(self._pump_tasks) + list(self._connections):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # One last sweep so handles drain into the feeds, then close the
        # feeds so attached streamers terminate cleanly.
        for index in range(self._num_sessions):
            try:
                await self._distribute(index, force_flush=True)
            except Exception:
                pass  # a broken pool must not block shutdown
        for feed in self._feeds.values():
            feed.close()
        loop = asyncio.get_running_loop()
        for dispatcher in self._dispatchers:
            await loop.run_in_executor(None, dispatcher.close)
        self._started = False

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancelled us; returning (not re-raising) keeps the
            # asyncio.streams completion callback from logging it.
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                request = await asyncio.wait_for(
                    read_request(reader, self.max_body),
                    self.keepalive_timeout,
                )
            except asyncio.TimeoutError:
                break
            except HTTPError as exc:
                self._counters["errors"] += 1
                writer.write(error_response(exc, close=True))
                await writer.drain()
                break
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            if request is None:
                break
            close = request.wants_close()
            self._counters["requests"] += 1
            try:
                response = await self._route(request, writer)
            except HTTPError as exc:
                self._counters["errors"] += 1
                response = error_response(exc, close=close)
            except ConnectionError:
                break
            except Exception as exc:
                self._counters["errors"] += 1
                response = error_response(
                    HTTPError(500, f"internal error: {exc!r}"), close=True
                )
                close = True
            if response is not STREAMED:
                try:
                    writer.write(response)
                    await writer.drain()
                except ConnectionError:
                    break
            if close:
                break

    def _auth(self, request: Request) -> Tenant:
        return self._registry.authenticate(self._api_key(request))

    @staticmethod
    def _api_key(request: Request) -> Optional[str]:
        key = request.headers.get("x-api-key")
        if key:
            return key
        auth = request.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return None

    async def _route(self, request: Request, writer):
        method, path = request.method, request.path
        segments = [s for s in path.split("/") if s]
        if path == "/healthz" and method == "GET":
            return await self._get_healthz()
        if path == "/v1/stats" and method == "GET":
            return await self._get_stats(request)
        if path == "/v1/queries":
            if method == "POST":
                return await self._post_query(self._auth(request), request)
            if method == "GET":
                return self._list_queries(self._auth(request))
            raise HTTPError(405, f"{method} not supported on {path}")
        if len(segments) >= 3 and segments[0] == "v1" and segments[1] == "queries":
            local_qid = self._int_segment(segments[2], "query id")
            if len(segments) == 3 and method == "DELETE":
                return await self._delete_query(self._auth(request), local_qid)
            if len(segments) == 4 and segments[3] == "matches" and method == "GET":
                return self._poll_matches(self._auth(request), local_qid)
            if len(segments) == 4 and segments[3] == "stream" and method == "GET":
                return await self._stream_matches(
                    self._auth(request), local_qid, request, writer
                )
            raise HTTPError(404, f"no route for {method} {path}")
        if len(segments) == 4 and segments[0] == "v1" and segments[1] == "streams":
            stream_id = segments[2]
            if segments[3] == "frames" and method == "POST":
                return await self._post_frames(
                    self._auth(request), stream_id, request
                )
            if segments[3] == "matches" and method == "GET":
                return await self._get_stream_matches(
                    self._auth(request), stream_id
                )
            raise HTTPError(404, f"no route for {method} {path}")
        if path == "/v1/flush" and method == "POST":
            return await self._post_flush(self._auth(request))
        if path == "/v1/admin/repair" and method == "POST":
            return await self._post_repair(request)
        raise HTTPError(404, f"no route for {method} {path}")

    @staticmethod
    def _int_segment(raw: str, what: str) -> int:
        try:
            return int(raw)
        except ValueError as exc:
            raise HTTPError(400, f"malformed {what} {raw!r}") from exc

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------
    async def _dispatch(self, index: int, fn):
        """Run ``fn(session)`` on session ``index``'s worker thread."""
        return await asyncio.wrap_future(self._dispatchers[index].submit(fn))

    async def _pump(self, index: int) -> None:
        """Background sweep: flush partial batches, retry failed collections."""
        while True:
            await asyncio.sleep(self.pump_interval)
            try:
                await self._distribute(index)
            except asyncio.CancelledError:
                raise
            except Exception:
                # A degraded pool can make a sweep fail transiently; it is
                # counted in pump_errors and the next sweep retries.
                # Session-level faults surface through /healthz and
                # /v1/stats, not by killing the pump.
                continue

    async def _distribute(self, index: int, force_flush: bool = False) -> None:
        """One delivery sweep of session ``index`` (serialized per session).

        Raises the session's error after publishing whatever the sweep
        took before it.
        """
        async with self._pump_locks[index]:
            flush = self._ingest_dirty[index] or force_flush
            self._ingest_dirty[index] = False
            handles = list(self._handles[index].items())
            if not handles:
                return
            error = await self._collect(
                index, lambda session: _take_matches(session, handles, flush)
            )
            if error is not None:
                raise error
            self._counters["pump_sweeps"] += 1

    async def _collect(self, index: int, fn) -> Optional[Exception]:
        """Run a collecting hop ``fn(session) -> (taken, error)`` on session
        ``index``, publish what it took, and return its error.

        Delivery order per ``(query, stream)`` is dispatcher order.  Hops
        run in submission order, and asyncio resumes the tasks awaiting
        them in completion order, so that holds only if no ``await`` sits
        between a hop's return and its publish.  Here there is none: the
        publish is the hop future's first done callback, which also runs
        when the awaiting task is cancelled (``shield``), so a stopping
        gateway loses nothing a hop already took.
        """
        future = asyncio.wrap_future(self._dispatchers[index].submit(fn))
        future.add_done_callback(functools.partial(self._collected, index))
        _, error = await asyncio.shield(future)
        return error

    def _collected(self, index: int, future: asyncio.Future) -> None:
        if future.cancelled() or future.exception() is not None:
            return  # the hop failed before collecting; its caller raises
        taken, error = future.result()
        self._publish(index, taken)
        if error is not None:
            # The matches it could not take stay in the session; the
            # re-marked session makes the next sweep flush and retry.
            self._ingest_dirty[index] = True
            self._counters["pump_errors"] += 1

    def _publish(self, index: int, taken) -> None:
        """Route ``(session qid, matches)`` pairs into the tenant feeds."""
        routes = self._routes[index]
        for session_qid, matches in taken:
            if not matches:
                continue
            for (tenant_name, local_qid), feed in routes.get(
                session_qid, {}
            ).items():
                tenant = self._registry.by_name(tenant_name)
                delivered = 0
                for match in matches:
                    if tenant.owns_scoped(match.stream_id):
                        feed.publish(match_event(
                            local_qid, tenant.unscope(match.stream_id), match
                        ))
                        delivered += 1
                tenant.matches_delivered += delivered
                self._counters["matches_delivered"] += delivered

    # ------------------------------------------------------------------
    # Query lifecycle endpoints
    # ------------------------------------------------------------------
    async def _post_query(self, tenant: Tenant, request: Request):
        payload = request.json()
        if not isinstance(payload, dict) or "q" not in payload:
            raise HTTPError(400, 'the body must be a JSON object with "q"')
        text = payload["q"]
        if not isinstance(text, str):
            raise HTTPError(400, '"q" must be a query expression string')
        window = payload.get("window", DEFAULT_WINDOW)
        duration = payload.get("duration", DEFAULT_DURATION)
        name = payload.get("name", "")
        if not isinstance(window, int) or not isinstance(duration, int):
            raise HTTPError(400, '"window" and "duration" must be integers')
        try:
            normalized = parse_query(
                text, window=window, duration=duration, name=str(name)
            )
        except ValueError as exc:
            raise HTTPError(400, f"unparseable query: {exc}") from exc
        registered = self._tenant_queries[tenant.name]
        for existing_local, existing in registered.items():
            if existing == normalized:
                raise HTTPError(
                    409,
                    f"duplicate registration: this query is already active "
                    f"as id {existing_local}",
                    code="duplicate_query",
                )
        local_qid = tenant.charge_query()  # quota check
        index = tenant.session_index
        session_qid = self._squeries[index].get(normalized)
        if session_qid is None:
            try:
                handle = await self._dispatch(
                    index, lambda s: s.register(normalized)
                )
            except ValueError as exc:
                # Nothing was registered; the consumed local id just leaves
                # a gap, which is harmless.
                raise HTTPError(400, f"registration rejected: {exc}") from exc
            session_qid = handle.query_id
            self._squeries[index][normalized] = session_qid
            self._handles[index][session_qid] = handle
            self._routes[index][session_qid] = {}
        feed = MatchFeed(self.poll_buffer, self.subscriber_queue)
        self._feeds[(tenant.name, local_qid)] = feed
        self._routes[index][session_qid][(tenant.name, local_qid)] = feed
        tenant.queries[local_qid] = session_qid
        registered[local_qid] = normalized
        return json_response(201, {
            "query_id": local_qid,
            "query": str(normalized),
            "window": normalized.window,
            "duration": normalized.duration,
            "name": normalized.name,
        })

    def _list_queries(self, tenant: Tenant):
        registered = self._tenant_queries[tenant.name]
        return json_response(200, {
            "queries": [
                {
                    "query_id": local_qid,
                    "query": str(query),
                    "window": query.window,
                    "duration": query.duration,
                }
                for local_qid, query in sorted(registered.items())
            ],
        })

    async def _delete_query(self, tenant: Tenant, local_qid: int):
        session_qid = tenant.queries.get(local_qid)
        if session_qid is None:
            raise HTTPError(404, f"no active query {local_qid}")
        index = tenant.session_index
        # Deliver everything already ingested under the live query first —
        # the cancellation barrier semantics of Session.cancel, surfaced
        # through the feed.
        await self._distribute(index, force_flush=True)
        routes = self._routes[index][session_qid]
        feed = routes.pop((tenant.name, local_qid))
        tenant.queries.pop(local_qid)
        query = self._tenant_queries[tenant.name].pop(local_qid)
        if not routes:
            # Last tenant referencing the shared registration: cancel it
            # on the session and retire the bookkeeping.
            handle = self._handles[index].pop(session_qid)
            self._routes[index].pop(session_qid)
            self._squeries[index].pop(query, None)
            await self._dispatch(index, lambda s: s.cancel(handle))
        feed.close()
        return json_response(200, {
            "query_id": local_qid,
            "cancelled": True,
            "undelivered": feed.pending_count,
        })

    # ------------------------------------------------------------------
    # Match delivery endpoints
    # ------------------------------------------------------------------
    def _feed_of(self, tenant: Tenant, local_qid: int) -> MatchFeed:
        feed = self._feeds.get((tenant.name, local_qid))
        if feed is None:
            raise HTTPError(404, f"unknown query id {local_qid}")
        return feed

    def _poll_matches(self, tenant: Tenant, local_qid: int):
        feed = self._feed_of(tenant, local_qid)
        events = feed.take_pending()
        return json_response(200, {
            "query_id": local_qid,
            "matches": events,
            "lagged": feed.lagged,
            "active": not feed.closed,
        })

    async def _stream_matches(
        self, tenant: Tenant, local_qid: int, request: Request, writer
    ):
        feed = self._feed_of(tenant, local_qid)
        limit = None
        if "limit" in request.params:
            limit = self._int_segment(request.params["limit"], "limit")
            if limit < 1:
                raise HTTPError(400, "limit must be >= 1")
        subscriber = feed.subscribe()
        chunked = ChunkedWriter(writer)
        await chunked.start()
        sent = 0
        try:
            while limit is None or sent < limit:
                # One wake-up takes everything queued and costs one send.
                events = await subscriber.take(
                    None if limit is None else limit - sent, timeout=1.0
                )
                if not events:
                    if writer.is_closing():
                        break
                    continue
                closed = events[-1] is FEED_CLOSED
                if closed:
                    events.pop()
                payloads = []
                lag = subscriber.unreported_lag()
                if lag:
                    subscriber.reported_lag = subscriber.lagged
                    payloads.append({"event": "lagged", "dropped": lag})
                payloads.extend({"event": "match", **e} for e in events)
                sent += len(events)
                if closed:
                    payloads.append({"event": "end"})
                elif sent == limit:
                    payloads.append({"event": "end", "reason": "limit"})
                await chunked.send_events(payloads)
                if closed:
                    break
            await chunked.finish()
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        finally:
            feed.unsubscribe(subscriber)
        return STREAMED

    async def _get_stream_matches(self, tenant: Tenant, stream_id: str):
        scoped = tenant.scope_stream(stream_id)
        index = tenant.session_index
        try:
            matches = await self._dispatch(
                index, lambda s: s.matches_for(scoped)
            )
        except UnknownStreamError as exc:
            raise HTTPError(
                404, f"unknown stream {stream_id!r}", code="unknown_stream"
            ) from exc
        own_qids = {
            session_qid: local_qid
            for local_qid, session_qid in tenant.queries.items()
        }
        return json_response(200, {
            "stream": stream_id,
            "retained": [
                match_event(own_qids[m.query_id], stream_id, m)
                for m in matches
                if m.query_id in own_qids
            ],
        })

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    async def _post_frames(
        self, tenant: Tenant, stream_id: str, request: Request
    ):
        frames = self._parse_ndjson_frames(request.body)
        if not frames:
            raise HTTPError(400, "the NDJSON body carried no frames")
        scoped = tenant.scope_stream(stream_id)
        tenant.charge_stream(stream_id)
        try:
            tenant.charge_frames(len(frames))
        except HTTPError:
            self._counters["throttled"] += 1
            raise
        index = tenant.session_index
        handles = list(self._handles[index].items())

        def ingest(session):
            for frame in frames:
                session.ingest(scoped, frame)
            return _take_matches(session, handles, flush=False)

        # Late and repeated frames are dropped and counted by the shards
        # (``dropped_late`` / ``duplicates``) on every backend.  The same
        # hop takes the matches the batch completed; they are published
        # before the 200.  A partial router batch stays buffered, so the
        # session is dirty for the pump's flush.  A failed collection
        # does not fail the POST: its frames were accepted, and the pump
        # delivers what it left behind.
        self._ingest_dirty[index] = True
        await self._collect(index, ingest)
        tenant.frames_ingested += len(frames)
        self._counters["frames_ingested"] += len(frames)
        return json_response(200, {
            "stream": stream_id,
            "ingested": len(frames),
        })

    @staticmethod
    def _parse_ndjson_frames(body: bytes) -> List[FrameObservation]:
        frames: List[FrameObservation] = []
        for lineno, raw in enumerate(body.split(b"\n"), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:
                raise HTTPError(
                    400, f"malformed NDJSON at line {lineno}: {exc}"
                ) from exc
            if not isinstance(payload, dict) or "frame_id" not in payload:
                raise HTTPError(
                    400,
                    f'line {lineno}: each frame needs "frame_id" and '
                    f'"objects"',
                )
            objects = payload.get("objects", {})
            if not isinstance(payload["frame_id"], int) or not isinstance(
                objects, dict
            ):
                raise HTTPError(
                    400,
                    f'line {lineno}: "frame_id" must be an integer and '
                    f'"objects" an {{object_id: class}} map',
                )
            try:
                labels = {
                    int(object_id): str(label)
                    for object_id, label in objects.items()
                }
            except ValueError as exc:
                raise HTTPError(
                    400, f"line {lineno}: object ids must be integers"
                ) from exc
            frames.append(FrameObservation(payload["frame_id"], labels))
        return frames

    async def _post_flush(self, tenant: Tenant):
        index = tenant.session_index
        # The sweep both flushes (barrier) and delivers, so a poll right
        # after a 200 here sees every match of every frame already posted.
        await self._distribute(index, force_flush=True)
        return json_response(200, {"flushed": True, "session": index})

    # ------------------------------------------------------------------
    # Health, stats, admin
    # ------------------------------------------------------------------
    async def _session_health(self, index: int) -> Dict[str, Dict]:
        def probe(session):
            return session.stream_health()

        return await self._dispatch(index, probe)

    async def _get_healthz(self):
        streams: Dict[str, Dict] = {}
        degraded = False
        for index in range(self._num_sessions):
            try:
                health = await self._session_health(index)
            except Exception as exc:
                degraded = True
                streams[f"session-{index}"] = {
                    "state": "unreachable", "reason": repr(exc),
                }
                continue
            for scoped, record in health.items():
                streams[scoped] = record
                if record.get("state", "healthy") != "healthy":
                    degraded = True
        return json_response(200, {
            "status": "degraded" if degraded else "ok",
            "sessions": self._num_sessions,
            "backend": self._backend,
            "streams": streams,
        })

    async def _get_stats(self, request: Request):
        key = self._api_key(request)
        if self._registry.is_admin(key):
            tenants = list(self._registry)
            indices = list(range(self._num_sessions))
        else:
            tenant = self._registry.authenticate(key)
            tenants = [tenant]
            indices = [tenant.session_index]
        names = {t.name for t in tenants}
        sessions = {}
        for index in indices:
            def probe(session):
                return {
                    "stats": session.stats(),
                    "stream_health": session.stream_health(),
                }
            try:
                sessions[str(index)] = await self._dispatch(index, probe)
            except Exception as exc:
                sessions[str(index)] = {"error": repr(exc)}
        return json_response(200, {
            "gateway": dict(self._counters),
            "tenants": {t.name: t.usage() for t in tenants},
            "feeds": {
                f"{name}/{local_qid}": feed.stats()
                for (name, local_qid), feed in self._feeds.items()
                if name in names
            },
            "sessions": sessions,
        })

    async def _post_repair(self, request: Request):
        if not self._registry.is_admin(self._api_key(request)):
            raise HTTPError(
                403, "the repair endpoint requires the admin key",
                code="admin_required",
            )
        revived: List[str] = []
        for index in range(self._num_sessions):
            revived.extend(
                await self._dispatch(index, lambda s: s.repair())
            )
        return json_response(200, {"revived": sorted(revived)})


class GatewayRunner:
    """Run a :class:`Gateway` on a background event-loop thread.

    The synchronous harness for everything that is not itself async: the
    load generator, the examples and the test-suite drive the gateway
    through this.  ``start()`` blocks until the port is bound; ``close()``
    stops the gateway (final delivery sweep included) and joins the
    thread.
    """

    def __init__(self, gateway: Gateway):
        self.gateway = gateway
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    def start(self) -> "GatewayRunner":
        self._thread = threading.Thread(
            target=self._run, name="gateway-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._failure is not None:
            failure, self._failure = self._failure, None
            self._thread.join()
            raise failure
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.gateway.start())
        except BaseException as exc:
            self._failure = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            loop.run_until_complete(self.gateway.stop())
        finally:
            loop.close()

    @property
    def port(self) -> int:
        return self.gateway.port

    @property
    def host(self) -> str:
        return self.gateway.host

    def close(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()

    def __enter__(self) -> "GatewayRunner":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
