"""Match delivery with explicit backpressure: per-query feeds, bounded.

Every registered (tenant, query) pair owns one :class:`MatchFeed`.  The
gateway takes freshly produced matches out of the session (via
:meth:`QueryHandle.take_matches`) on the same dispatcher hop that
ingests a frame batch, and :meth:`publishes <MatchFeed.publish>` them
here before the batch's POST is answered.  A background pump sweeps the
rest: matches of partial batches it flushes, and whatever a failed
collection left behind.  Two consumption paths hang off a feed:

* **polling** — ``GET /v1/queries/{id}/matches`` takes the feed's pending
  buffer.  The buffer is bounded (``poll_buffer`` events); a tenant that
  stops polling loses the *oldest* events first and the feed counts every
  drop in ``lagged`` — memory is bounded, silently losing data is not an
  option, so the loss is reported on the next poll.
* **streaming** — ``GET /v1/queries/{id}/stream`` attaches a
  :class:`Subscriber` with its own bounded ``asyncio.Queue``.  A slow
  consumer's queue fills; new events then *drop the oldest* queued event
  rather than growing without bound, and the subscriber's ``lagged``
  counter tells the client exactly how many events it missed (delivered
  as an explicit ``lagged`` notice in the stream).

Everything in this module is mutated from the gateway's event loop only —
no locks needed.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional

#: Queue sentinel meaning "the feed is closed" (query cancelled or the
#: gateway is shutting down).
FEED_CLOSED = object()


class Subscriber:
    """One streaming consumer of a feed, with a bounded event queue."""

    __slots__ = ("queue", "lagged", "reported_lag", "closed")

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("subscriber queue size must be >= 1")
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize)
        #: Events dropped (oldest-first) because this consumer was slow.
        self.lagged = 0
        #: How much of ``lagged`` has been reported to the client already.
        self.reported_lag = 0
        self.closed = False

    def offer(self, event: Dict) -> None:
        """Enqueue an event, dropping the oldest on overflow (never blocks)."""
        if self.closed:
            return
        while self.queue.full():
            dropped = self.queue.get_nowait()
            if dropped is not FEED_CLOSED:
                self.lagged += 1
        self.queue.put_nowait(event)

    def offer_close(self) -> None:
        """Enqueue the close sentinel, evicting an event if the queue is
        full — the sentinel must always fit, or a full slow consumer
        would never learn the feed ended."""
        if self.closed:
            return
        while self.queue.full():
            dropped = self.queue.get_nowait()
            if dropped is not FEED_CLOSED:
                self.lagged += 1
        self.queue.put_nowait(FEED_CLOSED)
        self.closed = True

    def unreported_lag(self) -> int:
        """Drops not yet surfaced to the client (caller marks them reported)."""
        return self.lagged - self.reported_lag

    async def take(self, limit: Optional[int], timeout: float) -> List:
        """Every queued event, at most ``limit``; ``[]`` after ``timeout``.

        Waits only while the queue is empty; the rest is taken without
        yielding to the loop.  :data:`FEED_CLOSED` is always the last
        event ever queued, so a batch holding it ends with it.  Every
        drop counted in ``lagged`` by the time this returns was of an
        event older than the whole batch.
        """
        queue = self.queue
        taken: List = []
        if queue.empty():
            try:
                taken.append(await asyncio.wait_for(queue.get(), timeout))
            except asyncio.TimeoutError:
                return taken
        while not queue.empty() and (limit is None or len(taken) < limit):
            taken.append(queue.get_nowait())
        return taken


class MatchFeed:
    """Delivery state of one registered (tenant, query) pair."""

    def __init__(self, poll_buffer: int, subscriber_queue: int):
        if poll_buffer < 1:
            raise ValueError("poll_buffer must be >= 1")
        self._poll_buffer = poll_buffer
        self._subscriber_queue = subscriber_queue
        self._pending: Deque[Dict] = deque()
        #: Events dropped from the pending buffer because nobody polled.
        self.lagged = 0
        #: Lifetime count of events published into this feed.
        self.published = 0
        self.closed = False
        self._subscribers: List[Subscriber] = []

    # -- producer side (the gateway) ------------------------------------
    def publish(self, event: Dict) -> None:
        """Deliver one match event to the poll buffer and every subscriber."""
        if self.closed:
            return
        self.published += 1
        if len(self._pending) >= self._poll_buffer:
            self._pending.popleft()
            self.lagged += 1
        self._pending.append(event)
        for subscriber in self._subscribers:
            subscriber.offer(event)

    def close(self) -> None:
        """Close the feed: subscribers see :data:`FEED_CLOSED` after the
        events already queued; the poll buffer stays readable."""
        if self.closed:
            return
        self.closed = True
        for subscriber in self._subscribers:
            if not subscriber.closed:
                subscriber.offer_close()

    # -- polling consumer -----------------------------------------------
    def take_pending(self) -> List[Dict]:
        """Hand over (and clear) the poll buffer."""
        taken = list(self._pending)
        self._pending.clear()
        return taken

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- streaming consumers --------------------------------------------
    def subscribe(self, maxsize: Optional[int] = None) -> Subscriber:
        """Attach a streaming consumer.

        The new subscriber first catches up on whatever is still pending
        in the poll buffer (left in place for pollers), then receives
        live events; without the catch-up, a streamer attaching after a
        flush would silently skip everything already delivered.
        """
        subscriber = Subscriber(maxsize or self._subscriber_queue)
        for event in self._pending:
            subscriber.offer(event)
        if self.closed:
            subscriber.offer_close()
        else:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        subscriber.closed = True
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def stats(self) -> Dict:
        return {
            "published": self.published,
            "pending": len(self._pending),
            "poll_lagged": self.lagged,
            "subscribers": len(self._subscribers),
            "subscriber_lagged": sum(s.lagged for s in self._subscribers),
            "closed": self.closed,
        }
