"""Unified session API: one facade over every serving architecture.

:class:`~repro.session.session.Session` is the recommended entry point of
the package: register queries (fluent builder, text, or ``CNFQuery``)
against live streams, collect matches per query or per stream, cancel
queries mid-stream, checkpoint and restore — on the sharded stream router
(``"inline"``: one-frame batches, evaluated synchronously; ``"router"``:
batched) or the multiprocess worker pool, selected by a constructor
argument and nothing else.
"""

from repro.query.builder import Q, QueryExpr
from repro.session.dispatch import DispatcherClosedError, SessionDispatcher
from repro.session.session import (
    QueryHandle,
    QueryLike,
    Session,
    UnknownStreamError,
)

__all__ = [
    "DispatcherClosedError",
    "Q",
    "QueryExpr",
    "QueryHandle",
    "QueryLike",
    "Session",
    "SessionDispatcher",
    "UnknownStreamError",
]
