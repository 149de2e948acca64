"""Concurrency-contract rules.

The service tier owns ``Session`` objects through ``SessionDispatcher``
only — one thread per session, all calls funneled through ``submit``.
The worker pool must never block forever on a queue (the watchdog can't
preempt a blocked ``get``), threads and processes must be joined, and
``except:`` is banned outright (it swallows ``KeyboardInterrupt`` and
hides worker death from the supervisor).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.engine import FileContext, Rule, Violation

#: Session surface: calling any of these on a session object outside a
#: dispatcher submission races the dispatcher thread.
SESSION_METHODS = frozenset({
    "ingest", "ingest_batch", "query", "register_query", "poll",
    "checkpoint", "restore", "export_state", "import_state", "stats",
    "close", "advance", "results", "drain",
})


class SessionDispatchRule(Rule):
    """CONC-SESSION-DISPATCH: serve code talks to sessions via submit()."""

    rule_id = "CONC-SESSION-DISPATCH"
    title = "serve/* must reach Session only through SessionDispatcher"
    rationale = (
        "SessionDispatcher serializes all access to a Session on one "
        "thread; a direct method call from the gateway races it and "
        "corrupts per-session state"
    )

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                name = ctx.terminal_name(receiver)
                if (name is not None and "session" in name.lower()
                        and node.func.attr in SESSION_METHODS
                        and not self._inside_dispatch_closure(ctx, node, receiver)):
                    yield self.violation(
                        ctx, node,
                        f"direct Session.{node.func.attr}() call outside a "
                        "SessionDispatcher submission; wrap it in a closure "
                        "passed to dispatcher.submit(...)",
                    )
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Session"
                    and not self._is_dispatcher_factory(ctx, node)):
                yield self.violation(
                    ctx, node,
                    "Session constructed outside a SessionDispatcher "
                    "factory; pass a factory lambda to SessionDispatcher "
                    "so the dispatcher thread owns the object",
                )

    # -- the two sanctioned shapes -------------------------------------
    @staticmethod
    def _inside_dispatch_closure(ctx: FileContext, node: ast.AST,
                                 receiver: ast.AST) -> bool:
        """True when the receiver is the ``session`` parameter of an
        enclosing function/lambda — the dispatcher-submission idiom
        (``def collect(session): ...`` handed to ``submit``)."""
        if not (isinstance(receiver, ast.Name) and receiver.id == "session"):
            return False
        for fn in ctx.enclosing_functions(node):
            args = fn.args
            names = [a.arg for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )]
            if "session" in names:
                return True
        return False

    @staticmethod
    def _is_dispatcher_factory(ctx: FileContext, node: ast.AST) -> bool:
        """True when the ``Session(...)`` call sits inside a lambda/def
        that is itself an argument to a ``SessionDispatcher(...)`` call."""
        for fn in ctx.enclosing_functions(node):
            parent = ctx.parent(fn)
            if (isinstance(parent, ast.Call)
                    and ctx.terminal_name(parent.func) == "SessionDispatcher"):
                return True
        return False


class BareExceptRule(Rule):
    """CONC-BARE-EXCEPT: no bare ``except:`` clauses."""

    rule_id = "CONC-BARE-EXCEPT"
    title = "no bare except clauses"
    rationale = (
        "bare except swallows KeyboardInterrupt and SystemExit, which "
        "hides worker death from the pool supervisor and makes Ctrl-C "
        "hang the service tier"
    )

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    ctx, node,
                    "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                    "catch Exception (or something narrower) instead",
                )


class ThreadJoinRule(Rule):
    """CONC-THREAD-JOIN: constructed threads/processes must be joined."""

    rule_id = "CONC-THREAD-JOIN"
    title = "Thread/Process construction requires a matching join"
    rationale = (
        "an unjoined thread or process leaks past shutdown, keeps "
        "daemonless interpreters alive and hides crashed workers; every "
        "construction site must have a reachable join"
    )

    _CTORS = frozenset({"Thread", "Process"})

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        joined = self._joined_names(ctx)
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and ctx.terminal_name(node.func) in self._CTORS):
                continue
            binding = self._binding_name(ctx, node)
            if binding is not None and binding in joined:
                continue
            yield self.violation(
                ctx, node,
                f"{ctx.terminal_name(node.func)}(...) constructed here is "
                "never joined in this module; join it (or baseline the "
                "fire-and-forget with a reason)",
            )

    # -- who gets joined -----------------------------------------------
    @staticmethod
    def _joined_names(ctx: FileContext) -> Set[str]:
        """Terminal names whose ``.join()`` is called somewhere in the
        module, plus loop variables' source collections
        (``for t in threads: t.join()`` credits ``threads``)."""
        joined: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                name = ctx.terminal_name(node.func.value)
                if name is not None:
                    joined.add(name)
        # Credit collections iterated by join loops.
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, ast.For):
                continue
            var = loop.target.id if isinstance(loop.target, ast.Name) else None
            if var is None or var not in joined:
                continue
            src = ctx.terminal_name(loop.iter)
            if src is not None:
                joined.add(src)
        return joined

    @staticmethod
    def _binding_name(ctx: FileContext, node: ast.AST) -> Optional[str]:
        """The name the constructed Thread/Process is bound to: a direct
        assignment target, an append receiver, or (through a listcomp)
        the assigned list."""
        parent = ctx.parent(node)
        # threads = [Thread(...) for ...]
        while isinstance(parent, (ast.ListComp, ast.GeneratorExp, ast.comprehension)):
            parent = ctx.parent(parent)
        if isinstance(parent, ast.Assign) and parent.targets:
            return ctx.terminal_name(parent.targets[0])
        if isinstance(parent, (ast.AnnAssign, ast.AugAssign)):
            return ctx.terminal_name(parent.target)
        # pool.append(Thread(...))
        if (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Attribute)
                and parent.func.attr == "append"):
            return ctx.terminal_name(parent.func.value)
        return None


class QueueTimeoutRule(Rule):
    """CONC-QUEUE-TIMEOUT: blocking queue ops in pool.py carry timeouts."""

    rule_id = "CONC-QUEUE-TIMEOUT"
    title = "pool queue get()/put() must pass a timeout"
    rationale = (
        "a worker blocked forever on queue.get() cannot notice that its "
        "parent died or that it should shut down; every blocking queue op "
        "in the pool must time out and re-check"
    )

    _OPS = frozenset({"get", "put"})

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        check_puts = self._constructs_bounded_queue(ctx)
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._OPS):
                continue
            if node.func.attr == "put" and not check_puts:
                # put() only blocks on a bounded queue; a module that
                # never constructs one cannot have a blocking put.
                continue
            # dict.get(key[, default]) / one-arg put_nowait-style calls:
            # queue.get() takes zero positional args, queue.put(item)
            # exactly one — dict .get always has a positional key, so a
            # positional arg on .get means it isn't a queue op.
            if node.func.attr == "get" and node.args:
                continue
            keywords = {kw.arg for kw in node.keywords if kw.arg}
            if "timeout" in keywords:
                continue
            if "block" in keywords:
                # block=False is non-blocking; block=True without timeout
                # is the bug — flag only the latter when it's literal.
                block = next(kw.value for kw in node.keywords if kw.arg == "block")
                if isinstance(block, ast.Constant) and block.value is False:
                    continue
            yield self.violation(
                ctx, node,
                f"blocking .{node.func.attr}() without timeout= in the "
                "worker pool; pass a timeout and re-check shutdown/"
                "parent liveness on expiry",
            )

    @staticmethod
    def _constructs_bounded_queue(ctx: FileContext) -> bool:
        """True when the module constructs any bounded queue — only then
        can a ``.put()`` block."""
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and ctx.terminal_name(node.func) in (
                        "Queue", "JoinableQueue", "LifoQueue", "PriorityQueue")):
                continue
            if node.args:
                return True
            if any(kw.arg == "maxsize" for kw in node.keywords):
                return True
        return False


CONCURRENCY_RULES: List[Rule] = [
    SessionDispatchRule(), BareExceptRule(), ThreadJoinRule(), QueueTimeoutRule(),
]
