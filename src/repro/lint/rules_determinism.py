"""Determinism rules.

The kernel (``repro/core``), the query layer (``repro/query``) and the
checkpoint codec promise byte-identical output for identical input —
that is what the differential harness, the cross-backend restore matrix
and crash replay all stand on.  These rules prove the classic sources of
nondeterminism absent: wall clocks and entropy (DET-ENTROPY), identity-
based ordering (DET-ID-ORDER), unordered set iteration feeding
serialized or reported output (DET-SET-ORDER), and float arithmetic on
frame identifiers (DET-FLOAT-FRAME).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileContext, Rule, Violation, match_path

#: Call targets that read wall clocks or entropy pools.  Any of these in
#: a deterministic scope makes two identical runs diverge.
BANNED_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbits",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: Module prefixes whose *any* use is entropy in a deterministic scope
#: (even seeded: the kernel must not depend on RNG state at all).
BANNED_PREFIXES = ("random.", "np.random.", "numpy.random.")


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> canonical dotted origin, from import statements."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _canonical(ctx: FileContext, node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted name of an expression with import aliases resolved."""
    dotted = ctx.dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


def _in_serializer(ctx: FileContext, node: ast.AST, names: Tuple[str, ...]) -> bool:
    """True when ``node`` sits inside a serializer-function body."""
    return any(
        isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in names
        for fn in ctx.enclosing_functions(node)
    )


class EntropyRule(Rule):
    """DET-ENTROPY: no clocks or entropy in deterministic scopes."""

    rule_id = "DET-ENTROPY"
    title = "no wall clocks / RNG / entropy in deterministic code"
    rationale = (
        "core, query and the checkpoint codec promise byte-identical "
        "output for identical input; clock or entropy reads break crash "
        "replay and cross-backend checkpoint identity"
    )

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        paths = tuple(options.get("deterministic_paths", ()))
        serializers = tuple(options.get("serializer_functions", ()))
        whole_file = match_path(ctx.relpath, paths) if paths else False
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Call, ast.Attribute, ast.Name)):
                continue
            if not whole_file and not _in_serializer(ctx, node, serializers):
                continue
            target = node.func if isinstance(node, ast.Call) else node
            dotted = _canonical(ctx, target, aliases)
            if dotted is None:
                continue
            hit = None
            if isinstance(node, ast.Call):
                if dotted in BANNED_CALLS:
                    hit = dotted
            elif dotted in BANNED_CALLS:
                # A clock taken by reference (``clock = time.perf_counter``)
                # is later called through a name the call check cannot
                # resolve.
                parent = ctx.parent(node)
                if not (isinstance(parent, ast.Call) and parent.func is node):
                    hit = dotted
            elif isinstance(node, ast.Attribute) and (
                dotted.startswith(BANNED_PREFIXES) or dotted == "random"
            ):
                # Flag the innermost attribute only (random.Random().x
                # would otherwise double-report through parent walks).
                parent = ctx.parent(node)
                if not (isinstance(parent, ast.Attribute)):
                    hit = dotted
            if hit is not None:
                yield self.violation(
                    ctx, node,
                    f"'{hit}' reads a clock or entropy source inside a "
                    "deterministic scope; derive the value from the frame "
                    "stream or configuration instead",
                )


class IdOrderRule(Rule):
    """DET-ID-ORDER: no builtin id() in deterministic scopes."""

    rule_id = "DET-ID-ORDER"
    title = "no id()-derived values in deterministic code"
    rationale = (
        "CPython object addresses differ between runs and processes; any "
        "id()-keyed ordering or identity that reaches serialized state "
        "diverges on restore"
    )

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        paths = tuple(options.get("deterministic_paths", ()))
        serializers = tuple(options.get("serializer_functions", ()))
        whole_file = match_path(ctx.relpath, paths) if paths else False
        shadowed = self._shadowed_scopes(ctx)
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                continue
            if not whole_file and not _in_serializer(ctx, node, serializers):
                continue
            if any(fn in shadowed for fn in ctx.enclosing_functions(node)):
                continue
            yield self.violation(
                ctx, node,
                "builtin id() is process-local and varies between runs; "
                "use an interned id, a serial counter or a sort key derived "
                "from the data itself",
            )

    @staticmethod
    def _shadowed_scopes(ctx: FileContext) -> Set[ast.AST]:
        """Function nodes that rebind the name ``id`` (param or local)."""
        shadowed: Set[ast.AST] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (
                    list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                )]
                if args.vararg:
                    names.append(args.vararg.arg)
                if args.kwarg:
                    names.append(args.kwarg.arg)
                if "id" in names:
                    shadowed.add(node)
                    continue
                for child in ast.walk(node):
                    if (isinstance(child, ast.Name) and child.id == "id"
                            and isinstance(child.ctx, ast.Store)):
                        shadowed.add(node)
                        break
        return shadowed


#: Consumers for which iteration order lands in the output.  Order-
#: insensitive folds (sum, max, min, len, any, all) are deliberately
#: absent.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})

#: Set-producing method names (heuristic: also matched on non-set
#: receivers; a reasoned suppression covers the rare false positive).
_SET_METHODS = frozenset({
    "difference", "union", "intersection", "symmetric_difference",
})


class SetOrderRule(Rule):
    """DET-SET-ORDER: sets feeding serialized output must be sorted."""

    rule_id = "DET-SET-ORDER"
    title = "set iteration on serialization/report paths must be sorted"
    rationale = (
        "set iteration order depends on hashes and insertion history "
        "(and PYTHONHASHSEED for strings); dict views are exempt because "
        "insertion-order determinism is part of this repo's contract"
    )

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        serializers = tuple(options.get("serializer_functions", ()))
        class_set_attrs = self._class_set_attrs(ctx)
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name not in serializers:
                continue
            owner = ctx.enclosing_class(fn)
            attrs = class_set_attrs.get(owner, set()) if owner else set()
            local_sets = self._local_set_names(fn)
            for node in ast.walk(fn):
                expr = self._consumed_iterable(ctx, node)
                if expr is None:
                    continue
                if self._sorted_ancestor(ctx, expr):
                    # for x in sorted(s) / sorted(f(x) for x in s): the
                    # consumer's output is ordered regardless of hash order.
                    continue
                if self._is_set_expr(expr, local_sets, attrs):
                    yield self.violation(
                        ctx, expr,
                        "iterating a set here feeds serialized or reported "
                        "output in hash order; wrap it in sorted(...)",
                    )

    # -- consumption contexts ------------------------------------------
    @staticmethod
    def _sorted_ancestor(ctx: FileContext, node: ast.AST) -> bool:
        """True when an enclosing expression sorts the result anyway."""
        for anc in ctx.ancestors(node):
            if isinstance(anc, ast.stmt):
                break
            if (isinstance(anc, ast.Call) and isinstance(anc.func, ast.Name)
                    and anc.func.id == "sorted"):
                return True
        return False

    @staticmethod
    def _consumed_iterable(ctx: FileContext, node: ast.AST) -> Optional[ast.AST]:
        """The iterable expression if ``node`` consumes one order-sensitively."""
        if isinstance(node, ast.For):
            return node.iter
        if isinstance(node, ast.comprehension):
            return node.iter
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and \
                    node.func.id in _ORDER_SENSITIVE_CALLS and node.args:
                return node.args[0]
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "join" and node.args:
                return node.args[0]
        return None

    # -- set-typed detection -------------------------------------------
    @classmethod
    def _is_set_expr(cls, expr: ast.AST, local_sets: Set[str],
                     self_attrs: Set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and \
                    expr.func.id in ("set", "frozenset"):
                return True
            if isinstance(expr.func, ast.Attribute) and \
                    expr.func.attr in _SET_METHODS:
                return True
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            # a | b on two known sets
            return (cls._is_set_expr(expr.left, local_sets, self_attrs)
                    or cls._is_set_expr(expr.right, local_sets, self_attrs))
        if isinstance(expr, ast.Name):
            return expr.id in local_sets
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return expr.attr in self_attrs
        return False

    @classmethod
    def _local_set_names(cls, fn: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                if cls._is_set_expr(node.value, names, set()):
                    names.add(node.targets[0].id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if cls._annotation_is_set(node.annotation):
                    names.add(node.target.id)
        return names

    @classmethod
    def _class_set_attrs(cls, ctx: FileContext) -> Dict[ast.ClassDef, Set[str]]:
        """Per class: attribute names assigned or annotated as sets."""
        result: Dict[ast.ClassDef, Set[str]] = {}
        for klass in ast.walk(ctx.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            attrs: Set[str] = set()
            for node in ast.walk(klass):
                target = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                    if cls._annotation_is_set(node.annotation):
                        value = None
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == "self":
                            attrs.add(target.attr)
                        continue
                    value = node.value
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and value is not None
                        and cls._is_set_expr(value, set(), attrs)):
                    attrs.add(target.attr)
            result[klass] = attrs
        return result

    @staticmethod
    def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        base = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None
        )
        return name in ("set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet")


#: Names that denote single frame identifiers (not frame *counts*, which
#: legitimately divide into float rates in bench reports).
_FRAME_ID_NAMES = frozenset({
    "frame_id", "fid", "first_frame", "last_frame", "current_frame",
    "oldest_frame", "first_frame_id", "last_frame_id", "current_frame_id",
    "oldest_frame_id",
})


class FloatFrameRule(Rule):
    """DET-FLOAT-FRAME: frame-identifier arithmetic must stay integral."""

    rule_id = "DET-FLOAT-FRAME"
    title = "no float arithmetic on frame identifiers"
    rationale = (
        "frame ids are exact integers throughout checkpoints, spans and "
        "the watermark logic; true division or float mixing introduces "
        "representation drift that breaks byte-identical restore"
    )

    def check(self, ctx: FileContext, options: Dict) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            operands = (node.left, node.right)
            frameish = any(self._is_frame_id(ctx, op) for op in operands)
            if not frameish:
                continue
            if isinstance(node.op, ast.Div):
                yield self.violation(
                    ctx, node,
                    "true division on a frame identifier produces a float; "
                    "use // (frame ids are exact integers end to end)",
                )
            elif isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)) and any(
                isinstance(op, ast.Constant) and isinstance(op.value, float)
                for op in operands
            ):
                yield self.violation(
                    ctx, node,
                    "mixing a float literal into frame-identifier arithmetic "
                    "makes the result a float; keep frame ids integral",
                )

    @staticmethod
    def _is_frame_id(ctx: FileContext, node: ast.AST) -> bool:
        name = ctx.terminal_name(node)
        return name in _FRAME_ID_NAMES


DETERMINISM_RULES: List[Rule] = [
    EntropyRule(), IdOrderRule(), SetOrderRule(), FloatFrameRule(),
]
