"""The invariant linter's own test suite.

Three layers:

* fixture snippets per rule — each rule's hit, miss and suppression
  behaviour on a synthetic package tree whose relative paths match the
  default per-path scopes;
* engine behaviour — suppression grammar (reason required, stale
  detection), parse failures, exit codes, JSON shape;
* the self-check — the shipped ``src/repro`` tree lints clean, so a red
  CI lint job always means a new violation, never a flake.  Includes the
  acceptance-criteria demonstration: injecting a field into a real
  ``__init__`` without serializing it trips CKPT-DRIFT.
"""

from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.__main__ import main as lint_main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_tree(tmp_path, files, select=None):
    """Write ``{relpath: source}`` under a fresh root and lint it."""
    root = tmp_path / f"fixture{len(list(tmp_path.iterdir()))}"
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return run_lint(root, select=select)


def rules_hit(report):
    return [v.rule for v in report.violations]


# ---------------------------------------------------------------------------
# DET-ENTROPY
# ---------------------------------------------------------------------------
def test_entropy_hit_in_core(tmp_path):
    report = lint_tree(tmp_path, {
        "core/clock.py": "import time\n\ndef f():\n    return time.time()\n",
    })
    assert rules_hit(report) == ["DET-ENTROPY"]


def test_entropy_hit_via_from_import_alias(tmp_path):
    report = lint_tree(tmp_path, {
        "core/clock.py": "from time import time\n\ndef f():\n    return time()\n",
    })
    assert rules_hit(report) == ["DET-ENTROPY"]


def test_entropy_hit_random_module(tmp_path):
    report = lint_tree(tmp_path, {
        "query/rng.py": "import random\n\ndef f():\n    return random.random()\n",
    })
    assert "DET-ENTROPY" in rules_hit(report)


def test_entropy_miss_outside_deterministic_paths(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/clock.py": "import time\n\ndef f():\n    return time.time()\n",
    })
    assert "DET-ENTROPY" not in rules_hit(report)


def test_entropy_hit_in_serializer_body_anywhere(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/snap.py": (
            "import time\n\nclass S:\n"
            "    def export_state(self):\n"
            "        return {'at': time.time()}\n"
        ),
    })
    assert "DET-ENTROPY" in rules_hit(report)


def test_entropy_suppression_with_reason(tmp_path):
    report = lint_tree(tmp_path, {
        "core/clock.py": (
            "import time\n\ndef f():\n"
            "    return time.time()  "
            "# repro-lint: disable=DET-ENTROPY -- wall-clock latency metric, not state\n"
        ),
    })
    assert report.ok
    assert [v.rule for v in report.suppressed] == ["DET-ENTROPY"]
    assert report.suppressed[0].reason == "wall-clock latency metric, not state"


# ---------------------------------------------------------------------------
# DET-ID-ORDER
# ---------------------------------------------------------------------------
def test_id_order_hit(tmp_path):
    report = lint_tree(tmp_path, {
        "core/keys.py": "def f(x):\n    return id(x)\n",
    })
    assert rules_hit(report) == ["DET-ID-ORDER"]


def test_id_order_miss_when_shadowed(tmp_path):
    report = lint_tree(tmp_path, {
        "core/keys.py": "def f(id):\n    return id(3)\n",
    })
    assert report.ok


def test_id_order_miss_outside_scope(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/keys.py": "def f(x):\n    return id(x)\n",
    })
    assert report.ok


# ---------------------------------------------------------------------------
# DET-SET-ORDER
# ---------------------------------------------------------------------------
def test_set_order_hit_in_serializer(tmp_path):
    report = lint_tree(tmp_path, {
        "streaming/router.py": (
            "class R:\n"
            "    def to_dict(self):\n"
            "        return [x for x in {1, 2, 3}]\n"
        ),
    })
    assert rules_hit(report) == ["DET-SET-ORDER"]


def test_set_order_hit_on_self_attribute(tmp_path):
    report = lint_tree(tmp_path, {
        "streaming/router.py": (
            "class R:\n"
            "    def __init__(self):\n"
            "        self._pending = set()\n"
            "    def to_dict(self):\n"
            "        return list(self._pending)\n"
        ),
    })
    assert "DET-SET-ORDER" in rules_hit(report)


def test_set_order_miss_when_sorted(tmp_path):
    report = lint_tree(tmp_path, {
        "streaming/router.py": (
            "class R:\n"
            "    def __init__(self):\n"
            "        self._pending = set()\n"
            "    def to_dict(self):\n"
            "        return sorted(self._pending)\n"
        ),
    })
    assert report.ok


def test_set_order_miss_for_dict_views(tmp_path):
    # Dict insertion order is a contract in this repo; dict views are
    # deliberately exempt.
    report = lint_tree(tmp_path, {
        "streaming/router.py": (
            "class R:\n"
            "    def __init__(self):\n"
            "        self._d = {}\n"
            "    def to_dict(self):\n"
            "        return [k for k in self._d]\n"
        ),
    })
    assert report.ok


def test_set_order_miss_outside_serializers(tmp_path):
    report = lint_tree(tmp_path, {
        "streaming/router.py": (
            "def helper():\n"
            "    return [x for x in {1, 2, 3}]\n"
        ),
    })
    assert report.ok


# ---------------------------------------------------------------------------
# DET-FLOAT-FRAME
# ---------------------------------------------------------------------------
def test_float_frame_hit_true_division(tmp_path):
    report = lint_tree(tmp_path, {
        "core/frames.py": "def mid(frame_id):\n    return frame_id / 2\n",
    })
    assert rules_hit(report) == ["DET-FLOAT-FRAME"]


def test_float_frame_hit_float_literal(tmp_path):
    report = lint_tree(tmp_path, {
        "core/frames.py": "def scale(frame_id):\n    return frame_id * 0.5\n",
    })
    assert rules_hit(report) == ["DET-FLOAT-FRAME"]


def test_float_frame_miss_floor_division(tmp_path):
    report = lint_tree(tmp_path, {
        "core/frames.py": "def mid(frame_id):\n    return frame_id // 2\n",
    })
    assert report.ok


def test_float_frame_miss_frame_counts(tmp_path):
    # `frames` (a count) legitimately divides into float rates.
    report = lint_tree(tmp_path, {
        "streaming/bench.py": "def fps(frames, seconds):\n    return frames / seconds\n",
    })
    assert report.ok


# ---------------------------------------------------------------------------
# CKPT-PAIR
# ---------------------------------------------------------------------------
def test_ckpt_pair_hit_export_without_import(tmp_path):
    report = lint_tree(tmp_path, {
        "core/thing.py": (
            "class Thing:\n"
            "    def export_state(self):\n"
            "        return {}\n"
        ),
    })
    assert "CKPT-PAIR" in rules_hit(report)


def test_ckpt_pair_miss_when_complete(tmp_path):
    report = lint_tree(tmp_path, {
        "core/thing.py": (
            "class Thing:\n"
            "    def export_state(self):\n"
            "        return {}\n"
            "    def import_state(self, payload):\n"
            "        pass\n"
        ),
    })
    assert "CKPT-PAIR" not in rules_hit(report)


def test_ckpt_pair_miss_for_subclass_overriding_one_half(tmp_path):
    report = lint_tree(tmp_path, {
        "core/thing.py": (
            "from core.base import Base\n\n"
            "class Fast(Base):\n"
            "    def _import_impl(self, payload):\n"
            "        pass\n"
        ),
    })
    assert "CKPT-PAIR" not in rules_hit(report)


# ---------------------------------------------------------------------------
# CKPT-DRIFT
# ---------------------------------------------------------------------------
DRIFTY = (
    "class Thing:\n"
    "    def __init__(self):\n"
    "        self._kept = 1\n"
    "        self._forgotten = 2\n"
    "    def export_state(self):\n"
    "        return {'kept': self._kept}\n"
    "    def import_state(self, payload):\n"
    "        self._kept = payload['kept']\n"
)


def test_ckpt_drift_hit(tmp_path):
    report = lint_tree(tmp_path, {"core/thing.py": DRIFTY})
    drift = [v for v in report.violations if v.rule == "CKPT-DRIFT"]
    assert len(drift) == 1
    assert "_forgotten" in drift[0].message


def test_ckpt_drift_transitive_helper_credit(tmp_path):
    report = lint_tree(tmp_path, {
        "core/thing.py": (
            "class Thing:\n"
            "    def __init__(self):\n"
            "        self._deep = 1\n"
            "    def export_state(self):\n"
            "        return self._helper()\n"
            "    def _helper(self):\n"
            "        return {'deep': self._deep}\n"
            "    def import_state(self, payload):\n"
            "        self._deep = payload['deep']\n"
        ),
    })
    assert "CKPT-DRIFT" not in rules_hit(report)


def test_ckpt_drift_suppression(tmp_path):
    source = DRIFTY.replace(
        "self._forgotten = 2",
        "self._forgotten = 2  "
        "# repro-lint: disable=CKPT-DRIFT -- derived cache, rebuilt lazily",
    )
    report = lint_tree(tmp_path, {"core/thing.py": source})
    assert report.ok
    assert [v.rule for v in report.suppressed] == ["CKPT-DRIFT"]


def test_ckpt_drift_catches_injected_field_in_real_generator(tmp_path):
    """Acceptance criteria: a field added to the real MCOSGenerator
    __init__ without serializer support is caught by construction."""
    source = (REPO_SRC / "core" / "base.py").read_text(encoding="utf-8")
    marker = "self._last_frame_id: Optional[int] = None"
    assert marker in source
    mutated = source.replace(
        marker, marker + "\n        self._injected_unserialized = 0"
    )
    target = tmp_path / "fixture" / "core" / "base.py"
    target.parent.mkdir(parents=True)
    target.write_text(mutated, encoding="utf-8")
    report = run_lint(tmp_path / "fixture", select=["CKPT-DRIFT"])
    assert any(
        v.rule == "CKPT-DRIFT" and "_injected_unserialized" in v.message
        for v in report.violations
    )


# ---------------------------------------------------------------------------
# CONC-SESSION-DISPATCH
# ---------------------------------------------------------------------------
def test_session_dispatch_hit_direct_call(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/gateway.py": (
            "class G:\n"
            "    def handle(self, frame):\n"
            "        return self.session.ingest(frame)\n"
        ),
    })
    assert rules_hit(report) == ["CONC-SESSION-DISPATCH"]


def test_session_dispatch_miss_inside_submission_closure(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/gateway.py": (
            "class G:\n"
            "    def handle(self, frame):\n"
            "        def ingest(session):\n"
            "            return session.ingest(frame)\n"
            "        return self.dispatcher.submit(ingest)\n"
        ),
    })
    assert report.ok


def test_session_dispatch_ctor_hit_and_factory_miss(tmp_path):
    hit = lint_tree(tmp_path, {
        "serve/a.py": "def make(backend):\n    return Session(backend)\n",
    })
    assert rules_hit(hit) == ["CONC-SESSION-DISPATCH"]
    miss = lint_tree(tmp_path, {
        "serve/b.py": (
            "def make(backend):\n"
            "    return SessionDispatcher(lambda: Session(backend))\n"
        ),
    })
    assert miss.ok


def test_session_dispatch_miss_outside_serve(tmp_path):
    report = lint_tree(tmp_path, {
        "streaming/x.py": (
            "class G:\n"
            "    def handle(self, frame):\n"
            "        return self.session.ingest(frame)\n"
        ),
    })
    assert report.ok


# ---------------------------------------------------------------------------
# CONC-BARE-EXCEPT
# ---------------------------------------------------------------------------
def test_bare_except_hit_and_miss(tmp_path):
    hit = lint_tree(tmp_path, {
        "serve/h.py": "try:\n    pass\nexcept:\n    pass\n",
    })
    assert rules_hit(hit) == ["CONC-BARE-EXCEPT"]
    miss = lint_tree(tmp_path, {
        "serve/h.py": "try:\n    pass\nexcept Exception:\n    pass\n",
    })
    assert miss.ok


# ---------------------------------------------------------------------------
# CONC-THREAD-JOIN
# ---------------------------------------------------------------------------
def test_thread_join_hit_unjoined(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/w.py": (
            "import threading\n\n"
            "def go(fn):\n"
            "    t = threading.Thread(target=fn)\n"
            "    t.start()\n"
        ),
    })
    assert rules_hit(report) == ["CONC-THREAD-JOIN"]


def test_thread_join_miss_when_joined(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/w.py": (
            "import threading\n\n"
            "def go(fn):\n"
            "    t = threading.Thread(target=fn)\n"
            "    t.start()\n"
            "    t.join()\n"
        ),
    })
    assert report.ok


def test_thread_join_miss_listcomp_join_loop(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/w.py": (
            "import threading\n\n"
            "def go(fns):\n"
            "    threads = [threading.Thread(target=f) for f in fns]\n"
            "    for t in threads:\n"
            "        t.start()\n"
            "    for t in threads:\n"
            "        t.join()\n"
        ),
    })
    assert report.ok


def test_thread_join_suppression(tmp_path):
    report = lint_tree(tmp_path, {
        "serve/w.py": (
            "import threading\n\n"
            "def go(fn):\n"
            "    t = threading.Thread(target=fn, daemon=True)  "
            "# repro-lint: disable=CONC-THREAD-JOIN -- daemon heartbeat, dies with process\n"
            "    t.start()\n"
        ),
    })
    assert report.ok
    assert [v.rule for v in report.suppressed] == ["CONC-THREAD-JOIN"]


# ---------------------------------------------------------------------------
# CONC-QUEUE-TIMEOUT
# ---------------------------------------------------------------------------
def test_queue_timeout_hit_blocking_get(tmp_path):
    report = lint_tree(tmp_path, {
        "streaming/pool.py": (
            "import queue\n\n"
            "def worker(tasks):\n"
            "    return tasks.get()\n"
        ),
    })
    assert rules_hit(report) == ["CONC-QUEUE-TIMEOUT"]


def test_queue_timeout_miss_with_timeout_or_dict_get(tmp_path):
    report = lint_tree(tmp_path, {
        "streaming/pool.py": (
            "def worker(tasks, table):\n"
            "    item = tasks.get(timeout=0.5)\n"
            "    return table.get(item)\n"
        ),
    })
    assert report.ok


def test_queue_timeout_put_checked_only_with_bounded_queues(tmp_path):
    bounded = lint_tree(tmp_path, {
        "streaming/pool.py": (
            "import queue\n\n"
            "def feed(item):\n"
            "    q = queue.Queue(maxsize=4)\n"
            "    q.put(item)\n"
        ),
    })
    assert rules_hit(bounded) == ["CONC-QUEUE-TIMEOUT"]
    unbounded = lint_tree(tmp_path, {
        "streaming/pool.py": (
            "import queue\n\n"
            "def feed(item):\n"
            "    q = queue.Queue()\n"
            "    q.put(item)\n"
        ),
    })
    assert unbounded.ok


def test_queue_timeout_only_applies_to_pool(tmp_path):
    report = lint_tree(tmp_path, {
        "streaming/other.py": "def worker(tasks):\n    return tasks.get()\n",
    })
    assert report.ok


# ---------------------------------------------------------------------------
# Engine: suppression grammar, parse errors, CLI exit codes, JSON shape
# ---------------------------------------------------------------------------
def test_suppression_without_reason_is_a_violation(tmp_path):
    report = lint_tree(tmp_path, {
        "core/clock.py": (
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: disable=DET-ENTROPY\n"
        ),
    })
    assert rules_hit(report) == ["LINT-SUPPRESS-REASON"]
    assert not report.suppressed


def test_stale_suppression_is_a_violation(tmp_path):
    report = lint_tree(tmp_path, {
        "core/clean.py": (
            "x = 1  # repro-lint: disable=DET-ENTROPY -- no longer needed\n"
        ),
    })
    assert rules_hit(report) == ["LINT-STALE-SUPPRESS"]


def test_parse_error_is_reported_not_raised(tmp_path):
    report = lint_tree(tmp_path, {"core/broken.py": "def f(:\n"})
    assert rules_hit(report) == ["LINT-PARSE"]


def test_cli_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "fixture" / "core"
    dirty.mkdir(parents=True)
    (dirty / "clock.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n", encoding="utf-8"
    )
    assert lint_main([str(tmp_path / "fixture")]) == 1
    assert "DET-ENTROPY" in capsys.readouterr().out
    (dirty / "clock.py").write_text("x = 1\n", encoding="utf-8")
    assert lint_main([str(tmp_path / "fixture")]) == 0
    assert lint_main([str(tmp_path / "missing")]) == 2
    assert lint_main(["--select", "NO-SUCH-RULE", str(tmp_path / "fixture")]) == 2


def test_json_report_shape(tmp_path, capsys):
    dirty = tmp_path / "fixture" / "core"
    dirty.mkdir(parents=True)
    (dirty / "keys.py").write_text("def f(x):\n    return id(x)\n", encoding="utf-8")
    import json

    assert lint_main(["--format", "json", str(tmp_path / "fixture")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro-lint"
    assert payload["summary"]["ok"] is False
    assert payload["violations"][0]["rule"] == "DET-ID-ORDER"
    assert payload["violations"][0]["path"] == "core/keys.py"


def test_select_and_ignore_filter_rules(tmp_path):
    files = {
        "core/clock.py": "import time\n\ndef f():\n    return time.time()\n",
        "serve/h.py": "try:\n    pass\nexcept:\n    pass\n",
    }
    only_entropy = lint_tree(tmp_path, files, select=["DET-ENTROPY"])
    assert rules_hit(only_entropy) == ["DET-ENTROPY"]


# ---------------------------------------------------------------------------
# Self-check: the shipped tree lints clean
# ---------------------------------------------------------------------------
def test_shipped_tree_lints_clean():
    report = run_lint(REPO_SRC)
    assert report.ok, "\n" + report.render()
    # Every baseline is reasoned — the engine enforces it, but assert the
    # invariant the PR promises: zero silent suppressions.
    assert all(v.reason for v in report.suppressed)
