"""The load generator against the gateway: determinism and byte-identity.

The generator's value rests on two properties: (1) its workloads are
seeded, so an oracle can replay them exactly, and (2) what the gateway
delivers under concurrent load is byte-identical to that oracle.  The
fast tests here pin both on the inline backend; the ``slow``-marked test
adds a pinned worker fault on the pool backend and checks containment,
then repair.
"""

from __future__ import annotations

import pytest

from repro.serve import Gateway, GatewayRunner
from repro.serve.client import GatewayClient
from repro.serve.loadgen import (
    canonical,
    direct_oracle,
    percentile,
    run_tenants,
    seeded_tenants,
    summarize,
)
from repro.streaming.faultinject import Fault, FaultPlan


def test_seeded_workloads_are_deterministic():
    first = seeded_tenants(2, seed=5, frames_per_feed=20)
    second = seeded_tenants(2, seed=5, frames_per_feed=20)
    for a, b in zip(first, second):
        assert a.name == b.name and a.api_key == b.api_key
        assert [str(q) for q in a.queries] == [str(q) for q in b.queries]
        assert [
            (s, f.frame_id, sorted(f.object_ids)) for s, f in a.events
        ] == [
            (s, f.frame_id, sorted(f.object_ids)) for s, f in b.events
        ]
    other_seed = seeded_tenants(2, seed=6, frames_per_feed=20)
    assert canonical(direct_oracle(first[0])) != canonical(
        direct_oracle(other_seed[0])
    ) or first[0].events != other_seed[0].events


def test_oracle_is_reproducible_and_keyed_per_query_and_stream():
    workload = seeded_tenants(1, seed=0, frames_per_feed=40)[0]
    expected = direct_oracle(workload)
    assert expected, "the seeded workload must actually produce matches"
    assert canonical(expected) == canonical(direct_oracle(workload))
    for (local_qid, stream_id), events in expected.items():
        assert all(e["query_id"] == local_qid for e in events)
        assert all(e["stream"] == stream_id for e in events)
        frame_ids = [e["frame_id"] for e in events]
        assert frame_ids == sorted(frame_ids)  # per-stream order is frame order


def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.95) == 3.0
    values = list(range(1, 101))
    assert percentile(values, 0.0) == 1
    assert percentile(values, 1.0) == 100
    assert percentile(values, 0.5) == 51


def test_concurrent_tenants_are_byte_identical_to_the_oracle():
    workloads = seeded_tenants(3, seed=2, frames_per_feed=30)
    gw = Gateway(
        [w.config() for w in workloads], admin_key="adm", backend="inline"
    )
    with GatewayRunner(gw) as runner:
        results, elapsed = run_tenants(workloads, runner.host, runner.port)
    for result in results:
        assert result.error is None, repr(result.error)
        assert result.lagged == 0
    for workload, result in zip(workloads, results):
        assert canonical(direct_oracle(workload)) == canonical(
            result.delivered
        ), workload.name
    summary = summarize(results, elapsed)
    assert summary["tenants"] == 3
    assert summary["frames_ingested"] == sum(
        len(w.events) for w in workloads
    )
    assert summary["sustained_qps"] > 0
    assert summary["errors"] == []


def test_throttled_tenant_still_converges_to_the_oracle():
    workloads = seeded_tenants(1, seed=3, frames_per_feed=20)
    configs = [workloads[0].config(frames_per_sec=200)]
    gw = Gateway(configs, admin_key="adm", backend="inline")
    with GatewayRunner(gw) as runner:
        results, _ = run_tenants(
            workloads, runner.host, runner.port, batch_frames=4
        )
    result = results[0]
    assert result.error is None, repr(result.error)
    assert canonical(direct_oracle(workloads[0])) == canonical(
        result.delivered
    )


@pytest.mark.slow
def test_pool_fault_is_contained_then_repaired():
    """Four tenants on the pool backend with a SIGKILL pinned to one
    tenant's stream: the gateway stays up, /healthz degrades, healthy
    sequences stay byte-identical while parked ones fall behind as a
    prefix, and an admin repair restores full identity and /healthz
    ``ok``."""
    workloads = seeded_tenants(4, seed=0, frames_per_feed=30)
    victim = workloads[0]
    scoped = f"{victim.name}/{sorted(victim.feeds)[0]}"
    # The fault fires on every replay, so the worker is parked for good;
    # the poison heuristic stays off so the scripted fault is what parks.
    plan = FaultPlan([Fault("sigkill", None, frame=(scoped, 20), fires=0)])
    gateway = Gateway(
        [w.config() for w in workloads],
        admin_key="adm",
        backend="pool",
        session_kwargs={
            "watermark": 4, "num_workers": 2, "degraded_mode": True,
            "supervision": {"poison_threshold": None},
        },
    )
    expected = {w.name: direct_oracle(w) for w in workloads}
    runner = GatewayRunner(gateway)
    clients = []
    try:
        # Workers fork while the plan is installed, so they carry it.
        with plan.install():
            runner.start()
            admin = GatewayClient(runner.host, runner.port, "adm")
            clients.append(admin)
            results, _ = run_tenants(workloads, runner.host, runner.port)
            health = admin.healthz().payload
        assert health["status"] == "degraded"
        parked = {
            stream for stream, record in health["streams"].items()
            if record.get("state") != "healthy"
        }
        assert scoped in parked
        behind = 0
        for workload, result in zip(workloads, results):
            want_all = expected[workload.name]
            for key in set(want_all) | set(result.delivered):
                want = want_all.get(key, [])
                got = result.delivered.get(key, [])
                if f"{workload.name}/{key[1]}" in parked:
                    assert got == want[:len(got)], (workload.name, key)
                    behind += len(want) - len(got)
                else:
                    assert canonical({key: got}) == \
                        canonical({key: want}), (workload.name, key)
        assert behind > 0, "the parked streams delivered everything"
        # The plan is uninstalled: repair replays the parked journal and
        # every tenant drains to full byte-identity.
        assert admin.repair()
        for workload, result in zip(workloads, results):
            client = GatewayClient(runner.host, runner.port, workload.api_key)
            clients.append(client)
            client.flush()
            for local_qid in range(len(workload.queries)):
                payload = client.poll_matches(local_qid)
                result.record_matches(local_qid, payload["matches"], {}, 0.0)
            assert canonical(result.delivered) == \
                canonical(expected[workload.name]), workload.name
        assert admin.healthz().payload["status"] == "ok"
    finally:
        for client in clients:
            client.close()
        runner.close()
