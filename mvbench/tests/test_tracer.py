"""The tracer's self-time arithmetic and its install/restore contract."""

from __future__ import annotations

import importlib

import pytest

import mvfed.fedcore.rounds
import mvfed.fedcore.wire
from mvbench.tracer import SPANS, Tracer, _owner
from mvbench.worker import run_jobs
from mvbench.workloads import WORKLOADS


def _fake_clock(*readings: float):
    values = iter(readings)
    return lambda: next(values)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 20] holds mid [2, 12] and leaf [14, 17]; mid holds
    # leaf [3, 5] and leaf [6, 10].
    tracer = Tracer(clock=_fake_clock(0, 2, 3, 5, 6, 10, 12, 14, 17, 20))
    leaf = tracer.wrap("leaf", lambda: None)

    def mid_body():
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def outer_body():
        mid()
        leaf()

    tracer.wrap("outer", outer_body)()
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 20, "self_s": 20 - 10 - 3}
    assert summary["mid"] == {"calls": 1, "total_s": 10, "self_s": 10 - 2 - 4}
    assert summary["leaf"] == {"calls": 3, "total_s": 9, "self_s": 9}
    assert tracer.parents == [-1, 0, 1, 1, 0]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=_fake_clock(0, 1, 4, 5))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    tracer.wrap("next", lambda: None)()
    assert tracer.summary()["fail"]["total_s"] == 1
    assert tracer.parents == [-1, -1]  # the failed span is no longer open


def _snapshot():
    out = {}
    for targets in SPANS.values():
        for target in targets:
            owner, attr = _owner(target)
            out[target] = getattr(owner, attr)
    return out


def test_install_wraps_every_lookup_name_and_restores_the_originals():
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        during = _snapshot()
        assert all(during[t] is not before[t] for t in before)
        assert mvfed.fedcore.rounds.encode_message is not mvfed.fedcore.wire.encode_message
    assert _snapshot() == before
    assert mvfed.fedcore.rounds.encode_message is mvfed.fedcore.wire.encode_message
    assert importlib.import_module("mvfed.vfed")._fit_stats is importlib.import_module(
        "mvfed.mvl"
    )._fit_stats


def test_untraced_run_sees_the_original_functions():
    before = _snapshot()
    workload = WORKLOADS["many_clients"]
    tracer = Tracer()
    with tracer.installed():
        run_jobs(workload, workload.tiny, seed=0, jobs=1, tracer=tracer)
    assert tracer.summary()["hfed.client_step"]["calls"] > 0
    _, records = run_jobs(workload, workload.tiny, seed=0, jobs=1)
    assert "error" not in records[0]
    assert _snapshot() == before
    assert mvfed.fedcore.rounds.encode_message is mvfed.fedcore.wire.encode_message
