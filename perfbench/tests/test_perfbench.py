"""Tests of the benchmark's own helpers: statistics, tracer, output checks."""
import argparse
import importlib
import os
import sys
import types

import pytest

from perfbench import stats
from perfbench.hostspeed import REFERENCE_S, HostSpeed
from perfbench.run import run
from perfbench.tracer import Tracer, self_times
from perfbench.workloads import (LAYER_TARGETS, TRAIN_FILES, Workload,
                                 import_program)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import_program(REPO)

# a few seconds of work instead of the default run's four
TINY = {"dataset.groups": "2", "dataset.classes_per_group": "2",
        "dataset.train_per_class": "12", "dataset.test_per_class": "5",
        "tasks.count": "2", "train.epochs": "2", "align.samples": "16"}


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (1000, 95.0), (10000, 95.0)])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        xs = list(range(n))
        cut = stats.percentile(xs, p)
        assert sum(x > cut for x in xs) >= 10


def test_percentile_is_nearest_rank():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 20) == 1.0
    assert stats.percentile(xs, 21) == 2.0
    assert stats.percentile(xs, 100) == 5.0


def test_self_time_subtracts_child_coverage_once():
    # 0: root [0, 10]; 1: child [1, 4]; 2: grandchild [2, 3];
    # 3 and 4: overlapping children [5, 6] and [5.5, 7]
    start = [0.0, 1.0, 2.0, 5.0, 5.5]
    end = [10.0, 4.0, 3.0, 6.0, 7.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def test_tracer_records_nested_spans_and_annotations():
    mod = types.ModuleType("perfbench_fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer([(mod.__name__, "outer", "fake.outer", None),
                         (mod.__name__, "inner", "fake.inner", lambda x: x)])
        tracer.begin_run("r0")
        with tracer:
            assert mod.outer(3) == 8
        assert mod.outer(3) == 8  # restored: no new spans
    finally:
        del sys.modules[mod.__name__]
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["fake.outer", "fake.inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.info == {1: 3}
    outer_self, inner_self = tracer.self_times()
    assert outer_self == pytest.approx(
        (tracer.end[0] - tracer.start[0]) - (tracer.end[1] - tracer.start[1]))
    assert tracer.spans_by_run() == {"r0": [0, 1]}


def test_tracer_calls_before_top_outside_every_span():
    mod = types.ModuleType("perfbench_fake_top")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules[mod.__name__] = mod
    depths = []
    try:
        tracer = Tracer([(mod.__name__, "outer", "fake.outer", None),
                         (mod.__name__, "inner", "fake.inner", None)],
                        before_top=lambda: depths.append(len(tracer._stack)))
        tracer.begin_run("r0")
        with tracer:
            mod.outer(1)
            mod.inner(1)
    finally:
        del sys.modules[mod.__name__]
    assert depths == [0, 0]  # once per top-level span, never inside one


def _lookup(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[leaf]


def test_tracer_restores_every_patch_and_leaves_outputs_unchanged(tmp_path):
    before = {(m, a): _lookup(m, a) for m, a, _, _ in LAYER_TARGETS}
    w = Workload("train-sgds", 7, str(tmp_path), overrides=TINY)
    s = w.setup()
    plain = w.observe(s, w.run(s))
    tracer = Tracer(LAYER_TARGETS)
    tracer.begin_run("traced")
    with tracer:
        traced = w.observe(s, w.run(s))
    assert {(m, a): _lookup(m, a) for m, a, _, _ in LAYER_TARGETS} == before
    after = w.observe(s, w.run(s))
    assert set(TRAIN_FILES) <= set(plain)
    assert plain == traced == after
    assert len(tracer.start) > 0


def _run(workload, goldens, out_dir):
    args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=0)
    return run(args, REPO, overrides=TINY, goldens=goldens, out_dir=str(out_dir))


def test_matching_golden_passes_and_wrong_golden_fails(tmp_path):
    golden = _run("train-sgds", {}, tmp_path)["outputs"]
    ok = _run("train-sgds", {"train-sgds": {"7": golden}}, tmp_path)
    assert ok["failed"] == 0 and ok["failed_frac"] == 0.0
    wrong = dict(golden, A_bar=golden["A_bar"] + 1.0)
    bad = _run("train-sgds", {"train-sgds": {"7": wrong}}, tmp_path)
    assert bad["failed"] == bad["attempted"] >= 2
    assert bad["failed_frac"] == 1.0
    assert all(f.endswith(": A_bar") for f in bad["failures"])


def test_eval_workload_checks_every_pass_against_the_trained_state(tmp_path):
    rec = _run("eval-ckpt", {}, tmp_path)
    assert rec["failed"] == 0 and rec["attempted"] >= 5
    wrong = dict(rec["outputs"], accuracy=rec["outputs"]["accuracy"] + 1.0)
    bad = _run("eval-ckpt", {"eval-ckpt": {"7": wrong}}, tmp_path)
    assert bad["failed"] == bad["attempted"]
    assert all(f.endswith(": accuracy") for f in bad["failures"])


def test_verdict_rules():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [x * 0.8 for x in parent]
    assert stats.verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    slower = [x * 1.2 for x in parent]
    assert stats.verdict(parent, slower, "lower", 0.1)["verdict"] == "regression"
    noisy = [x * f for x, f in zip(parent, [0.7, 1.3] * 5)]
    assert stats.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert stats.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "within bound"


def test_host_speed_scales_each_piece_between_samples():
    speed = HostSpeed()
    # kernel samples [0, 1] at reference speed, [2, 2.5] and [5, 6] at half of it
    speed.starts, speed.ends = [0.0, 2.0, 5.0], [1.0, 2.5, 6.0]
    speed.seconds = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert speed.scale(3.0, 4.0) == pytest.approx(0.5)
    # [1.5, 2] between samples 0 and 1, [2.5, 4] between samples 1 and 2
    assert speed.scale(1.5, 4.0) == pytest.approx(0.5 / 1.5 + 1.5 / 2)
    assert speed.wall(1.5, 4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        speed.scale(0.5, 4.0)  # no sample ends before the interval starts
    with pytest.raises(ValueError):
        speed.scale(3.0, 5.5)  # no sample starts after it ends


def test_host_speed_sample_times_the_kernel():
    speed = HostSpeed()
    speed.sample()
    speed.sample_after(3600.0)  # too soon: no second sample
    assert len(speed.seconds) == 1
    assert speed.starts[0] < speed.ends[0]
    assert 0 < speed.seconds[0] <= speed.ends[0] - speed.starts[0]
