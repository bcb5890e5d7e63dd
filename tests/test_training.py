import math
import weakref

import numpy as np
import pytest

from sgds import training
from sgds.checkpoint import load_state, save_state
from sgds.data import SyntheticSpec, generate_synthetic
from sgds.experiment import build_stream, parse_config, run_single
from sgds.inference import embed
from sgds.masking import ActivationCounters, Phase, Strategy
from sgds.model import Block, FrozenBackbone, block_forward, frozen_forward
from sgds.numerics import ContractViolation, NumericError
from sgds.rng import TAG_MASK, stream_rng, stream_uniforms
from sgds.training import (ContinualState, TrainConfig, _epoch_mask_uniforms,
                           align_old_prototypes, build_batch_tape,
                           build_classifier, fit_class_gaussians, train_task)


def small_config(**kw):
    defaults = dict(epochs=4, batch=16, adapter_rank=4, align_samples=64)
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_stream(seed=0, tasks=3):
    spec = SyntheticSpec(groups=2, classes_per_group=3, dim=16,
                         samples_per_class_train=24, samples_per_class_test=8,
                         seed=seed)
    return generate_synthetic(spec, tasks, 1993)


def fresh_state(masked=True, dim=16, layers=2):
    return ContinualState(FrozenBackbone.create(layers, dim), (1,), 0.6, masked)


def test_build_classifier_normalizes():
    w = build_classifier({0: np.array([3.0, 4.0])}, [0])
    np.testing.assert_allclose(w, [[0.6, 0.8]], atol=1e-12)


def test_build_classifier_unit_rows_and_scale_invariance():
    rng = np.random.default_rng(0)
    protos = {i: rng.normal(size=5) for i in range(4)}
    w = build_classifier(protos, sorted(protos))
    np.testing.assert_allclose(np.linalg.norm(w, axis=1), np.ones(4), atol=1e-12)
    scaled = build_classifier({i: 7.5 * p for i, p in protos.items()}, sorted(protos))
    np.testing.assert_allclose(w, scaled, atol=1e-12)


def test_build_classifier_zero_prototype():
    with pytest.raises(ContractViolation):
        build_classifier({0: np.zeros(3)}, [0])


def test_fit_gaussians_single_sample_floor():
    stats = fit_class_gaussians(np.array([[1.0, 2.0]]), np.array([0]))
    mean, var = stats[0]
    np.testing.assert_array_equal(mean, [1.0, 2.0])
    np.testing.assert_array_equal(var, [1e-6, 1e-6])


def test_fit_gaussians_population_variance():
    stats = fit_class_gaussians(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0, 0]))
    mean, var = stats[0]
    np.testing.assert_array_equal(mean, [1.0, 0.0])
    np.testing.assert_allclose(var, [1.0, 1e-6], atol=1e-15)


def test_fit_gaussians_permutation_invariant():
    rng = np.random.default_rng(1)
    feats, y = rng.normal(size=(9, 4)), np.zeros(9, dtype=np.int64)
    m1 = fit_class_gaussians(feats, y)[0][0]
    m2 = fit_class_gaussians(feats[rng.permutation(9)], y)[0][0]
    np.testing.assert_allclose(m1, m2, atol=1e-12)


def test_fit_gaussians_fits_each_class_to_its_own_rows_in_sorted_order():
    feats = np.array([[4.0, 0.0], [1.0, 1.0], [6.0, 2.0], [3.0, 5.0]])
    stats = fit_class_gaussians(feats, np.array([7, 2, 7, 2]))
    assert list(stats) == [2, 7]
    for c, rows in ((2, feats[[1, 3]]), (7, feats[[0, 2]])):
        np.testing.assert_array_equal(stats[c][0], rows.mean(axis=0))
        np.testing.assert_array_equal(stats[c][1], rows.var(axis=0))


def trained_state(cfg=None, tasks=2, seed=11):
    cfg = cfg or small_config()
    stream = small_stream(tasks=tasks)
    state = fresh_state()
    for task in stream.tasks[:tasks]:
        train_task(state, task, cfg, run_seed=seed)
    return state, stream, cfg


def test_align_noop_without_previous_adapter():
    state = fresh_state()
    x = np.zeros((1, 16))
    assert align_old_prototypes(state, x, x, 0, 0, 0) == {}


def last_adapter_features(state, x):
    """``x`` through the newest adapter, as ``train_task`` embeds it."""
    (feats,) = embed(x, state, state.adapters[-1:])
    return feats


def test_align_identical_adapters_closed_form():
    state, stream, cfg = trained_state()
    f = last_adapter_features(state, stream.tasks[1].train_x)
    aligned = align_old_prototypes(state, f, f, align_samples=0, run_seed=1,
                                   task_index=2)
    for c, vec in aligned.items():
        np.testing.assert_allclose(vec, state.class_stats[c][0], atol=1e-12)


def test_align_sampling_converges_to_translation():
    state, stream, cfg = trained_state()
    f = last_adapter_features(state, stream.tasks[1].train_x)
    exact = align_old_prototypes(state, f, f, align_samples=0,
                                 run_seed=1, task_index=2)
    sampled = align_old_prototypes(state, f, f, align_samples=10_000,
                                   run_seed=1, task_index=2)
    for c in exact:
        sigma = np.sqrt(state.class_stats[c][1])
        tol = 4 * sigma / np.sqrt(10_000)
        assert np.all(np.abs(sampled[c] - exact[c]) < tol + 1e-9)


def test_train_task_rejects_class_overlap():
    state, stream, cfg = trained_state(tasks=1)
    with pytest.raises(ContractViolation):
        train_task(state, stream.tasks[0], cfg, run_seed=0)


def test_classifier_row_bookkeeping():
    state, stream, _ = trained_state(tasks=2)
    per_task = len(stream.tasks[0].classes)
    assert state.classifier.shape[0] == 2 * per_task
    assert len(state.class_ids) == 2 * per_task


def test_phase_accounting():
    cfg = small_config(epochs=7)
    state = fresh_state()
    train_task(state, small_stream().tasks[0], cfg, run_seed=3)
    phases = state.task_logs[0].epoch_phases
    assert phases.count(Phase.EXPLORATION) == 7 // 2
    assert phases == [Phase.EXPLORATION] * 3 + [Phase.COMPACTION] * 4


def test_old_adapters_and_backbone_immutable():
    cfg = small_config()
    stream = small_stream(tasks=3)
    state = fresh_state()
    train_task(state, stream.tasks[0], cfg, run_seed=5)
    frozen_adapter = {l: (wd.copy(), wu.copy())
                      for l, (wd, wu) in state.adapters[0].layers.items()}
    frozen_block = state.backbone.blocks[0].w1.copy()
    train_task(state, stream.tasks[1], cfg, run_seed=5)
    for l, (wd, wu) in state.adapters[0].layers.items():
        np.testing.assert_array_equal(wd, frozen_adapter[l][0])
        np.testing.assert_array_equal(wu, frozen_adapter[l][1])
    np.testing.assert_array_equal(state.backbone.blocks[0].w1, frozen_block)


def test_loss_decreases_over_training():
    cfg = small_config(epochs=8)
    stream = small_stream(tasks=2)
    for seed in (1, 2):
        state = fresh_state()
        for task in stream.tasks[:2]:
            train_task(state, task, cfg, run_seed=seed)
        for log in state.task_logs:
            assert log.epoch_losses[-1] < log.epoch_losses[0]


def test_counter_growth_locality():
    state, stream, _ = trained_state(tasks=2)
    seen = {c for t in stream.tasks[:2] for c in t.classes}
    # one F_c row per seen class, in the state's class order
    assert state.counters.class_ids == state.class_ids
    assert set(state.counters.class_ids) == seen
    # only the target layer's array exists, and it accumulated history
    assert list(state.counters.f_c) == [1]
    assert state.counters.f_c[1].sum() > 0


def test_old_class_counter_rows_never_change_during_a_task():
    # train_task computes the reuse vectors from these rows once per task
    cfg = small_config()
    state = fresh_state()
    for task in small_stream(tasks=3).tasks:
        old = {l: f_c.copy() for l, f_c in state.counters.f_c.items()}
        train_task(state, task, cfg, run_seed=3)
        for l, f_c in old.items():
            assert state.counters.f_c[l][:len(f_c)].tobytes() == f_c.tobytes()
    assert any(p.strategy is Strategy.KNOWLEDGE_REUSE
               for log in state.task_logs for p in log.profiles)


@pytest.mark.parametrize("restore", ["nothing", "counters", "prototypes"])
def test_training_a_loaded_checkpoint_is_a_typed_error(restore, tmp_path):
    # a checkpoint restores neither the counters nor the frozen prototypes
    cfg = small_config()
    stream = small_stream(tasks=3)
    state = fresh_state()
    for task in stream.tasks[:2]:
        train_task(state, task, cfg, run_seed=3)
    save_state(tmp_path, state)
    loaded = load_state(tmp_path, state.backbone)
    if restore == "counters":
        loaded.counters = state.counters
    elif restore == "prototypes":
        loaded.frozen_prototypes = dict(state.frozen_prototypes)
    counter_rows = list(loaded.counters.class_ids)
    prototypes = set(loaded.frozen_prototypes)
    with pytest.raises(ContractViolation, match="scored but not trained"):
        train_task(loaded, stream.tasks[2], cfg, run_seed=3)
    assert len(loaded.adapters) == 2 and loaded.class_ids == state.class_ids
    assert loaded.counters.class_ids == counter_rows
    assert set(loaded.frozen_prototypes) == prototypes
    assert len(loaded.task_logs) == 0


def test_a_task_that_raises_leaves_the_state_as_it_was():
    # the state changes only after a task's last batch, so a failed task can
    # be trained again and gives what a run without the failure gives
    cfg = small_config()
    stream = small_stream(tasks=2)
    state = fresh_state()
    train_task(state, stream.tasks[0], cfg, run_seed=3)

    def snapshot():
        return (list(state.class_ids), list(state.counters.class_ids),
                [(l, f_c.tobytes()) for l, f_c in state.counters.f_c.items()],
                sorted(state.frozen_prototypes),
                [(c, m.tobytes(), v.tobytes())
                 for c, (m, v) in state.class_stats.items()],
                state.classifier.tobytes(), len(state.adapters),
                len(state.task_logs))

    before = snapshot()
    with pytest.raises(NumericError, match="task 2, epoch 1, batch 2: non-finite logits"):
        train_task(state, stream.tasks[1], small_config(lr=1e300), run_seed=3)
    assert snapshot() == before
    train_task(state, stream.tasks[1], cfg, run_seed=3)
    fresh, _, _ = trained_state(cfg, tasks=2, seed=3)
    assert state.classifier.tobytes() == fresh.classifier.tobytes()
    assert ([(l, f_c.tobytes()) for l, f_c in state.counters.f_c.items()]
            == [(l, f_c.tobytes()) for l, f_c in fresh.counters.f_c.items()])


@pytest.mark.filterwarnings("error")
def test_a_non_finite_head_row_fails_the_first_batch_at_its_logits():
    state = fresh_state()
    stream = small_stream(tasks=2)
    train_task(state, stream.tasks[0], small_config(), run_seed=3)
    state.classifier[0, 5] = np.inf
    with pytest.raises(NumericError) as err:
        train_task(state, stream.tasks[1], small_config(), run_seed=3)
    assert str(err.value) == "task 2, epoch 1, batch 1: non-finite logits"


@pytest.mark.filterwarnings("error")
def test_features_that_overflow_after_training_raise_before_the_commit():
    # every batch stays finite, but the trained adapter embeds task 3 to ±inf;
    # the class statistics and classifier built from that are not committed
    cfg = parse_config(None, {
        "model.dim": 16, "dataset.groups": 3, "dataset.classes_per_group": 2,
        "tasks.count": 3, "dataset.train_per_class": 5,
        "dataset.test_per_class": 2, "adapter.rank": 4, "train.epochs": 4,
        "train.lr": 10, "train.momentum": 0.9, "sgds.enabled": "false",
        "sgds.target_layers": "0,1,2,3"})
    stream = build_stream(cfg, 1)
    with pytest.raises(NumericError) as err:
        run_single(cfg, 1, stream)
    assert str(err.value) == ("task 3: non-finite features, class statistics "
                              "or classifier after training")
    state = ContinualState(FrozenBackbone.create(4, 16), cfg.target_layers,
                           cfg["sgds.k"], False)
    for task in stream.tasks[:2]:
        train_task(state, task, cfg.train_config(), run_seed=1)
    classifier = state.classifier.tobytes()
    with pytest.raises(NumericError):
        train_task(state, stream.tasks[2], cfg.train_config(), run_seed=1)
    assert len(state.adapters) == 2 and state.classifier.tobytes() == classifier


@pytest.mark.parametrize("batch", [16, 47])
def test_frozen_prefix_runs_once_per_task_not_per_batch(batch, monkeypatch):
    # blocks 0 and 1 come before the first target layer; the task runs them
    # once for its batches and its frozen prototypes, a 1-row batch runs its
    # own prefix, and the task's one embed call runs it once
    state = ContinualState(FrozenBackbone.create(4, 16), (2, 3), 0.6, True)
    prefix = {id(b): l for l, b in enumerate(state.backbone.blocks[:2])}
    calls = dict.fromkeys(prefix.values(), 0)
    mlp = Block.mlp

    def counting_mlp(block, x):
        if id(block) in prefix:
            calls[prefix[id(block)]] += 1
        return mlp(block, x)

    monkeypatch.setattr(Block, "mlp", counting_mlp)
    cfg = small_config(batch=batch)
    task = small_stream().tasks[0]
    assert len(task.train_y) == 48  # batch 47 leaves a 1-row tail per epoch
    train_task(state, task, cfg, run_seed=3)
    one_row = cfg.epochs if batch == 47 else 0
    assert calls == {0: 1 + one_row + 1, 1: 1 + one_row + 1}


@pytest.mark.parametrize("targets", [(0,), (1,), (2, 3)])
@pytest.mark.parametrize("masked", [True, False])
def test_frozen_prototypes_are_the_plain_frozen_backbone(targets, masked):
    state = ContinualState(FrozenBackbone.create(4, 16), targets, 0.6, masked)
    cfg = small_config()
    want = {}
    for task in small_stream(tasks=2).tasks:
        a = task.train_x
        for block in state.backbone.blocks:  # no adapter and no mask
            a = block_forward(a, block)
        want.update({int(c): a[task.train_y == c].mean(axis=0)
                     for c in np.unique(task.train_y)})
        train_task(state, task, cfg, run_seed=3)
    assert list(state.frozen_prototypes) == list(want)
    assert all(state.frozen_prototypes[c].tobytes() == p.tobytes()
               for c, p in want.items())


@pytest.mark.parametrize("batch", [1, 16, 47])
def test_penalty_stacks_are_built_once_per_task_not_per_batch(batch, monkeypatch):
    built, passed = [], []
    stacks, tape = training.penalty_stacks, training.build_batch_tape

    def counting_stacks(*args):
        built.append(stacks(*args))
        return built[-1]

    def recording_tape(*args):
        passed.append(args[-1])
        return tape(*args)

    monkeypatch.setattr(training, "penalty_stacks", counting_stacks)
    monkeypatch.setattr(training, "build_batch_tape", recording_tape)
    cfg = small_config(batch=batch, param_reg_mode="both")
    state, want = fresh_state(), []
    for t, task in enumerate(small_stream(tasks=2).tasks):
        train_task(state, task, cfg, run_seed=3)
        want += [t] * (cfg.epochs * -(-len(task.train_y) // batch))
    assert built[0] == {} and len(built) == 2
    assert {name: w.shape for name, w in built[1].items()} == {
        "wd_1": (1, 4, 16), "wu_1": (1, 16, 4)}
    assert len(passed) == len(want)
    assert all(p is built[t] for t, p in zip(want, passed))


@pytest.mark.parametrize("se, ac", [(True, False), (False, True)])
def test_an_epoch_whose_phase_is_off_draws_no_mask_uniforms(se, ac, monkeypatch):
    drawn = []

    def recording_uniforms(keys, n):
        # every epoch of the stream keys, in the order they are drawn
        drawn.extend(dict.fromkeys(int(e) for e in keys[:, 3]))
        return stream_uniforms(keys, n)

    monkeypatch.setattr(training, "stream_uniforms", recording_uniforms)
    cfg = small_config(se_enabled=se, ac_enabled=ac)
    state = fresh_state()
    train_task(state, small_stream(tasks=1).tasks[0], cfg, run_seed=3)
    phases = state.task_logs[0].epoch_phases
    on = Phase.EXPLORATION if se else Phase.COMPACTION
    assert drawn == [e for e, p in enumerate(phases, 1) if p is on]  # one layer
    assert drawn and len(drawn) < cfg.epochs


def _batch_tape_for(cfg, masked=True):
    """One batch's tape, and how much it added to the target layer's F."""
    stream = small_stream(tasks=1)
    state = fresh_state(masked)
    task = stream.tasks[0]
    params = {"head_new": np.zeros((16, len(task.classes))),
              "wd_1": np.zeros((16, 4)), "wu_1": np.zeros((4, 16))}
    counters = ActivationCounters(state.target_layers, 16)
    counters.add_task(task.classes)
    slots = np.array([task.classes.index(c) for c in task.train_y[:8]])
    before = counters.f_c[1].sum(axis=0)
    # a first task has no old classes, so every class allocates: no reuse
    prior = {1: (state.counters.f_c[1].sum(axis=0), {})}
    x = frozen_forward(task.train_x[:8], state.backbone.blocks[:1])
    tape, _ = build_batch_tape(
        state, params, x, slots, cfg,
        Phase.EXPLORATION, counters, prior, {1: np.full((8, 16), 0.5)}, {})
    assert state.counters.f_c[1].shape == (0, 16)  # the state is only read
    return tape, counters.f_c[1].sum(axis=0) - before


def test_disabling_sgds_removes_mask_ops():
    tape, recorded = _batch_tape_for(small_config(
        se_enabled=False, ac_enabled=False), masked=False)
    assert [n.mask for n in tape.nodes] == [None]
    assert not recorded.any()


def test_enabled_sgds_masks_target_layer():
    tape, recorded = _batch_tape_for(small_config())
    assert [n.layer for n in tape.nodes] == [1]
    mask = tape.nodes[0].mask
    assert mask.shape == (8, 16) and 0 < mask.sum() < mask.size
    # every unit the mask keeps is counted once, at the target layer
    np.testing.assert_array_equal(recorded, mask.sum(axis=0))


@pytest.mark.parametrize("k", [math.nan, math.inf, 1.5, 0.0, -0.6])
def test_state_rejects_k_outside_unit_interval(k):
    with pytest.raises(ContractViolation, match="sparsity ratio k"):
        ContinualState(FrozenBackbone.create(2, 16), (1,), k, True)


@pytest.mark.parametrize("layers, message", [
    ((), "no target layer"), ((2,), r"target layers \(2,\) are not blocks"),
    ((-1, 1), r"target layers \(-1, 1\) are not blocks")])
def test_state_rejects_missing_or_out_of_range_target_layers(layers, message):
    with pytest.raises(ContractViolation, match=message):
        ContinualState(FrozenBackbone.create(2, 16), layers, 0.6, True)


def test_state_defaults():
    state = ContinualState(FrozenBackbone.create(3, 16), (2, 0), 1.0, False)
    assert state.target_layers == tuple(state.counters.f_c) == (0, 2)
    assert state.classifier.shape == (0, 16)
    assert {l: f_c.shape for l, f_c in state.counters.f_c.items()} == {
        0: (0, 16), 2: (0, 16)}
    assert state.adapters == state.class_ids == []


def test_config_needs_two_epochs_for_two_phases():
    with pytest.raises(ContractViolation):
        TrainConfig(epochs=1)
    # with SGDS off train_config turns both phase gates off, so one epoch
    # is enough
    assert TrainConfig(epochs=1, se_enabled=False, ac_enabled=False).epochs == 1


def test_param_reg_penalty_increases_loss():
    cfg_off = small_config(epochs=2)
    cfg_on = small_config(epochs=2, param_reg_mode="both", param_reg_lambda=10.0)
    stream = small_stream(tasks=2)
    losses = {}
    for name, cfg in (("off", cfg_off), ("on", cfg_on)):
        state = fresh_state()
        for task in stream.tasks[:2]:
            train_task(state, task, cfg, run_seed=7)
        losses[name] = state.task_logs[1].epoch_losses[0]
    # same data/seed, the penalized run carries the extra positive term
    assert losses["on"] >= losses["off"]


@pytest.mark.parametrize("run_seed", [7, -3, (1 << 64) - 1])
def test_epoch_mask_uniforms_follow_the_per_sample_streams(run_seed):
    n, batch, width, epochs = 11, 4, 5, (3, 4, 9)
    got = list(_epoch_mask_uniforms(run_seed, 2, epochs, n, batch, (0, 3), width))
    assert len(got) == len(epochs)
    for epoch, epoch_u in zip(epochs, got):
        assert sorted(epoch_u) == [0, 3]
        for l, u in epoch_u.items():
            assert u.shape == (n, width)
            for r in range(n):
                exp = stream_rng(run_seed, TAG_MASK, 2, epoch, r // batch,
                                 r % batch, l).random(width)
                np.testing.assert_array_equal(u[r], exp)


@pytest.mark.parametrize("per_class, epochs", [(24, 25), (100, 5), (128, 3), (129, 3)])
def test_mask_uniforms_are_drawn_a_tile_of_whole_epochs_at_a_time(
        per_class, epochs, monkeypatch):
    # each call's buffers grow with its rows, and peak_rss_mb with them
    calls = []

    def recording_uniforms(keys, n):
        calls.append([int(e) for e in keys[:, 3]])
        return stream_uniforms(keys, n)

    monkeypatch.setattr(training, "stream_uniforms", recording_uniforms)
    spec = SyntheticSpec(groups=2, classes_per_group=3, dim=16,
                         samples_per_class_train=per_class,
                         samples_per_class_test=2, seed=0)
    task = generate_synthetic(spec, 3, 1993).tasks[0]
    n = len(task.train_y)
    train_task(fresh_state(), task, small_config(epochs=epochs), run_seed=3)
    assert max(len(c) for c in calls) <= 512
    per = max(1, 512 // n)  # as many whole epochs as fit, at least one
    assert [sorted(set(c)) for c in calls] == [
        list(range(e, min(e + per, epochs + 1))) for e in range(1, epochs + 1, per)]
    assert all(len(c) == n * len(set(c)) for c in calls)


def test_no_mask_uniform_tile_is_alive_while_the_next_is_drawn(monkeypatch):
    # a tile kept alive through the next draw doubles its share of the peak heap
    drawn, alive = [], []

    def probing_uniforms(keys, n):
        alive.append(sum(ref() is not None for ref in drawn))
        u = stream_uniforms(keys, n)
        drawn.append(weakref.ref(u))
        return u

    monkeypatch.setattr(training, "stream_uniforms", probing_uniforms)
    spec = SyntheticSpec(groups=2, classes_per_group=3, dim=16,
                         samples_per_class_train=100, samples_per_class_test=2,
                         seed=0)
    task = generate_synthetic(spec, 3, 1993).tasks[0]
    assert len(task.train_y) == 200  # tiles of two, two and one epochs
    train_task(fresh_state(), task, small_config(epochs=5), run_seed=3)
    assert alive == [0, 0, 0]
