import numpy as np
import pytest

from sgds import inference, model
from sgds.checkpoint import load_state, save_state
from sgds.experiment import build_stream, parse_config, run_single
from sgds.inference import (embed, evaluate_row, predict, select_by_entropy,
                            summarize)
from sgds.masking import top_k_mask
from sgds.model import (Adapter, Block, FrozenBackbone, block_forward,
                        merge_universal)
from sgds.numerics import ContractViolation, NumericError
from sgds.training import ContinualState, train_task

from test_training import fresh_state, small_config, small_stream


def make_state(n_adapters=3, n_classes=4, d=8, seed=0, masked=False):
    rng = np.random.default_rng(seed)
    backbone = FrozenBackbone.create(2, d)
    state = ContinualState(
        backbone=backbone, target_layers=(1,), k=0.6, masked=masked,
        classifier=rng.normal(size=(n_classes, d)),
        class_ids=list(range(n_classes)),
    )
    for i in range(n_adapters):
        a = Adapter.create(i, d, 2, (1,), seed=seed + i)
        a.layers[1] = (a.layers[1][0], rng.normal(size=(2, d)) * 0.3)
        state.adapters.append(a)
    return state, rng


def adapter_logits(x, state, adapter):
    """One adapter's logits, from a pass of its own."""
    (feats,) = embed(x, state, [adapter])
    return feats @ state.classifier.T


def brute_select(x, state):
    best, best_ent = None, None
    for i, a in enumerate(state.adapters):
        logits = adapter_logits(np.atleast_2d(x), state, a)[0]
        z = np.exp(logits - logits.max())
        p = z / z.sum()
        ent = -sum(pi * np.log(pi) for pi in p if pi > 0)
        if best_ent is None or ent < best_ent:
            best, best_ent = i, ent
    return best


def stacked_logits(x, state):
    x = np.atleast_2d(x)
    return np.stack([adapter_logits(x, state, a) for a in state.adapters])


def test_select_single_adapter():
    state, rng = make_state(n_adapters=1)
    x = rng.normal(size=(3, 8))
    np.testing.assert_array_equal(select_by_entropy(stacked_logits(x, state)),
                                  [0, 0, 0])


def test_select_prefers_low_entropy():
    state, rng = make_state(n_adapters=2)
    x = rng.normal(size=(5, 8))
    per = stacked_logits(x, state)
    chosen = select_by_entropy(per)
    for i, t in enumerate(chosen):
        for j in range(2):
            def ent(logits):
                z = np.exp(logits - logits.max())
                p = z / z.sum()
                return -(p * np.log(np.where(p > 0, p, 1))).sum()
            assert ent(per[t][i]) <= ent(per[j][i]) + 1e-12


def test_select_matches_brute_force():
    for trial in range(30):
        state, rng = make_state(n_adapters=3, seed=trial)
        x = rng.normal(size=8)
        assert select_by_entropy(stacked_logits(x, state))[0] == brute_select(x, state)


def test_predict_single_adapter_is_plain_argmax():
    state, rng = make_state(n_adapters=1)
    x = rng.normal(size=(4, 8))
    logits = adapter_logits(x, state, state.adapters[0])
    np.testing.assert_array_equal(predict(x, state), logits.argmax(axis=1))


def test_predict_matches_term_by_term_oracle():
    for trial in range(20):
        state, rng = make_state(n_adapters=3, seed=100 + trial, masked=True)
        x = rng.normal(size=8)
        t_star = brute_select(x, state)
        uni = merge_universal(list(state.adapters))
        total = (adapter_logits(np.atleast_2d(x), state, state.adapters[t_star])[0]
                 + adapter_logits(np.atleast_2d(x), state, uni)[0])
        assert predict(x, state)[0] == total.argmax()


def test_predict_without_adapters_is_a_contract_violation():
    state, rng = make_state(n_adapters=0)
    with pytest.raises(ContractViolation, match="no trained adapter"):
        predict(rng.normal(size=(2, 8)), state)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_predict_raises_on_scores_that_overflow_a_finite_state():
    state, rng = make_state()
    x = rng.normal(size=(3, 8))
    predict(x, state)
    wd, wu = state.adapters[1].layers[1]
    state.adapters[1].layers[1] = (wd * 1e200, wu * 1e200)
    state.universal = None
    with pytest.raises(NumericError, match="non-finite ensemble scores"):
        predict(x, state)


def test_predict_tie_breaks_to_lower_class_id():
    state, _ = make_state(n_adapters=1, n_classes=3)
    state.class_ids = [7, 2, 5]
    state.classifier = np.zeros((3, 8))  # all logits identical -> full tie
    x = np.ones((1, 8))
    assert predict(x, state)[0] == 2


def test_ensemble_scale_invariance():
    state, rng = make_state(n_adapters=2, seed=5)
    x = rng.normal(size=(6, 8))
    base = predict(x, state)
    state.classifier = state.classifier * 3.5  # scales both ensemble terms
    np.testing.assert_array_equal(predict(x, state), base)


def test_masked_embedding_respects_sparsity():
    state = ContinualState(FrozenBackbone.create(2, 10), (1,), 0.5, True)
    adapter = Adapter.create(0, 10, 2, (1,), seed=0)  # zero W_up: a no-op
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 10))
    hook_seen = {}

    def probe(layer, a):
        hook_seen[layer] = a * top_k_mask(a, 0.5)
        return hook_seen[layer]

    from sgds.model import extract
    (masked,) = embed(x, state, [adapter])
    np.testing.assert_array_equal(
        extract(x, state.backbone, [adapter], (1,), probe)[0], masked)
    assert np.count_nonzero(hook_seen[1][0]) <= 5
    state.masked = False
    (unmasked,) = embed(x, state, [adapter])
    assert not np.allclose(masked, unmasked)


def test_evaluate_matrix_shape_and_perfect_classifier():
    class Perfect:
        adapters = [None]

    # evaluate_row only needs predict(); emulate via a trivial state-like stub
    state, rng = make_state(n_adapters=1, n_classes=2)
    # make class 0 and 1 perfectly separable through the classifier
    xs = np.vstack([np.ones((5, 8)), -np.ones((5, 8))])
    (feats,) = embed(xs, state, state.adapters[:1])
    state.classifier = np.stack([feats[:5].mean(axis=0), feats[5:].mean(axis=0)])
    state.class_ids = [0, 1]
    ys = np.array([0] * 5 + [1] * 5)
    accs = evaluate_row(state, [(xs, ys)])
    assert accs[0] == 100.0


def test_evaluate_row_empty_test_set():
    state, _ = make_state(n_adapters=1)
    with pytest.raises(ContractViolation):
        evaluate_row(state, [(np.zeros((0, 8)), np.zeros(0))])


def test_summarize_base_case():
    a = np.array([[90.0]])
    assert summarize(a) == (90.0, 90.0)


def test_summarize_hand_example():
    a = np.array([[80.0, np.nan], [70.0, 90.0]])
    a_bar, a_final = summarize(a)
    assert a_bar == pytest.approx(80.0, abs=1e-12)
    assert a_final == pytest.approx(80.0, abs=1e-12)


def test_summarize_constant_matrix():
    a = np.full((4, 4), 55.5)
    a_bar, a_final = summarize(np.tril(a) + np.triu(np.full((4, 4), np.nan), 1))
    assert a_bar == pytest.approx(55.5)
    assert a_final == pytest.approx(55.5)


def test_summarize_incomplete_matrix():
    a = np.full((2, 2), np.nan)
    a[0, 0] = 50.0
    with pytest.raises(ContractViolation):
        summarize(a)


def one_pass(x, backbone, adapter, targets, k, masked):
    """One adapter's features by the plain block-by-block loop."""
    a = x
    for l, block in enumerate(backbone.blocks):
        if masked and l in targets:
            a = a * top_k_mask(a, k)
        a = block_forward(a, block, adapter.layers.get(l))
    return a


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
def test_fan_out_equals_separate_passes(blocks):
    rng = np.random.default_rng(blocks)
    d, r, k = 8, 2, 0.6
    backbone = FrozenBackbone.create(blocks, d)
    target_sets = {(0,), (blocks - 1,), tuple(range(0, blocks, 2))}
    if blocks >= 4:
        target_sets.add((1, 3))
    for targets in sorted(target_sets):
        for masked in (False, True):
            for n in (1, 37):
                state = ContinualState(backbone, targets, k, masked)
                entries = [
                    Adapter(t, r, {l: (rng.normal(size=(d, r)),
                                       rng.normal(size=(r, d))) for l in targets})
                    for t in range(3)]
                entries = [entries[i] for i in rng.permutation(len(entries))]
                x = rng.normal(size=(n, d))
                fanned = embed(x, state, entries)
                assert len(fanned) == len(entries)
                for entry, f in zip(entries, fanned):
                    (alone,) = embed(x, state, [entry])
                    assert np.array_equal(f, alone)
                    assert np.array_equal(
                        f, one_pass(x, backbone, entry, targets, k, masked))


def test_predict_runs_the_frozen_blocks_once(monkeypatch):
    blocks, adapters, d = 4, 5, 8
    state = ContinualState(
        backbone=FrozenBackbone.create(blocks, d), target_layers=(blocks - 1,),
        k=0.6, masked=True,
        classifier=np.random.default_rng(0).normal(size=(3, d)),
        class_ids=[0, 1, 2])
    for t in range(adapters):
        state.adapters.append(Adapter.create(t, d, 2, (blocks - 1,), seed=t))
    calls = {"mlp": 0, "merge": 0}
    mlp, merge = Block.mlp, inference.merge_universal

    def counting_mlp(self, a):
        calls["mlp"] += 1
        return mlp(self, a)

    def counting_merge(ads):
        calls["merge"] += 1
        return merge(ads)

    monkeypatch.setattr(Block, "mlp", counting_mlp)
    monkeypatch.setattr(inference, "merge_universal", counting_merge)
    x = np.random.default_rng(1).normal(size=(6, d))
    predict(x, state)
    predict(x, state)
    assert calls == {"mlp": 2 * blocks, "merge": 1}
    state.adapters.append(Adapter.create(adapters, d, 2, (blocks - 1,), seed=9))
    predict(x, state)
    assert calls == {"mlp": 3 * blocks, "merge": 2}


def test_universal_cache_follows_the_adapter_list(tmp_path):
    cfg = small_config()
    stream = small_stream(tasks=3)
    x = np.random.default_rng(2).normal(size=(400, 16))
    state = fresh_state()
    for task in stream.tasks[:2]:
        train_task(state, task, cfg, run_seed=11)
    predict(x, state)  # merges the two adapters
    save_state(tmp_path / "two", state)
    train_task(state, stream.tasks[2], cfg, run_seed=11)
    after_training = predict(x, state)
    save_state(tmp_path / "three", state)
    fresh = load_state(tmp_path / "three", state.backbone)
    np.testing.assert_array_equal(after_training, predict(x, fresh))

    appended = load_state(tmp_path / "two", state.backbone)
    predict(x, appended)
    appended.adapters.append(fresh.adapters[-1])
    appended.classifier, appended.class_ids = fresh.classifier, fresh.class_ids
    np.testing.assert_array_equal(predict(x, appended), after_training)


RUN = {"model.dim": "16", "dataset.groups": "3", "dataset.classes_per_group": "2",
       "tasks.count": "3", "dataset.train_per_class": "8",
       "dataset.test_per_class": "4", "adapter.rank": "4", "train.epochs": "2",
       "align.samples": "16"}


def small_run(**overrides):
    cfg = parse_config(None, {**RUN, **overrides})
    stream = build_stream(cfg, 1993)
    return run_single(cfg, 1993, stream), stream


@pytest.mark.parametrize("overrides", [
    {}, {"sgds.target_layers": "1,3"},
    {"sgds.enabled": "false", "sgds.target_layers": "0,2"}],
    ids=["masked-last", "masked-1-3", "unmasked-0-2"])
def test_a_cached_prefix_scores_the_same_bytes_as_a_fresh_pass(overrides):
    res, stream = small_run(**overrides)
    state = res.state
    one_row = stream.tasks[0].test_x[:1].copy()  # a 1-row matmul takes gemv
    sets = [one_row, *(t.test_x for t in stream.tasks)]
    fresh = [predict(x, state) for x in sets]
    adapters = [*state.adapters, inference._universal_adapter(state)]
    feats = [embed(x, state, adapters) for x in sets]
    state.prefixes = {}
    for _ in range(2):  # a miss, then a hit
        for x, f in zip(sets, fresh):
            assert predict(x, state).tobytes() == f.tobytes()
    assert len(state.prefixes) == len(sets)
    for x, f in zip(sets, feats):
        cached = embed(state.prefixes[id(x)][1], state, adapters)
        assert [c.tobytes() for c in cached] == [g.tobytes() for g in f]


def test_run_single_closes_its_cache_and_scores_an_edited_set_afresh():
    res, stream = small_run()
    assert res.state.prefixes is None
    x, other = stream.tasks[0].test_x, stream.tasks[1].test_x
    before = predict(x, res.state)
    x[:] = other
    after = predict(x, res.state)
    assert after.tobytes() == predict(other.copy(), res.state).tobytes()
    assert after.tobytes() != before.tobytes()


def test_run_single_computes_each_test_sets_prefix_once(monkeypatch):
    # one frozen prefix per test set and run, though every later task scores it
    calls = []
    real = model.frozen_prefix

    def counting(x, *args):
        calls.append(x)
        return real(x, *args)

    monkeypatch.setattr(model, "frozen_prefix", counting)
    monkeypatch.setattr(inference, "frozen_prefix", counting)
    res, stream = small_run(**{"tasks.count": "6"})
    assert res.matrix.shape == (6, 6)
    assert [sum(c is t.test_x for c in calls) for t in stream.tasks] == [1] * 6
