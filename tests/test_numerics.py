"""The training engine's loss and hand-written gradients, and SGD.

Every graph runs through ``build_batch_tape``/``backward``; the gradient
oracle is central finite differences.
"""
import math

import numpy as np
import pytest

from sgds.masking import ActivationCounters, Phase
from sgds.model import Adapter, FrozenBackbone
from sgds.numerics import ContractViolation, NumericError, cosine_lr, sgd_step
from sgds import training
from sgds.training import (ContinualState, TrainConfig, backward,
                           build_batch_tape, penalty_stacks, train_task)


def engine_graph(seed, d, r, layers=1, targets=(0,), masked=False, n_old=0,
                 n_new=4, reg="off", batch=3):
    """Random trainable params and ``loss_fn(params) -> (tape, loss)``.

    ``masked`` turns the top-k input mask on at every target layer; ``n_old``
    random old-class head rows and ``reg`` (with two previous adapters) add
    the old logits and the orthogonality penalty.  Each call starts from
    fresh counters, so every evaluation sees the same mask.
    """
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(epochs=2, batch=batch, adapter_rank=r,
                      se_enabled=False, ac_enabled=False,
                      param_reg_mode=reg, param_reg_lambda=0.7)
    backbone = FrozenBackbone.create(layers, d)
    params = {"head_new": rng.normal(size=(d, n_new))}
    for l in targets:
        params[f"wd_{l}"] = rng.normal(size=(d, r))
        params[f"wu_{l}"] = rng.normal(size=(r, d)) * 0.5
    prev = [Adapter(t, r, {l: (rng.normal(size=(d, r)), rng.normal(size=(r, d)))
                           for l in targets}) for t in range(2)]
    classifier = rng.normal(size=(n_old, d))
    x = rng.normal(size=(batch, d))
    y = rng.integers(n_old, n_old + n_new, size=batch)
    mask_u = {l: rng.random((batch, d)) for l in targets}

    def loss_fn(p):
        state = ContinualState(backbone, targets, 0.6, masked, adapters=prev,
                               classifier=classifier)
        counters = ActivationCounters(targets, d)
        counters.add_task(range(n_old, n_old + n_new))
        return build_batch_tape(state, p, x, y - n_old, cfg,
                                Phase.EXPLORATION, counters, {}, mask_u,
                                penalty_stacks(prev, targets, reg))

    return params, loss_fn


def max_rel_error_vs_fd(params, loss_fn, h=1e-5):
    tape, _ = loss_fn(params)
    grads = backward(tape, params)
    worst = 0.0
    for name, p in params.items():
        analytic = grads[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn(params)[1]
            p[idx] = orig - h
            down = loss_fn(params)[1]
            p[idx] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(analytic[idx]), 1e-6)
            worst = max(worst, abs(numeric - analytic[idx]) / denom)
    return worst


def single_row(logits, label, d=8):
    """Engine tape, loss and params of one row whose logits are ``logits``."""
    cfg = TrainConfig(epochs=2, se_enabled=False, ac_enabled=False)
    state = ContinualState(FrozenBackbone.create(1, d), (0,), 0.6, False)
    x = np.random.default_rng(0).normal(size=(1, d))
    n = len(logits)
    params = {"head_new": np.zeros((d, n)), "wd_0": np.zeros((d, 2)),
              "wu_0": np.zeros((2, d))}

    def run():
        return build_batch_tape(state, params, x, np.array([label]), cfg,
                                Phase.EXPLORATION, 0, {}, {}, {})

    f = run()[0].features[0]
    params["head_new"] = np.outer(f, logits) / (f @ f)
    tape, loss = run()
    return tape, loss, params


def test_cross_entropy_uniform_two_class():
    assert single_row([0.0, 0.0], 0)[1] == pytest.approx(math.log(2), abs=1e-12)


def test_cross_entropy_confident():
    # -log sigmoid(20) evaluated in high precision
    expected = math.log1p(math.exp(-20.0))
    assert single_row([10.0, -10.0], 0)[1] == pytest.approx(expected, rel=1e-9)


def test_cross_entropy_uniform_three_class():
    assert single_row([1.0, 1.0, 1.0], 2)[1] == pytest.approx(math.log(3),
                                                              abs=1e-12)


def test_backward_uniform_softmax_gradient():
    tape, _, params = single_row([0.0, 0.0], 0)
    np.testing.assert_allclose(tape.dlogits, [[-0.5, 0.5]], atol=1e-12)
    grads = backward(tape, params)
    np.testing.assert_array_equal(
        grads["head_new"], np.outer(tape.features[0], [-0.5, 0.5]))


def test_nonfinite_parameter_raises_naming_it(monkeypatch):
    """A step that leaves a parameter non-finite fails at its own batch."""
    from test_training import fresh_state, small_config, small_stream
    steps = []

    def poisoned_step(params, *rest):
        sgd_step(params, *rest)
        steps.append(None)
        if len(steps) == 5:  # 48 samples in batches of 16: epoch 2, batch 2
            params["wu_1"][0, 3] = np.nan

    monkeypatch.setattr(training, "sgd_step", poisoned_step)
    cfg = small_config()
    with pytest.raises(NumericError) as err:
        train_task(fresh_state(), small_stream().tasks[0], cfg, run_seed=0)
    assert str(err.value) == "task 1, epoch 2, batch 2: non-finite wu_1"


def test_frozen_leaves_get_no_gradient():
    params, loss_fn = engine_graph(6, d=6, r=2, layers=3, targets=(1,),
                                   n_old=2, reg="both")
    grads = backward(loss_fn(params)[0], params)
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape


def test_gradients_match_finite_differences():
    params, loss_fn = engine_graph(7, d=8, r=3)
    assert max_rel_error_vs_fd(params, loss_fn) < 1e-4


def test_gradients_match_finite_differences_with_mask():
    params, loss_fn = engine_graph(11, d=8, r=3, masked=True)
    assert max_rel_error_vs_fd(params, loss_fn) < 1e-4


def test_gradients_match_finite_differences_through_frozen_blocks():
    # blocks 0 and 2 are frozen; 2 and 3 carry the gradient to layer 1 through
    # the residual, the MLP and the layer-3 mask; old rows and both penalties
    params, loss_fn = engine_graph(13, d=8, r=3, layers=4, targets=(1, 3),
                                   masked=True, n_old=3, n_new=3, reg="both",
                                   batch=4)
    tape = loss_fn(params)[0]
    assert [n.layer for n in tape.nodes] == [1, 2, 3]
    assert [(name, len(v)) for name, v, _ in tape.penalty] == [
        ("wd_1", 2), ("wu_1", 2), ("wd_3", 2), ("wu_3", 2)]
    assert [n.mask is not None for n in tape.nodes] == [True, False, True]
    assert 0 < tape.nodes[2].mask.sum() < tape.nodes[2].mask.size
    assert max_rel_error_vs_fd(params, loss_fn) < 1e-4


def test_mask_zeroes_gradient_exactly():
    params, loss_fn = engine_graph(3, d=8, r=3, masked=True, batch=1)
    tape = loss_fn(params)[0]
    dropped = tape.nodes[0].mask[0] == 0.0
    assert dropped.any()
    grads = backward(tape, params)
    assert np.all(grads["wd_0"][dropped] == 0.0)


def test_tape_determinism():
    def run():
        params, loss_fn = engine_graph(3, d=6, r=2, layers=2, targets=(0, 1),
                                       masked=True, n_old=2, reg="both")
        tape, loss = loss_fn(params)
        return loss, backward(tape, params)

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    for k in g1:
        np.testing.assert_array_equal(g1[k], g2[k])


def _penalty_per_adapter(state, params, mode, lam):
    """Reference: the penalty and its gradients as one matmul per layer,
    previous adapter and side, summed in the engine's order."""
    terms = []
    for l in state.target_layers:
        for prev in state.adapters:
            pd, pu = prev.layers[l]
            if mode in ("down", "both"):
                terms.append((f"wd_{l}", params[f"wd_{l}"] @ pd.T, pd))
            if mode in ("up", "both"):
                terms.append((f"wu_{l}", params[f"wu_{l}"] @ pu.T, pu))
    pen = 0.0
    for _, v, _ in terms:
        pen += np.sum(v * v)
    grads = {}
    for name, v, w_prev in reversed(terms):
        g = (lam * 2.0 * v) @ w_prev
        grads[name] = grads[name] + g if name in grads else g
    return pen, grads


@pytest.mark.parametrize("batch", [1, 48])
@pytest.mark.parametrize("targets", [(3,), (0, 2), (0, 1, 2, 3)])
@pytest.mark.parametrize("n_prev", [0, 1, 2, 9])
@pytest.mark.parametrize("mode", ["up", "down", "both"])
def test_penalty_matches_the_per_adapter_loop_bit_for_bit(mode, n_prev, targets,
                                                          batch):
    d, r, lam = 64, 16, 0.1
    rng = np.random.default_rng([n_prev, batch, *targets])
    params = {"head_new": rng.normal(size=(d, 5))}
    for l in targets:
        params[f"wd_{l}"] = rng.normal(size=(d, r)) * 0.1
        params[f"wu_{l}"] = rng.normal(size=(r, d)) * 0.1
    prev = [Adapter(t, r, {l: (rng.normal(size=(d, r)), rng.normal(size=(r, d)))
                           for l in targets}) for t in range(n_prev)]
    state = ContinualState(FrozenBackbone.create(4, d), targets, 0.6, False,
                           adapters=prev, classifier=rng.normal(size=(3, d)))
    x, slots = rng.normal(size=(batch, d)), rng.integers(0, 5, size=batch)

    def run(m):
        cfg = TrainConfig(epochs=1, se_enabled=False, ac_enabled=False,
                          param_reg_mode=m, param_reg_lambda=lam)
        tape, loss = build_batch_tape(state, params, x, slots, cfg,
                                      Phase.EXPLORATION, None, {}, {},
                                      penalty_stacks(prev, targets, m))
        return loss, backward(tape, params)

    loss, grads = run(mode)
    data_loss, data_grads = run("off")
    pen, pen_grads = _penalty_per_adapter(state, params, mode, lam)
    assert loss == float(data_loss + pen * lam)
    assert sorted(grads) == sorted(data_grads)
    for name, g in data_grads.items():
        want = pen_grads[name] + g if name in pen_grads else g
        assert grads[name].tobytes() == want.tobytes(), name


def test_penalty_without_its_stacks_raises():
    adapter = Adapter(0, 2, {0: (np.zeros((6, 2)), np.zeros((2, 6)))})
    state = ContinualState(FrozenBackbone.create(1, 6), (0,), 0.6, False,
                           adapters=[adapter])
    x = np.zeros((3, 6))
    for mode, prev in (("both", {}), ("up", {"wu_0": np.zeros((2, 6, 2))}),
                       ("both", penalty_stacks(state.adapters, (0,), "up")),
                       ("off", penalty_stacks(state.adapters, (0,), "down"))):
        cfg = TrainConfig(epochs=1, se_enabled=False, ac_enabled=False,
                          param_reg_mode=mode)
        with pytest.raises(ContractViolation, match="penalty stacks"):
            build_batch_tape(state, {}, x, np.zeros(3, dtype=np.int64), cfg,
                             Phase.EXPLORATION, None, {}, {}, prev)


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 20, 0.01) == pytest.approx(0.01, abs=1e-15)
    assert cosine_lr(10, 20, 0.01) == pytest.approx(0.005, abs=1e-15)
    expected = 0.01 * (1 + math.cos(19 * math.pi / 20)) / 2
    assert cosine_lr(19, 20, 0.01) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(6.16e-5, rel=1e-2)


def test_cosine_lr_monotone_and_contracts():
    lrs = [cosine_lr(e, 20, 0.01) for e in range(20)]
    assert all(lrs[i + 1] <= lrs[i] for i in range(19))
    assert all(lr > 0 for lr in lrs)
    with pytest.raises(ContractViolation):
        cosine_lr(0, 0, 0.01)
    with pytest.raises(ContractViolation):
        cosine_lr(20, 20, 0.01)


def test_sgd_plain_step():
    params = {"p": np.array([1.0])}
    sgd_step(params, {"p": np.array([2.0])}, {}, cosine_lr(0, 2, 0.1), 0.0, 0.0)
    np.testing.assert_allclose(params["p"], [0.8], atol=1e-15)


def test_sgd_momentum_recurrence():
    params, velocity = {"p": np.array([0.0])}, {}
    sgd_step(params, {"p": np.array([1.0])}, velocity, 0.1, 0.9, 0.0)
    sgd_step(params, {"p": np.array([1.0])}, velocity, 0.1, 0.9, 0.0)
    np.testing.assert_allclose(velocity["p"], [1.9], atol=1e-15)
    np.testing.assert_allclose(params["p"], [-(0.1 + 0.19)], atol=1e-15)


def test_sgd_zero_gradient_fixed_point():
    velocity = {"p": np.array([1.0])}
    params = {"p": np.array([5.0])}
    for _ in range(50):
        before = params["p"].copy()
        sgd_step(params, {"p": np.array([0.0])}, velocity, 0.1, 0.5, 0.0)
        moved = abs(params["p"] - before)
    assert velocity["p"][0] < 1e-12
    assert moved[0] < 1e-12


def test_sgd_shape_mismatch():
    with pytest.raises(ContractViolation):
        sgd_step({"p": np.zeros(2)}, {"p": np.zeros(3)}, {}, 0.1, 0.9, 0.0)
