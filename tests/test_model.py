import numpy as np
import pytest

from sgds.masking import Phase
from sgds.model import (Adapter, Block, FrozenBackbone, block_forward,
                        extract, layer_bitmap, load_adapter, merge_universal,
                        save_adapter)
from sgds.numerics import ContractViolation
from sgds.training import ContinualState, TrainConfig, build_batch_tape


def zero_block(d):
    z = np.zeros((d, d))
    return Block(z, np.zeros(d), z, np.zeros(d))


def rand_adapter(rng, d=4, r=2, layers=(0, 1), task_id=0):
    return Adapter(task_id, r, {
        l: (rng.normal(size=(d, r)), rng.normal(size=(r, d))) for l in layers})


def flat(adapter):
    """Every W_down and W_up entry of an adapter, layer by layer, in one vector."""
    return np.concatenate([w.ravel() for l in adapter.target_layers
                           for w in adapter.layers[l]])


def with_flat(adapter, values):
    """The adapter with its entries taken from ``values``, in ``flat`` order."""
    layers, off = {}, 0
    for l in adapter.target_layers:
        pair = []
        for w in adapter.layers[l]:
            pair.append(values[off:off + w.size].reshape(w.shape).copy())
            off += w.size
        layers[l] = tuple(pair)
    return Adapter(adapter.task_id, adapter.rank, layers)


def test_zero_adapter_matches_frozen_path():
    backbone = FrozenBackbone.create(2, 8)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 8))
    weights = (rng.normal(size=(8, 2)), np.zeros((2, 8)))
    with_a = block_forward(x, backbone.blocks[0], weights)
    without = block_forward(x, backbone.blocks[0])
    np.testing.assert_array_equal(with_a, without)


def test_block_forward_hand_example():
    block = zero_block(2)
    out = block_forward(np.array([1.0, 0.0]), block,
                        (np.array([[1.0], [0.0]]), np.array([[0.0, 2.0]])))
    np.testing.assert_array_equal(out, [1.0, 2.0])


def test_block_forward_zero_propagation():
    block = zero_block(3)
    out = block_forward(np.zeros(3), block)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_block_forward_dim_mismatch():
    block = zero_block(3)
    with pytest.raises(ContractViolation):
        block_forward(np.ones(4), block)


def test_extract_single_block_composition():
    backbone = FrozenBackbone.create(1, 6)
    x = np.random.default_rng(1).normal(size=(2, 6))
    (phi,) = extract(x, backbone, [None], target_layers=())
    np.testing.assert_array_equal(phi, block_forward(x, backbone.blocks[0]))


def test_extract_records_pre_adapter_activations():
    backbone = FrozenBackbone.create(3, 6)
    x = np.random.default_rng(2).normal(size=(2, 6))
    seen = {}

    def probe(layer, a):
        seen[layer] = a
        return a

    extract(x, backbone, [None], (1,), probe)
    assert list(seen) == [1]
    np.testing.assert_array_equal(seen[1], block_forward(x, backbone.blocks[0]))


def test_extract_hook_only_on_target_layers():
    backbone = FrozenBackbone.create(3, 6)
    x = np.random.default_rng(3).normal(size=(2, 6))

    def hook(layer, a):
        assert layer == 2
        return a

    (masked,) = extract(x, backbone, [None], (2,), hook)
    (plain,) = extract(x, backbone, [None], (2,))
    np.testing.assert_array_equal(masked, plain)


def test_extract_empty_input():
    backbone = FrozenBackbone.create(1, 4)
    with pytest.raises(ContractViolation):
        extract(np.zeros((0, 4)), backbone, [None], ())


def test_backbone_frozen_and_deterministic():
    b1 = FrozenBackbone.create(4, 16)
    b2 = FrozenBackbone.create(4, 16)
    for x, y in zip(b1.blocks, b2.blocks):
        np.testing.assert_array_equal(x.w1, y.w1)
        np.testing.assert_array_equal(x.w2, y.w2)


def test_merge_single_adapter_identity():
    a = rand_adapter(np.random.default_rng(0))
    merged = merge_universal([a])
    np.testing.assert_array_equal(flat(merged), flat(a))


def test_merge_hand_example():
    a = Adapter(0, 1, {0: (np.array([[1.0], [-2.0]]), np.array([[0.5, 0.0]]))})
    b = Adapter(1, 1, {0: (np.array([[-3.0], [1.0]]), np.array([[0.25, 0.0]]))})
    merged = merge_universal([a, b])
    np.testing.assert_array_equal(flat(merged), [-3.0, -2.0, 0.5, 0.0])


def test_merge_exact_cancellation_is_zero():
    rng = np.random.default_rng(4)
    a = rand_adapter(rng)
    flipped = with_flat(a, -flat(a))
    merged = merge_universal([a, flipped])
    np.testing.assert_array_equal(flat(merged), np.zeros(flat(a).size))


def test_merge_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(50):
        adapters = [rand_adapter(rng, task_id=i) for i in range(3)]
        merged = flat(merge_universal(adapters))
        stack = np.stack([flat(a) for a in adapters])
        for j in range(stack.shape[1]):
            col = stack[:, j]
            expect = np.sign(col.sum()) * max(abs(v) for v in col)
            assert merged[j] == expect


def orthogonality_penalty(cur, previous, mode):
    """The training loss with the penalty at lambda 1, minus the loss without."""
    layers = cur.target_layers
    d = cur.layers[layers[0]][0].shape[0]
    x = np.random.default_rng(0).normal(size=(2, d))
    params = {"head_new": np.ones((d, 2))}
    for l in layers:
        params[f"wd_{l}"], params[f"wu_{l}"] = cur.layers[l]
    losses = []
    for m in ("off", mode):
        cfg = TrainConfig(epochs=2, sgds_enabled=False, se_enabled=False,
                          ac_enabled=False, param_reg_mode=m,
                          param_reg_lambda=1.0)
        state = ContinualState(FrozenBackbone.create(max(layers) + 1, d),
                               layers, 0.6, False, adapters=list(previous))
        losses.append(build_batch_tape(state, params, x, np.array([0, 1]),
                                       np.array([0, 1]), cfg, Phase.EXPLORATION,
                                       [], {})[1])
    return losses[1] - losses[0]


def test_penalty_orthogonal_rows_zero():
    cur = Adapter(1, 2, {0: (np.zeros((4, 2)),
                             np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))})
    prev = Adapter(0, 2, {0: (np.zeros((4, 2)),
                              np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]]))})
    assert orthogonality_penalty(cur, [prev], "up") == 0.0


def test_penalty_identical_orthonormal_rows():
    w = np.eye(3, 5)
    cur = Adapter(1, 3, {0: (np.zeros((5, 3)), w)})
    prev = Adapter(0, 3, {0: (np.zeros((5, 3)), w.copy())})
    assert orthogonality_penalty(cur, [prev], "up") == pytest.approx(3.0)


def test_penalty_no_previous_tasks():
    cur = rand_adapter(np.random.default_rng(6))
    assert orthogonality_penalty(cur, [], "both") == 0.0


def test_penalty_nonnegative_and_both_sums():
    rng = np.random.default_rng(7)
    cur = rand_adapter(rng, task_id=2)
    prev = [rand_adapter(rng, task_id=i) for i in range(2)]
    up = orthogonality_penalty(cur, prev, "up")
    down = orthogonality_penalty(cur, prev, "down")
    both = orthogonality_penalty(cur, prev, "both")
    assert up >= 0 and down >= 0
    assert both == pytest.approx(up + down)


def test_adapter_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    a = rand_adapter(rng, d=6, r=3, layers=(1, 3), task_id=5)
    path = tmp_path / "a.sgdsadp"
    save_adapter(path, a, num_blocks=4, d=6)
    loaded, nb, d = load_adapter(path)
    assert (nb, d) == (4, 6)
    assert loaded.task_id == 5 and loaded.rank == 3
    assert loaded.target_layers == (1, 3)
    np.testing.assert_array_equal(flat(loaded), flat(a))


def test_save_adapter_rejects_layer_past_bitmap_before_writing(tmp_path):
    path = tmp_path / "a.sgdsadp"
    for layer in (64, 70):
        a = rand_adapter(np.random.default_rng(10), layers=(1, layer))
        with pytest.raises(ContractViolation, match="64-bit layer bitmap"):
            save_adapter(path, a, num_blocks=layer + 1, d=4)
        assert not path.exists()
    save_adapter(path, rand_adapter(np.random.default_rng(11), layers=(63,)),
                 num_blocks=64, d=4)
    assert load_adapter(path)[0].target_layers == (63,)


def test_layer_bitmap_sets_one_bit_per_layer_0_to_63():
    assert layer_bitmap((1, 1, 3)) == 0b1010  # a repeated layer is one bit
    assert layer_bitmap((63,)) == 1 << 63
    for bad in ((64,), (-1,)):
        with pytest.raises(ContractViolation):
            layer_bitmap(bad)


def test_load_adapter_reports_truncation_and_trailing_bytes(tmp_path):
    a = rand_adapter(np.random.default_rng(9), d=6, r=3, layers=(1, 3))
    path = tmp_path / "a.sgdsadp"
    save_adapter(path, a, num_blocks=4, d=6)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(ContractViolation, match=r"W_up of layer 3 \(byte offset"):
        load_adapter(path)
    path.write_bytes(blob + b"\0")
    with pytest.raises(ContractViolation, match=f"byte offset {len(blob)}"):
        load_adapter(path)


def test_adapter_rank_bound():
    with pytest.raises(ContractViolation):
        Adapter.create(0, d=8, rank=5, target_layers=(0,), seed=0)
