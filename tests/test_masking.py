import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgds.masking import (ActivationCounters, Phase, Strategy,
                          allocation_probability,
                          compaction_probability, dispatch_probability,
                          formulate_strategy, relation_distribution,
                          reuse_probability, sparsify_and_record, top_k_mask)
from sgds.numerics import ContractViolation
from sgds.rng import stream_rng


def make_counters(width=6, layers=(0,), classes=()):
    c = ActivationCounters(layers, width)
    c.add_task(classes)
    return c


def test_relation_identical_prototypes_uniform():
    protos = {i: np.array([1.0, 2.0]) for i in range(4)}
    rel = relation_distribution(0, protos)
    for p in rel.values():
        assert p == pytest.approx(0.25, abs=1e-12)


def test_relation_two_class_example():
    protos = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    rel = relation_distribution(0, protos)
    e = math.e
    assert rel[0] == pytest.approx(e / (e + 1), abs=1e-9)
    assert rel[1] == pytest.approx(1 / (e + 1), abs=1e-9)


def test_relation_sums_to_one():
    rng = np.random.default_rng(0)
    protos = {i: rng.normal(size=5) for i in range(7)}
    rel = relation_distribution(3, protos)
    assert sum(rel.values()) == pytest.approx(1.0, abs=1e-12)


def test_relation_zero_prototype():
    with pytest.raises(ContractViolation):
        relation_distribution(0, {0: np.zeros(3), 1: np.ones(3)})


def test_strategy_first_task_all_allocation():
    protos = {0: np.array([1.0, 0.0]), 1: np.array([0.5, 0.5])}
    rel = relation_distribution(0, protos)
    prof = formulate_strategy(0, rel, (), (0, 1))
    assert prof.s_old == 0.0
    assert prof.strategy is Strategy.NEW_SUBSPACE_ALLOCATION


def test_strategy_reuse_when_old_mass_dominates():
    # one old class identical to c, the only current class is c itself
    protos = {0: np.array([1.0, 0.0]), 1: np.array([1.0, 0.0])}
    rel = relation_distribution(1, protos)
    prof = formulate_strategy(1, rel, (0,), (1,))
    assert prof.s_old == pytest.approx(0.5, abs=1e-12)
    assert prof.s_new == pytest.approx(0.5, abs=1e-12)
    # exact tie goes to allocation (strict inequality required for reuse)
    assert prof.strategy is Strategy.NEW_SUBSPACE_ALLOCATION


def test_strategy_partition_law():
    rng = np.random.default_rng(1)
    protos = {i: rng.normal(size=4) for i in range(6)}
    rel = relation_distribution(4, protos)
    prof = formulate_strategy(4, rel, (0, 1, 2), (3, 4, 5))
    assert prof.s_old + prof.s_new == pytest.approx(1.0, abs=1e-12)


def test_reuse_probability_zero_counters():
    counters = make_counters(classes=(0, 1))
    p = reuse_probability(counters.f_c[0], [0.5, 0.5])
    np.testing.assert_array_equal(p, np.zeros(6))
    with pytest.raises(ContractViolation):  # a row without its weight
        reuse_probability(counters.f_c[0], [1.0])


def test_reuse_probability_example():
    counters = make_counters(width=3, classes=(0, 1))
    counters.f_c[0][0] = [4, 0, 0]   # class 0: unit 0 normalized usage 1
    counters.f_c[0][1] = [0, 5, 0]   # class 1: unit 1 only
    p = reuse_probability(counters.f_c[0], [0.5, 0.5])
    assert p[0] == pytest.approx(1 - math.exp(-0.5), abs=1e-12)
    assert p[2] == 0.0


def test_reuse_probability_upper_bound():
    rng = np.random.default_rng(2)
    for _ in range(100):
        counters = make_counters(width=4, classes=(0, 1, 2))
        counters.f_c[0][:] = rng.integers(0, 9, size=counters.f_c[0].shape)
        w = rng.random(3)
        p = reuse_probability(counters.f_c[0], list(w / w.sum()))
        assert np.all(p <= 1 - math.exp(-1) + 1e-12)
        assert np.all(p >= 0)


def test_reuse_probability_sums_rows_in_class_order():
    # bit for bit: the same terms summed in another order round differently
    rng = np.random.default_rng(53)
    for _ in range(500):
        n_rows, width = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        counts = rng.integers(0, 50, size=(n_rows, width))
        counts[rng.random(n_rows) < 0.2] = 0  # rows with no history
        weights = rng.random(n_rows).tolist()
        acc = [0.0] * width
        for p, row in zip(weights, counts.tolist()):  # F_c rows in order
            for j in range(width):
                if max(row) > 0:
                    acc[j] += p * row[j] / max(row)
        # the same vectorized exp on both sides, so only the sums are compared
        exp = 1.0 - np.exp(-np.array(acc))
        assert reuse_probability(counts, weights).tobytes() == exp.tobytes()


def test_allocation_probability_no_history():
    counters = make_counters()  # F of a fresh layer: the sum of no F_c rows
    np.testing.assert_array_equal(
        allocation_probability(counters.f_c[0].sum(axis=0), 0.5), np.ones(6))


def test_allocation_probability_example():
    p = allocation_probability(np.array([4, 2, 0]), 0.5)
    np.testing.assert_allclose(p, [math.exp(-0.5), math.exp(-0.25), 1.0],
                               atol=1e-12)


def test_allocation_most_used_unit_smallest():
    rng = np.random.default_rng(3)
    f = rng.integers(0, 20, size=8)
    p = allocation_probability(f, 0.5)
    assert p[f.argmax()] == p.min()


def test_compaction_probability_example():
    counters = make_counters(width=3, classes=(7,))
    counters.f_c[0][0] = [3, 0, 1]
    p = compaction_probability(counters.f_c[0][0], 1.0)
    np.testing.assert_allclose(
        p, [1 - math.exp(-1.0), 0.0, 1 - math.exp(-1 / 3)], atol=1e-12)
    assert p[0] == pytest.approx(0.632121, abs=1e-6)
    assert p[2] == pytest.approx(0.283469, abs=1e-6)


def test_compaction_max_unit_has_largest_probability():
    counters = make_counters(width=5, classes=(0,))
    counters.f_c[0][0] = [1, 9, 2, 0, 4]
    p = compaction_probability(counters.f_c[0][0], 1.0)
    assert p.argmax() == 1
    assert p[1] == pytest.approx(1 - math.exp(-1.0), abs=1e-12)


def test_compaction_large_gamma_limit():
    counters = make_counters(width=4, classes=(0,))
    counters.f_c[0][0] = [5, 0, 1, 0]
    p = compaction_probability(counters.f_c[0][0], 1e6)
    used = counters.f_c[0][0] > 0
    assert np.all(p[used] > 1 - 1e-9)
    assert np.all(p[~used] == 0.0)


def test_compaction_no_history_convention():
    counters = make_counters(classes=(0,))
    np.testing.assert_array_equal(
        compaction_probability(counters.f_c[0][0], 1.0), np.ones(6))
    # rows at once: a row with no history stays unconstrained beside others
    rows = np.array([[0, 0, 0], [3, 0, 1]])
    np.testing.assert_array_equal(compaction_probability(rows, 1.0),
                                  [[1.0, 1.0, 1.0],
                                   compaction_probability(rows[1], 1.0)])


def test_dispatch_exploration_allocation_zero_counters():
    counters = make_counters(classes=(0,))
    p = dispatch_probability(counters, 0, Phase.EXPLORATION,
                             np.zeros(6, dtype=np.int64), {}, 0.5, 1.0)
    np.testing.assert_array_equal(p, np.ones((1, 6)))


def test_dispatch_exploration_reuse_zero_counters():
    old = make_counters(classes=(0,))
    counters = make_counters(classes=(1,))
    reuse = {0: reuse_probability(old.f_c[0], [0.0])}
    p = dispatch_probability(counters, 0, Phase.EXPLORATION,
                             old.f_c[0].sum(axis=0), reuse, 0.5, 1.0)
    np.testing.assert_array_equal(p, np.zeros((1, 6)))


def test_dispatch_compaction_delegates():
    counters = make_counters(width=3, classes=(0,))
    counters.f_c[0][0] = [3, 0, 1]
    p = dispatch_probability(counters, 0, Phase.COMPACTION,
                             np.zeros(3, dtype=np.int64), {}, 0.5, 1.0)
    np.testing.assert_allclose(p, [compaction_probability(counters.f_c[0][0],
                                                          1.0)])


def test_dispatch_table_matches_scalar_oracles_slot_by_slot():
    from test_acceptance import _oracle_alloc, _oracle_compact, _oracle_reuse
    rng = np.random.default_rng(41)
    width, layers, beta, gamma = 7, (1, 3), 0.7, 1.3
    # the earlier tasks' counters and the task's own, whose rows are its slots
    earlier = make_counters(width=width, layers=layers, classes=(5, 2, 9))
    counters = make_counters(width=width, layers=layers, classes=(4, 0, 8, 1))
    base = len(earlier.class_ids)
    f_c = rng.integers(0, 30, size=(7, len(layers), width))
    f_c[1] = 0  # an old class with no history
    f_c[base + 2] = 0  # a current class with no history
    for li, l in enumerate(layers):
        earlier.f_c[l][:] = f_c[:base, li]
        counters.f_c[l][:] = f_c[base:, li]
    weights = {0: [0.5, 0.1, 0.2], 3: [0.2, 0.3, 0.4]}  # slots 1, 2 allocate
    for li, l in enumerate(layers):
        old = f_c[:base, li].tolist()
        reuse = {s: reuse_probability(earlier.f_c[l], w)
                 for s, w in weights.items()}
        for phase in Phase:
            table = dispatch_probability(counters, l, phase,
                                         earlier.f_c[l].sum(axis=0), reuse,
                                         beta, gamma)
            assert table.shape == (4, width)
            for s in range(4):
                if phase is Phase.COMPACTION:
                    exp = _oracle_compact(f_c[base + s, li].tolist(), gamma)
                elif s in weights:
                    exp = _oracle_reuse(list(zip(weights[s], old)), width)
                else:
                    exp = _oracle_alloc(f_c[:, li].sum(axis=0).tolist(), beta)
                np.testing.assert_allclose(table[s], exp, rtol=0, atol=1e-12)


def test_sparsify_top_k_support():
    x = np.array([5, 1, 3, 2, 4, 0.5, 6, 0.1, 0.2, 0.3])
    out = sparsify_and_record(x, np.ones(10), 0.6, stream_rng(0).random(10))
    assert set(np.flatnonzero(out)) == {6, 0, 4, 2, 3, 1}
    np.testing.assert_array_equal(out[np.flatnonzero(out)],
                                  x[sorted({6, 0, 4, 2, 3, 1})])


def _stable_argsort_top_k(a, k):
    """Reference: the first ⌊k·N⌋ of a stable sort of -|a| (NaN sorts last)."""
    a = np.asarray(a, dtype=np.float64)
    order = np.argsort(-np.abs(a), axis=-1, kind="stable")
    mask = np.zeros_like(a)
    np.put_along_axis(mask, order[..., :math.floor(k * a.shape[-1])], 1.0,
                      axis=-1)
    return mask


def _top_k_cases():
    rng = np.random.default_rng(14)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for i in range(600):
        n = int(rng.integers(1, 70))
        shape = (n,) if i % 2 else (int(rng.integers(1, 9)), n)
        kind = i % 5
        if kind == 0:  # integer values: heavy ties
            a = rng.integers(-3, 4, size=shape).astype(np.float64)
        elif kind == 1:
            a = rng.normal(size=shape)
        elif kind == 2:
            a = np.zeros(shape)
        else:  # ties among NaN, ±inf and signed zeros
            a = rng.integers(-2, 3, size=shape).astype(np.float64)
            hit = rng.random(shape) < (0.3 if kind == 3 else 0.9)
            a[hit] = rng.choice(specials, size=shape)[hit]
        for k in (1.0 / n, 0.25, 0.6, float(rng.uniform(0.0, 1.0)), 1.0):
            if math.floor(k * n) >= 1:
                yield a, k


def test_top_k_mask_matches_the_stable_argsort_reference():
    cases = 0
    for a, k in _top_k_cases():
        got = top_k_mask(a, k)
        assert got.dtype == np.float64 and got.shape == a.shape
        assert np.array_equal(got, _stable_argsort_top_k(a, k)), (k, a)
        cases += 1
    assert cases > 1500
    # cap == 1 and k == 1.0 on a row of NaN, ±inf and ties
    row = np.array([np.nan, 2.0, -np.inf, -2.0, np.inf, np.nan, 0.0])
    np.testing.assert_array_equal(top_k_mask(row, 1 / 7), [0, 0, 1, 0, 0, 0, 0])
    np.testing.assert_array_equal(top_k_mask(row, 4 / 7), [0, 1, 1, 1, 1, 0, 0])
    np.testing.assert_array_equal(top_k_mask(row, 1.0), np.ones(7))


def test_sparsify_zero_probability():
    counters = make_counters(width=4, classes=(0,))
    out = sparsify_and_record(np.ones(4), np.zeros(4), 1.0, stream_rng(1).random(4),
                              counters, 0, 0)
    np.testing.assert_array_equal(out, np.zeros(4))
    assert counters.f_c[0].sum() == 0


def test_sparsify_identity_and_recording():
    counters = make_counters(width=4, classes=(3,))
    x = np.array([1.0, 0.0, -2.0, 3.0])
    out = sparsify_and_record(x, np.ones(4), 1.0, stream_rng(2).random(4),
                              counters, 0, 0)
    np.testing.assert_array_equal(out, x)
    np.testing.assert_array_equal(counters.f_c[0].sum(axis=0), [1, 0, 1, 1])
    np.testing.assert_array_equal(counters.f_c[0][0], [1, 0, 1, 1])


def test_sparsify_records_only_with_class_and_layer():
    counters = make_counters(width=4, classes=(0,))
    for c, layer in ((None, 0), (0, None)):
        with pytest.raises(ContractViolation):
            sparsify_and_record(np.ones(4), np.ones(4), 1.0,
                                stream_rng(4).random(4), counters, c, layer)
    assert counters.f_c[0].sum() == 0


def test_sparsify_rejects_degenerate_k():
    with pytest.raises(ContractViolation):
        sparsify_and_record(np.ones(4), np.ones(4), 0.1, stream_rng(3).random(4))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.floats(0.05, 1.0), st.integers(0, 10_000))
def test_sparsity_bound_property(n, k, seed):
    if int(k * n) < 1:
        k = 1.0 / n + 1e-9
    rng = stream_rng(seed)
    x = rng.normal(size=n)
    p = rng.random(n)
    out = sparsify_and_record(x, p, k, stream_rng(seed + 1).random(n))
    assert np.count_nonzero(out) <= math.floor(k * n)


def test_counter_consistency_after_random_trace():
    rng = np.random.default_rng(9)
    counters = make_counters(width=12, layers=(0, 2), classes=(0, 1, 2))
    prev = {l: f_c.copy() for l, f_c in counters.f_c.items()}
    for i in range(500):
        c = int(rng.integers(0, 3))
        layer = int(rng.choice([0, 2]))
        x = rng.normal(size=12)
        sparsify_and_record(x, rng.random(12), 0.5, stream_rng(100 + i).random(12),
                            counters, c, layer)
        for l, f_c in counters.f_c.items():
            assert np.all(f_c >= prev[l])
        prev = {l: f_c.copy() for l, f_c in counters.f_c.items()}


def test_bernoulli_statistical_sanity():
    hits = np.zeros(8)
    p = np.full(8, 0.5)
    x = np.ones(8)
    for i in range(10_000):
        out = sparsify_and_record(x, p, 1.0, stream_rng(7, i).random(8))
        hits += out != 0
    freq = hits / 10_000
    assert np.all(np.abs(freq - 0.5) < 0.02)


def test_counters_csv_dump(tmp_path):
    counters = make_counters(width=2, layers=(1,), classes=(4, 9))
    counters.record(0, 1, np.array([True, False]))
    counters.record(1, 1, np.array([True, True]))
    path = tmp_path / "counters.csv"
    counters.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "layer,unit,F,c4,c9"
    assert lines[1] == "1,0,2,1,1"
    assert lines[2] == "1,1,1,0,1"


def _per_row_reference(x, p, u, k, rows, counters, layer):
    """Brute-force per-row sparsifier with element-by-element counting."""
    cap = math.floor(k * x.shape[1])
    out = np.zeros_like(x)
    f_c = counters.layer(layer)
    for i in range(x.shape[0]):
        a = x[i] * (u[i] < p[i])
        keep = sorted(range(x.shape[1]), key=lambda j: (-abs(a[j]), j))[:cap]
        out[i, keep] = a[keep]
        for j in np.flatnonzero(out[i]):
            f_c[rows[i], j] += 1
    return out


def test_batched_sparsify_and_record_matches_per_row_loop():
    rng = np.random.default_rng(31)
    for trial in range(300):
        b, n = int(rng.integers(1, 9)), int(rng.integers(2, 13))
        if trial % 2:
            x = rng.integers(-2, 3, size=(b, n)).astype(float)  # ties, zeros
        else:
            x = rng.normal(size=(b, n))
        p = rng.random((b, n))
        p[rng.random(b) < 0.25] = 0.0
        u = rng.random((b, n))
        k = (1.0, 1.0 / n + 1e-9, float(rng.uniform(1.0 / n + 1e-9, 1.0)))[trial % 3]
        rows = rng.choice([0, 1, 2], size=b)  # rows repeat in a batch
        got_c = make_counters(width=n, layers=(0, 2), classes=(3, 5, 8))
        ref_c = make_counters(width=n, layers=(0, 2), classes=(3, 5, 8))
        got = sparsify_and_record(x, p, k, u, got_c, rows, 2)
        exp = _per_row_reference(x, p, u, k, rows, ref_c, 2)
        np.testing.assert_array_equal(got, exp)
        np.testing.assert_array_equal(got != 0, exp != 0)
        for l in (0, 2):
            np.testing.assert_array_equal(got_c.f_c[l], ref_c.f_c[l])


def test_record_counts_every_repeated_class_row():
    counters = make_counters(width=3, classes=(1, 2))
    support = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1]], dtype=bool)
    counters.record(np.array([0, 0, 1]), 0, support)
    np.testing.assert_array_equal(counters.f_c[0].sum(axis=0), [2, 2, 1])
    np.testing.assert_array_equal(counters.f_c[0][0], [2, 1, 0])
    np.testing.assert_array_equal(counters.f_c[0][1], [0, 1, 1])


def test_record_rejects_unknown_class_or_wrong_width():
    counters = make_counters(width=2, classes=(1, 7))
    for bad in (-1, len(counters.class_ids)):  # rows never handed out
        with pytest.raises(ContractViolation):
            counters.record(np.array([0, bad]), 0, np.ones((2, 2), dtype=bool))
    with pytest.raises(ContractViolation):
        counters.record(np.array([1]), 0, np.ones((1, 4), dtype=bool))
    with pytest.raises(ContractViolation, match="not a target layer"):
        counters.record(1, 1, np.array([True, False]))
    assert counters.f_c[0].sum() == 0
    counters.record(1, 0, np.array([True, False]))  # one 1-D support row
    np.testing.assert_array_equal(counters.f_c[0], [[0, 0], [1, 0]])


def test_add_task_hands_out_rows_in_order_and_rejects_repeats():
    counters = make_counters(width=2, classes=(4, 9))
    assert counters.add_task((1, 0)) == 2
    assert counters.class_ids == [4, 9, 1, 0]
    assert {l: f_c.shape for l, f_c in counters.f_c.items()} == {0: (4, 2)}
    for classes in ((9, 3), (3, 3)):  # a class with a row, one given twice
        with pytest.raises(ContractViolation):
            counters.add_task(classes)
    assert counters.class_ids == [4, 9, 1, 0]


def test_sparsify_rejects_mismatched_uniforms():
    with pytest.raises(ContractViolation):
        sparsify_and_record(np.ones((2, 4)), np.ones((2, 4)), 0.5,
                            np.zeros((1, 4)))


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf, np.nan]),
    st.floats(-4.0, 4.0))


@st.composite
def _sparsify_inputs(draw):
    """A batch of activations (1-D or 2-D) with ties, signed zeros, all-zero,
    all-equal, repeated and non-finite rows, its gate and a k with cap ≥ 1."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(st.one_of(
        st.lists(VALUES, min_size=n, max_size=n),
        st.sampled_from([0.0, -0.0, 3.0, -3.0, np.nan]).map(lambda v: [v] * n)),
        min_size=1, max_size=3))
    one_d = draw(st.booleans())
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=1, max_size=1 if one_d else 6))
    x = np.array([pool[i] for i in picks])
    p = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                               min_size=x.size, max_size=x.size))).reshape(x.shape)
    u = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                               min_size=x.size, max_size=x.size))).reshape(x.shape)
    k = draw(st.one_of(st.just(1.0), st.just(1.0 / n),
                       st.integers(1, n).map(lambda c: c / n),
                       st.floats(1.0 / n, 1.0)))
    rows = draw(st.lists(st.integers(0, 2), min_size=len(x), max_size=len(x)))
    if one_d:
        return x[0], p[0], u[0], k, rows[0]
    return x, p, u, k, np.array(rows)


@settings(max_examples=400, deadline=None)
@given(_sparsify_inputs())
def test_sparsify_and_record_equals_the_top_k_mask_product(case):
    x, p, u, k, rows = case
    got_c = make_counters(width=x.shape[-1], classes=(4, 0, 7))
    with np.errstate(invalid="ignore"):
        got = sparsify_and_record(x, p, k, u, got_c, rows, 0)
        a = x * (u < p)
        exp = a * top_k_mask(a, k)
    assert got.dtype == exp.dtype and got.shape == exp.shape
    assert got.tobytes() == exp.tobytes()
    f_c = np.zeros((3, x.shape[-1]), dtype=np.int64)
    np.add.at(f_c, np.broadcast_to(rows, x.shape[:-1]).ravel(),
              (exp != 0.0).reshape(-1, x.shape[-1]).astype(np.int64))
    np.testing.assert_array_equal(got_c.f_c[0], f_c)
