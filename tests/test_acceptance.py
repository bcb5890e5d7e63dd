"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line on
the real stdout so the verdicts are visible even under pytest capture.
"""

import math
import time

import numpy as np
import pytest

from sgds.data import split_classes
from sgds.experiment import (ABLATION_CELLS, Config, build_stream,
                             parse_config, run_single, strategy_counts)
from sgds.inference import (_entropy, _softmax, adapter_logits, predict,
                            select_by_entropy, summarize)
from sgds.masking import (ActivationCounters, allocation_probability,
                          compaction_probability, reuse_probability,
                          sparsify_and_record)
from sgds.model import Adapter, merge_universal

from test_numerics import engine_graph, max_rel_error_vs_fd
from test_training import trained_state

SEEDS = (1993, 1994, 1995, 1996, 1997)

# frozen regression values: 5-seed mean average incremental accuracy per cell
EXPECTED_A_BAR = {
    "baseline": 63.5924920635,
    "se_only": 68.3208730159,
    "ac_only": 63.5363730159,
    "full": 68.5537222222,
}

GOLDEN_SPLIT = [[17, 13], [3, 10], [5, 16], [19, 14], [1, 7],
                [8, 11], [4, 15], [0, 2], [18, 9], [12, 6]]


@pytest.fixture
def verdict(capfd):
    """Prints one PASS/FAIL line per criterion on the real terminal."""
    def _verdict(num: int, desc: str, ok: bool) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


@pytest.fixture(scope="session")
def ablation_grid():
    """The SE/AC grid over the default protocol, 5 seeds per cell."""
    cfg = parse_config()
    streams = {s: build_stream(cfg, s) for s in SEEDS}
    results = {}
    t0 = time.perf_counter()
    for name, enabled, se, ac in ABLATION_CELLS:
        cell = Config(dict(cfg.values))
        cell.values.update({"sgds.enabled": enabled, "sgds.se": se,
                            "sgds.ac": ac})
        results[name] = [run_single(cell, s, stream=streams[s]) for s in SEEDS]
    return results, time.perf_counter() - t0


def _oracle_reuse(weighted_rows, n):
    out = []
    for j in range(n):
        acc = 0.0
        for p, row in weighted_rows:
            mx = max(row)
            if mx > 0:
                acc += p * row[j] / mx
        out.append(1.0 - math.exp(-acc))
    return out


def _oracle_alloc(row, beta):
    mx = max(row)
    if mx == 0:
        return [1.0] * len(row)
    return [math.exp(-beta * v / mx) for v in row]


def _oracle_compact(row, gamma):
    mx = max(row)
    if mx == 0:
        return [1.0] * len(row)
    return [1.0 - math.exp(-gamma * v / mx) for v in row]


def test_01_sparsification_probability_formulas(verdict):
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        n_classes = int(rng.integers(1, 5))
        counters = ActivationCounters((0,), n)
        rows = []
        for c in range(n_classes):
            counters.ensure_class(c)
            row = rng.integers(0, 40, size=n)
            if rng.random() < 0.2:
                row[:] = 0  # zero history must contribute nothing
            counters.f_c[c, 0] = row
            rows.append(row)
        counters.f[0] = counters.f_c.sum(axis=0)[0]
        probs = rng.random(n_classes)
        probs /= probs.sum()
        relation = {c: float(probs[c]) for c in range(n_classes)}
        beta, gamma = float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))
        got_r = reuse_probability(counters, relation, 0)
        got_a = allocation_probability(counters, 0, beta)
        got_c = compaction_probability(counters, 0, 0, gamma)
        exp_r = _oracle_reuse([(relation[c], list(map(int, counters.f_c[c, 0])))
                               for c in range(n_classes)], n)
        exp_a = _oracle_alloc(list(map(int, counters.f[0])), beta)
        exp_c = _oracle_compact(list(map(int, counters.f_c[0, 0])), gamma)
        for got, exp in ((got_r, exp_r), (got_a, exp_a), (got_c, exp_c)):
            worst = max(worst, float(np.max(np.abs(got - np.array(exp)))))
    elapsed = time.perf_counter() - t0

    # tabulated fixed points of the formulas
    c2 = ActivationCounters((0,), 2)
    c2.ensure_class(0)
    c2.f_c[0, 0] = [5, 5]
    c2.f[0] = [5, 5]
    fixed_ok = (
        abs(allocation_probability(c2, 0, 0.5)[0] - 0.60653065971263342) < 1e-12
        and abs(reuse_probability(c2, {0: 0.5}, 0)[0]
                - 0.39346934028736658) < 1e-12
        and abs(compaction_probability(c2, 0, 0, 1.0)[0]
                - 0.63212055882855767) < 1e-12)

    verdict(1, "usage-driven probabilities match a pure-python oracle "
            f"(max abs err {worst:.2e}, {elapsed:.2f}s)",
            worst < 1e-12 and fixed_ok and elapsed < 1.0)


def test_02_two_stage_sparsifier_matches_brute_force(verdict):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    ok = True
    for trial in range(10000):
        n = int(rng.integers(2, 13))
        if rng.random() < 0.5:
            x = rng.integers(-3, 4, size=n).astype(float) * 0.5  # forces ties
        else:
            x = rng.normal(size=n)
        p = rng.random(n)
        if rng.random() < 0.1:
            p = np.where(rng.random(n) < 0.5, 0.0, 1.0)
        k = float(rng.uniform(1.0 / n + 1e-9, 1.0))
        cap = int(math.floor(k * n))
        seed = 100000 + trial
        out = sparsify_and_record(x, p, k, np.random.default_rng(seed).random(n))
        m = (np.random.default_rng(seed).random(n) < p).astype(float)
        a = x * m
        keep = sorted(range(n), key=lambda i: (-abs(a[i]), i))[:cap]
        exp = np.zeros(n)
        exp[keep] = a[keep]
        if not np.array_equal(out, exp):
            ok = False
            break
        if np.count_nonzero(out) != min(cap, np.count_nonzero(a)):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    verdict(2, "Bernoulli + magnitude top-k output matches brute-force sort "
            f"over 10000 cases incl. ties ({elapsed:.2f}s)",
            ok and elapsed < 5.0)


def test_03_counter_consistency_under_load(verdict):
    rng = np.random.default_rng(13)
    n, layers, classes = 8, (0, 1), range(5)
    counters = ActivationCounters(layers, n)
    for c in classes:
        counters.ensure_class(c)
    ok = True
    prev_f = counters.f.copy()
    prev_fc = counters.f_c.copy()
    for i in range(10000):
        c = int(rng.integers(0, 5))
        layer = int(rng.choice(layers))
        x = rng.normal(size=n)
        p = rng.random(n)
        sparsify_and_record(x, p, 0.6, rng.random(n), counters=counters, c=c,
                            layer=layer, record=True)
        if i % 500 == 0:
            if not np.array_equal(counters.f, counters.f_c.sum(axis=0)):
                ok = False
                break
            if (counters.f < prev_f).any() or (counters.f_c < prev_fc).any():
                ok = False
                break
            prev_f = counters.f.copy()
            prev_fc = counters.f_c.copy()
    ok = ok and np.array_equal(counters.f, counters.f_c.sum(axis=0))
    verdict(3, "global counters stay the per-class sum and never decrease "
            "across 10000 recorded sparsifications", ok)


def test_04_gradients_match_finite_differences(verdict):
    rng = np.random.default_rng(17)
    worst = 0.0
    for i in range(50):
        d = int(rng.integers(2, 17))
        r = int(rng.integers(1, min(4, max(2, d // 2)) + 1))
        params, loss_fn = engine_graph(1000 + i, d=d, r=r, masked=bool(i % 2))
        worst = max(worst, max_rel_error_vs_fd(params, loss_fn, h=1e-4))
    verdict(4, "adapter-graph gradients match central finite differences "
            f"over 50 random graphs (max rel err {worst:.2e})", worst < 1e-4)


def _rand_adapters(rng, d, r, layers, count):
    ads = []
    for t in range(count):
        a = Adapter.create(t, d, r, layers, seed=int(rng.integers(1 << 30)))
        ads.append(a.with_flat(rng.normal(size=a.flatten().size)
                               * rng.choice([0.0, 1.0], size=a.flatten().size,
                                            p=[0.3, 0.7])))
    return ads


def test_05_fusion_selection_and_prediction(verdict):
    rng = np.random.default_rng(19)
    merge_ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        r = max(1, d // 4)
        ads = _rand_adapters(rng, d, r, (0,), int(rng.integers(2, 5)))
        flats = np.stack([a.flatten() for a in ads])
        s = flats.sum(axis=0)
        exp = np.sign(s) * np.abs(flats).max(axis=0)
        if not np.array_equal(merge_universal(ads).flatten(), exp):
            merge_ok = False
            break

    state, _, _ = trained_state(tasks=3)
    x = np.random.default_rng(23).normal(size=(1000, 16))
    per = np.stack([adapter_logits(x, state, a) for a in state.adapters])
    ents = np.stack([_entropy(_softmax(logits)) for logits in per])
    exp_sel = np.array([min(range(len(state.adapters)),
                            key=lambda t: (ents[t, i], t))
                        for i in range(x.shape[0])])
    select_ok = np.array_equal(select_by_entropy(per), exp_sel)

    uni = merge_universal(list(state.adapters))
    uni_logits = adapter_logits(x, state, uni)
    exp_pred = []
    for i in range(x.shape[0]):
        total = per[exp_sel[i], i] + uni_logits[i]
        best = min((cid for j, cid in enumerate(state.class_ids)
                    if total[j] == total.max()))
        exp_pred.append(best)
    predict_ok = np.array_equal(predict(x, state), np.array(exp_pred))

    verdict(5, "adapter fusion, entropy selection and ensemble prediction "
            "match term-by-term recomputation",
            merge_ok and select_ok and predict_ok)


def test_06_metrics_and_class_split(verdict):
    m1 = summarize(np.array([[90.0]]))
    m2 = summarize(np.array([[80.0, np.nan], [70.0, 90.0]]))
    const = np.full((4, 4), 55.0)
    const[np.triu_indices(4, 1)] = np.nan
    m3 = summarize(const)
    metrics_ok = (m1 == (90.0, 90.0)
                  and abs(m2[0] - 80.0) < 1e-12 and abs(m2[1] - 80.0) < 1e-12
                  and abs(m3[0] - 55.0) < 1e-12 and abs(m3[1] - 55.0) < 1e-12)
    split = split_classes(20, 10, 1993)
    split_ok = [list(t) for t in split] == GOLDEN_SPLIT
    verdict(6, "incremental-accuracy metrics and the pinned class split "
            "reproduce their reference values", metrics_ok and split_ok)


def test_07_strategy_mix_trends(ablation_grid, verdict):
    results, _ = ablation_grid
    ratios = []
    first_ok = True
    for res in results["full"]:
        rows = strategy_counts(res.state)
        first_ok &= rows[0]["reuse"] == 0
        ratios.append([r["reuse"] / (r["reuse"] + r["allocate"]) for r in rows])
    mean = np.array(ratios).mean(axis=0)
    later_ok = mean[1:].sum() > 0
    tail = mean[-4:]
    trend_ok = all(tail[i + 1] >= tail[i] - 1e-12 for i in range(len(tail) - 1))
    verdict(7, "first task allocates new subspace for every class and the "
            f"reuse ratio rises then saturates (mean per task {np.round(mean, 3).tolist()})",
            first_ok and later_ok and trend_ok)


def test_08_component_grid_reproduces_reference(ablation_grid, verdict):
    results, elapsed = ablation_grid
    means = {name: float(np.mean([r.a_bar for r in res]))
             for name, res in results.items()}
    close_ok = all(abs(means[n] - EXPECTED_A_BAR[n]) < 1e-6
                   for n in EXPECTED_A_BAR)
    order_ok = all(means["full"] >= means[n] - 1e-9
                   for n in ("baseline", "se_only", "ac_only"))
    verdict(8, "5-seed component grid reproduces frozen accuracies and the "
            f"full system is best ({ {k: round(v, 4) for k, v in means.items()} }, "
            f"{elapsed:.0f}s)", close_ok and order_ok and elapsed < 300)


def test_09_repeat_runs_are_byte_identical(tmp_path, verdict):
    from sgds.experiment import run_experiment
    cfg = parse_config(overrides={
        "tasks.count": "3", "dataset.groups": "2",
        "dataset.classes_per_group": "3", "dataset.train_per_class": "20",
        "dataset.test_per_class": "10", "train.epochs": "4",
        "model.dim": "16", "model.layers": "2", "adapter.rank": "4",
        "align.samples": "32"})
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    same = all((tmp_path / "a" / "seed_1993" / n).read_bytes()
               == (tmp_path / "b" / "seed_1993" / n).read_bytes()
               for n in ("results.csv", "strategy.csv", "counters.csv"))
    verdict(9, "identical configuration and seed give byte-identical result, "
            "strategy and counter files", same)
