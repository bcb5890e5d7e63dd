import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgds.data import (FormatError, SyntheticSpec,
                       embeddings_to_stream, generate_class_pool,
                       generate_synthetic, load_embeddings, split_classes,
                       TaskStream, write_embeddings)
from sgds.numerics import ContractViolation

# frozen output of the pinned generator; guards cross-platform reproducibility
GOLDEN_SPLIT_20x10_SEED1993 = [
    [17, 13], [3, 10], [5, 16], [19, 14], [1, 7],
    [8, 11], [4, 15], [0, 2], [18, 9], [12, 6],
]


def test_split_shapes_protocol():
    parts = split_classes(100, 20, 1993)
    assert len(parts) == 20 and all(len(p) == 5 for p in parts)
    parts = split_classes(200, 10, 1993)
    assert len(parts) == 10 and all(len(p) == 20 for p in parts)


def test_split_is_a_partition():
    parts = split_classes(100, 20, 1993)
    flat = sorted(c for p in parts for c in p)
    assert flat == list(range(100))


def test_split_deterministic():
    assert split_classes(60, 6, 42) == split_classes(60, 6, 42)


def test_split_golden_seed_1993():
    assert split_classes(20, 10, 1993) == GOLDEN_SPLIT_20x10_SEED1993


def test_split_rejects_uneven():
    with pytest.raises(ContractViolation):
        split_classes(10, 3, 0)


def _cos(a, b):
    return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))


def test_synthetic_zero_limit_collapses_to_base():
    spec = SyntheticSpec(groups=2, classes_per_group=3, dim=16,
                         within_group_angle=0.0, noise_sigma=1e-12,
                         samples_per_class_train=5, samples_per_class_test=2,
                         seed=1)
    train, _ = generate_class_pool(spec)
    protos = {c: x.mean(axis=0) for c, x in train.items()}
    for g in range(2):
        ids = [g * 3 + k for k in range(3)]
        for a in ids:
            for b in ids:
                assert _cos(protos[a], protos[b]) == pytest.approx(1.0, abs=1e-9)


def test_synthetic_group_structure():
    spec = SyntheticSpec(seed=0)
    train, _ = generate_class_pool(spec)
    protos = {c: x.mean(axis=0) for c, x in train.items()}
    within, cross = [], []
    for a in range(spec.num_classes):
        for b in range(a + 1, spec.num_classes):
            sim = _cos(protos[a], protos[b])
            same = a // spec.classes_per_group == b // spec.classes_per_group
            (within if same else cross).append(sim)
    assert np.mean(within) > np.mean(cross)


def test_synthetic_deterministic():
    spec = SyntheticSpec(groups=2, classes_per_group=2, dim=8,
                         samples_per_class_train=4, samples_per_class_test=2,
                         seed=9)
    s1 = generate_synthetic(spec, 2, spec.seed)
    s2 = generate_synthetic(spec, 2, spec.seed)
    for t1, t2 in zip(s1.tasks, s2.tasks):
        np.testing.assert_array_equal(t1.train_x, t2.train_x)
        np.testing.assert_array_equal(t1.test_y, t2.test_y)


def test_synthetic_dim_too_small():
    with pytest.raises(ContractViolation):
        SyntheticSpec(groups=8, dim=4)


def test_stream_disjoint_classes():
    spec = SyntheticSpec(groups=2, classes_per_group=4, dim=8,
                         samples_per_class_train=3, samples_per_class_test=2,
                         seed=4)
    stream = generate_synthetic(spec, 4, spec.seed)
    seen = set()
    for t in stream.tasks:
        assert not (set(t.classes) & seen)
        seen |= set(t.classes)


def test_stream_rejects_a_task_without_test_samples():
    spec = SyntheticSpec(groups=2, classes_per_group=2, dim=8,
                         samples_per_class_train=3, samples_per_class_test=2)
    stream = generate_synthetic(spec, 2, spec.seed)
    second = stream.tasks[1]
    second.test_x, second.test_y = second.test_x[:0], second.test_y[:0]
    with pytest.raises(ContractViolation, match="task 2 has no test samples"):
        TaskStream(stream.tasks, stream.input_dim)


def test_low_noise_nearest_prototype_is_perfect():
    spec = SyntheticSpec(groups=2, classes_per_group=3, dim=16,
                         noise_sigma=1e-6, samples_per_class_train=10,
                         samples_per_class_test=5, seed=2)
    stream = generate_synthetic(spec, 2, spec.seed)
    for t in stream.tasks:
        protos = {c: t.train_x[t.train_y == c].mean(axis=0) for c in t.classes}
        ids = list(protos)
        mat = np.stack([protos[c] / np.linalg.norm(protos[c]) for c in ids])
        pred = [ids[i] for i in (t.test_x @ mat.T).argmax(axis=1)]
        assert np.mean(np.array(pred) == t.test_y) == 1.0


def test_embeddings_round_trip(tmp_path):
    path = tmp_path / "x.sgdsemb"
    x = np.array([[1.5, -2.0, 3.25], [0.0, 4.5, -1.75]], dtype=np.float32)
    y = np.array([0, 2])
    write_embeddings(path, x, y, 3)
    rx, ry, nc = load_embeddings(path)
    assert nc == 3 and rx.shape == (2, 3)
    np.testing.assert_array_equal(rx, x.astype(np.float64))
    np.testing.assert_array_equal(ry, y)


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "bad.sgdsemb"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError) as exc:
        load_embeddings(path)
    assert exc.value.offset == 0


def test_embeddings_zero_dim(tmp_path):
    import struct
    path = tmp_path / "z.sgdsemb"
    path.write_bytes(b"SGDSEMB1" + struct.pack("<III", 0, 0, 1))
    with pytest.raises(FormatError) as exc:
        load_embeddings(path)
    assert exc.value.offset == 12


def test_embeddings_truncated(tmp_path):
    path = tmp_path / "t.sgdsemb"
    x = np.ones((2, 3), dtype=np.float32)
    write_embeddings(path, x, np.zeros(2, dtype=int), 1)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_embeddings_label_out_of_range(tmp_path):
    path = tmp_path / "l.sgdsemb"
    write_embeddings(path, np.ones((1, 2), dtype=np.float32), [5], 3)
    with pytest.raises(FormatError) as exc:
        load_embeddings(path)
    assert exc.value.offset == 20


def test_embeddings_errors_name_the_file(tmp_path):
    path = tmp_path / "named.sgdsemb"
    write_embeddings(path, np.ones((2, 3), dtype=np.float32), [0, 1], 2)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match=r"named\.sgdsemb: expected 52 bytes, "
                       r"got 53 \(byte offset 52\)"):
        load_embeddings(path)


def test_embeddings_written_in_one_record_layout(tmp_path):
    import struct
    path = tmp_path / "r.sgdsemb"
    x = np.array([[1.5, -2.0], [0.25, 8.0]], dtype=np.float32)
    write_embeddings(path, x, [1, 0], 2)
    expected = b"SGDSEMB1" + struct.pack("<III", 2, 2, 2)
    for label, row in zip([1, 0], x):
        expected += struct.pack("<I", label) + row.tobytes()
    assert path.read_bytes() == expected


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 3), dim=st.integers(1, 4), classes=st.integers(1, 3),
       data=st.data())
def test_embeddings_cut_or_byte_flip_loads_or_raises_format_error(
        tmp_path_factory, n, dim, classes, data):
    rng = np.random.default_rng(100 * n + 10 * dim + classes)
    path = tmp_path_factory.getbasetemp() / "property.sgdsemb"
    write_embeddings(path, rng.normal(size=(n, dim)).astype(np.float32),
                     rng.integers(0, classes, size=n), classes)
    blob = path.read_bytes()
    i = data.draw(st.integers(0, len(blob) - 1), label="byte")
    if data.draw(st.booleans(), label="cut"):
        blob = blob[:i]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        blob = blob[:i] + bytes([blob[i] ^ flip]) + blob[i + 1:]
    path.write_bytes(blob)
    try:
        x, y, num_classes = load_embeddings(path)
    except FormatError:
        return
    assert x.dtype == np.float64 and y.dtype == np.int64
    assert x.shape[0] == len(y) and np.all((0 <= y) & (y < num_classes))
    assert np.all(np.isfinite(x))


def test_embeddings_to_stream_splits_per_class(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 4)).astype(np.float32)
    y = np.repeat(np.arange(4), 10)
    stream = embeddings_to_stream(x.astype(np.float64), y, 4, 2, 1993, 3)
    assert sum(len(t.classes) for t in stream.tasks) == 4
    for t in stream.tasks:
        for c in t.classes:
            assert (t.train_y == c).sum() == 7
            assert (t.test_y == c).sum() == 3
