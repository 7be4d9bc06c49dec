import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dasvit import Tensor
from dasvit import data as data_mod
from dasvit.data import (BatchPlan, MetricsWriter, epoch_batches,
                         load_checkpoint, load_cifar10, load_parameters, make_synthetic,
                         normalize, resize_images, save_checkpoint,
                         split_dataset, topk_accuracy)
from dasvit.errors import DataError


# -- synthetic -----------------------------------------------------------------------


def test_synthetic_counts_and_ranges():
    ds = make_synthetic(classes=2, per_class=64, image=8, seed=0)
    assert len(ds) == 128
    assert ds.images.shape == (128, 8, 8, 3)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert set(ds.labels.tolist()) == {0, 1}


def test_synthetic_zero_noise_images_identical_within_class():
    ds = make_synthetic(classes=3, per_class=4, image=8, seed=1, noise=0.0)
    for c in range(3):
        block = ds.images[ds.labels == c]
        for img in block[1:]:
            np.testing.assert_array_equal(img, block[0])


def test_nearest_centroid_oracle_is_perfect_at_default_noise():
    ds = make_synthetic(classes=2, per_class=64, image=8, seed=2)
    flat = ds.images.reshape(len(ds), -1).astype(np.float64)
    centroids = np.stack([flat[ds.labels == c].mean(axis=0) for c in range(2)])
    predictions = np.argmin(
        ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
    assert (predictions == ds.labels).mean() == 1.0


def test_synthetic_is_seeded():
    a = make_synthetic(2, 8, 8, seed=5).images
    b = make_synthetic(2, 8, 8, seed=5).images
    np.testing.assert_array_equal(a, b)


# -- cifar-10 binary -------------------------------------------------------------------


def _write_cifar_dir(root, first_label=7, first_red=200):
    rng = np.random.default_rng(0)
    root.mkdir(parents=True, exist_ok=True)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = np.zeros((10000, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, size=10000)
        records[:, 1:] = rng.integers(0, 256, size=(10000, 3072))
        if name == "data_batch_1.bin":
            records[0, 0] = first_label
            records[0, 1] = first_red
        (root / name).write_bytes(records.tobytes())
    return root


@pytest.fixture(scope="module")
def cifar_dir(tmp_path_factory):
    return _write_cifar_dir(tmp_path_factory.mktemp("cifar") / "cifar-10-batches-bin")


def test_cifar_record_zero_decodes_label_and_red_plane(cifar_dir):
    train, _ = load_cifar10(cifar_dir)
    assert train.labels[0] == 7
    assert train.images[0, 0, 0, 0] == pytest.approx(200 / 255.0)
    assert train.images.shape == (50000, 32, 32, 3)


def test_cifar_split_sizes(cifar_dir):
    train, test = load_cifar10(cifar_dir)
    assert len(train) == 50000
    assert len(test) == 10000


def test_cifar_truncated_file_names_the_file(tmp_path):
    root = _write_cifar_dir(tmp_path / "cifar")
    bad = root / "data_batch_3.bin"
    bad.write_bytes(bad.read_bytes()[:-10])
    with pytest.raises(DataError, match="data_batch_3"):
        load_cifar10(root)


def test_cifar_missing_directory():
    with pytest.raises(DataError, match="directory"):
        load_cifar10("/nonexistent/cifar")


# -- normalization ---------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
def test_normalize_roundtrip(seed):
    rng = np.random.default_rng(seed)
    images = rng.random((2, 4, 4, 3)).astype(np.float32)
    mean = np.array([0.49, 0.48, 0.44], dtype=np.float32)
    std = np.array([0.24, 0.24, 0.26], dtype=np.float32)
    back = normalize(images, mean, std) * std + mean
    assert np.abs(back - images).max() < 1e-6


# -- resizing --------------------------------------------------------------------------


def test_resize_nearest_upscale_repeats_pixels():
    images = np.arange(4, dtype=np.float32).reshape(1, 2, 2, 1)
    big = resize_images(images, 4, method="nearest")
    assert big.shape == (1, 4, 4, 1)
    np.testing.assert_array_equal(big[0, :2, :2, 0], images[0, 0, 0, 0])
    np.testing.assert_array_equal(big[0, 2:, 2:, 0], images[0, 1, 1, 0])


def test_resize_bilinear_preserves_constants_and_range():
    rng = np.random.default_rng(0)
    images = rng.random((2, 8, 8, 3)).astype(np.float32)
    out = resize_images(images, 12, method="bilinear")
    assert out.shape == (2, 12, 12, 3)
    assert out.min() >= images.min() - 1e-6 and out.max() <= images.max() + 1e-6
    flat = np.full((1, 8, 8, 3), 0.37, dtype=np.float32)
    np.testing.assert_allclose(resize_images(flat, 16), 0.37, atol=1e-6)


def test_resize_same_size_is_identity():
    images = np.random.default_rng(1).random((1, 8, 8, 3)).astype(np.float32)
    assert resize_images(images, 8) is images
    with pytest.raises(DataError, match="method"):
        resize_images(images, 4, method="bicubic")


# -- splits and batching ---------------------------------------------------------------


def test_split_is_disjoint_and_exhaustive():
    plan = split_dataset(101, val_fraction=0.5, seed=3)
    train, val = set(plan.train_indices.tolist()), set(plan.val_indices.tolist())
    assert not train & val
    assert train | val == set(range(101))


def test_epoch_batches_are_seeded_and_epoch_dependent():
    ds = make_synthetic(2, 32, 8, seed=0)
    idx = np.arange(len(ds))
    plan = BatchPlan(batch_size=16, seed=11)
    a = [b.indices.tolist() for b in epoch_batches(ds, idx, plan, 0, "train")]
    b = [b.indices.tolist() for b in epoch_batches(ds, idx, plan, 0, "train")]
    c = [b.indices.tolist() for b in epoch_batches(ds, idx, plan, 1, "train")]
    assert a == b
    assert a != c
    assert sorted(sum(a, [])) == idx.tolist()


def test_epoch_batches_drop_last():
    ds = make_synthetic(2, 9, 8, seed=0)  # 18 samples
    idx = np.arange(len(ds))
    kept = epoch_batches(ds, idx, BatchPlan(batch_size=4, seed=0, drop_last=True),
                         0, "train")
    assert [len(b.labels) for b in kept] == [4, 4, 4, 4]
    full = epoch_batches(ds, idx, BatchPlan(batch_size=4, seed=0, drop_last=False),
                         0, "train")
    assert [len(b.labels) for b in full] == [4, 4, 4, 4, 2]


def test_batch_split_tag_and_normalization():
    ds = make_synthetic(2, 8, 8, seed=0)
    idx = np.arange(len(ds))
    stats = (np.array([0.5, 0.5, 0.5], dtype=np.float32),
             np.array([0.25, 0.25, 0.25], dtype=np.float32))
    batches = epoch_batches(ds, idx, BatchPlan(8, 0), 0, "val", stats)
    assert all(b.split == "val" for b in batches)
    raw = ds.images[batches[0].indices]
    np.testing.assert_allclose(batches[0].images, (raw - 0.5) / 0.25, atol=1e-6)


# -- metrics ---------------------------------------------------------------------------


def test_metrics_csv_header_and_rows(tmp_path):
    path = tmp_path / "metrics.csv"
    with MetricsWriter(path) as w:
        w.write(0, "train", 1.25, 0.5, 1.0)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,split,loss,top1,top5"
    assert lines[1].startswith("0,train,1.25,0.5,1.0")
    with MetricsWriter(path) as w:  # append-safe: no second header
        w.write(1, "train", 1.0, 0.6, 1.0)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[2].startswith("1,train")


def test_topk_accuracy_chance_and_ordering():
    logits = np.zeros((100, 10))
    labels = np.repeat(np.arange(10), 10)
    assert topk_accuracy(logits, labels, 1) == pytest.approx(0.1)
    assert topk_accuracy(logits, labels, 5) == pytest.approx(0.5)
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((64, 10))
    labels = rng.integers(0, 10, size=64)
    assert topk_accuracy(logits, labels, 5) >= topk_accuracy(logits, labels, 1)
    # k clamps to the class count, so an oversized k covers every class
    assert topk_accuracy(logits, labels, 50) == topk_accuracy(logits, labels, 10) == 1.0


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.float32": rng.standard_normal((3, 4)).astype(np.float32),
        "b.float64": rng.standard_normal(7),
        "c.int64": np.arange(5, dtype=np.int64),
    }
    extras = {"stage": 2, "candidates": [{"kind": "zero"}]}
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, arrays, extras)
    assert path.exists() and path.with_name("state.ckpt.blob").exists()
    loaded, got_extras = load_checkpoint(path)
    assert got_extras == extras
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == arr.tobytes()


def test_checkpoint_truncated_blob_is_detected(tmp_path):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.ones(8)}, {})
    blob = path.with_name("state.ckpt.blob")
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)}, {"epoch": 0})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def disk_full(fd):  # the blob is written, and so synced, first
        raise OSError("no space left on device")

    monkeypatch.setattr(data_mod.os, "fsync", disk_full)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, {"w": np.arange(8.0)}, {"epoch": 1})
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    arrays, extras = load_checkpoint(path)
    assert extras == {"epoch": 0} and arrays["w"].tobytes() == np.arange(4.0).tobytes()

    save_checkpoint(path, {"w": np.arange(8.0)}, {"epoch": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt", "state.ckpt.blob"]
    assert load_checkpoint(path)[1] == {"epoch": 1}

    # the manifest is written last: a first write that fails after its blob
    # leaves no manifest that could point at a missing blob
    syncs = []

    def second_sync_fails(fd):
        syncs.append(fd)
        if len(syncs) == 2:
            raise OSError("no space left on device")

    monkeypatch.setattr(data_mod.os, "fsync", second_sync_fails)
    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "new.ckpt", {"w": np.ones(2)})
    monkeypatch.undo()
    assert not (tmp_path / "new.ckpt").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "new.ckpt.blob", "state.ckpt", "state.ckpt.blob"]


def test_manifest_paired_with_another_writes_blob_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.zeros(3)}, {"epoch": 0})
    syncs = []

    def manifest_sync_fails(fd):  # the blob is renamed into place, the manifest not
        syncs.append(fd)
        if len(syncs) == 2:
            raise OSError("no space left on device")

    monkeypatch.setattr(data_mod.os, "fsync", manifest_sync_fails)
    with pytest.raises(OSError):
        save_checkpoint(path, {"w": np.ones(3)}, {"epoch": 1})
    monkeypatch.undo()
    with pytest.raises(DataError, match="state.ckpt: blob sha256 .* differs"):
        load_checkpoint(path)


def test_corrupt_checkpoint_raises_data_error(tmp_path):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)}, {})
    blob = path.with_name("state.ckpt.blob")
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 1
    blob.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="state.ckpt: blob sha256"):
        load_checkpoint(path)

    save_checkpoint(path, {"w": np.arange(4.0)}, {})
    manifest = json.loads(path.read_text())
    manifest["arrays"]["w"]["shape"] = [5]
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=r"state.ckpt: array 'w' .* shape \[5\]"):
        load_checkpoint(path)
    manifest["arrays"]["w"].update(shape=[4], nbytes=28)
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="state.ckpt: array 'w' \\(28 bytes"):
        load_checkpoint(path)


def test_load_parameters_is_strict_and_all_or_nothing():
    params = {"a": Tensor(np.zeros(2, dtype=np.float32)), "b": Tensor(np.zeros((2, 3)))}
    good = {"a": np.ones(2), "b": np.ones((2, 3)), "opt.step": np.array([3])}
    for arrays, message in [
        ({"a": np.ones(2)}, "no array 'b'"),
        ({**good, "b": np.ones((3, 2))}, r"'b' has shape \(3, 2\), expected \(2, 3\)"),
        ({**good, "c": np.ones(1)}, "'c' matches no parameter"),
    ]:
        with pytest.raises(DataError, match=f"ckpt-x: .*{message}"):
            load_parameters(params, arrays, "ckpt-x")
        assert not params["a"].data.any() and not params["b"].data.any()
    with pytest.raises(DataError, match="no array 'opt.m.a'"):
        load_parameters(params, good, "ckpt-x", opt_state={"opt.m.a": np.zeros(2)})
    load_parameters(params, good, "ckpt-x", opt_state={"opt.step": np.array([0])})
    assert params["a"].data.dtype == np.float32
    np.testing.assert_array_equal(params["a"].data, [1.0, 1.0])
    assert params["a"].data is not good["a"]
