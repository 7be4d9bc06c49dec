import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasvit import Tensor, desk_config
from dasvit import data as data_mod
from dasvit.data import (BatchPlan, RunLog, epoch_batches,
                         load_checkpoint, load_cifar10, load_parameters, make_synthetic,
                         normalize, resize_images, save_checkpoint,
                         split_dataset, topk_accuracy)
from dasvit.errors import DataError
from dasvit.search import build_datasets
from oracles import JSON_VALUES, edit_manifest, set_json_path


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


def test_cifar_source_is_normalized_by_its_train_statistics(cifar_dir):
    cfg = desk_config()
    cfg.model.classes = 10
    cfg.data.source, cfg.data.dir = "cifar10", str(cifar_dir)
    expected = [normalize(resize_images(split.images, cfg.model.image),
                          data_mod.CIFAR10_MEAN, data_mod.CIFAR10_STD)
                for split in load_cifar10(cifar_dir)]
    for ds, want in zip(build_datasets(cfg.validate(), 0), expected):
        np.testing.assert_array_equal(ds.images, want)


def test_cifar_datasets_never_hold_half_the_images_at_full_size(cifar_dir):
    """Each batch file is resized as it is read, so building the desk-size
    datasets peaks well below even half of the 60,000 float32 images at
    32x32; concatenating them all before resizing held that size twice."""
    cfg = desk_config()
    cfg.model.classes = 10
    cfg.data.source, cfg.data.dir = "cifar10", str(cifar_dir)
    cfg = cfg.validate()
    full_bytes = 60000 * 32 * 32 * 3 * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        build_datasets(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= full_bytes / 2, f"peak {peak} for {full_bytes} full-size bytes"


def test_cifar_datasets_peak_below_one_full_size_batch_file(cifar_dir):
    """Each file's records are converted and resized a chunk at a time into
    one preallocated array per split, and normalization makes one fresh
    buffer: building the desk-size datasets peaks below one batch file of
    10,000 float32 images at 32x32."""
    cfg = desk_config()
    cfg.model.classes = 10
    cfg.data.source, cfg.data.dir = "cifar10", str(cifar_dir)
    cfg = cfg.validate()
    file_bytes = 10000 * 32 * 32 * 3 * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        build_datasets(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < file_bytes, f"peak {peak} for {file_bytes} bytes of one file"


def test_synthetic_source_is_never_normalized():
    cfg = desk_config()
    train, _ = build_datasets(cfg, 0)
    syn = cfg.data.synthetic
    np.testing.assert_array_equal(
        train.images, make_synthetic(syn.classes, syn.per_class, syn.image, 0,
                                     noise=syn.noise).images)
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0


# -- resizing --------------------------------------------------------------------------


def test_resize_bilinear_preserves_constants_and_range():
    rng = np.random.default_rng(0)
    images = rng.random((2, 8, 8, 3)).astype(np.float32)
    out = resize_images(images, 12)
    assert out.shape == (2, 12, 12, 3)
    assert out.min() >= images.min() - 1e-6 and out.max() <= images.max() + 1e-6
    flat = np.full((1, 8, 8, 3), 0.37, dtype=np.float32)
    np.testing.assert_allclose(resize_images(flat, 16), 0.37, atol=1e-6)


def test_resize_same_size_is_identity():
    images = np.random.default_rng(1).random((1, 8, 8, 3)).astype(np.float32)
    assert resize_images(images, 8) is images


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


def test_batch_split_tag():
    ds, _ = build_datasets(desk_config(), 0)
    batches = epoch_batches(ds, np.arange(len(ds)), BatchPlan(8, 0), 0, "val")
    assert all(b.split == "val" for b in batches)


# -- metrics ---------------------------------------------------------------------------


METRICS_HEADER = ("epoch", "split", "loss", "top1", "top5")


def test_metrics_csv_header_and_rows(tmp_path):
    path = tmp_path / "metrics.csv"
    with RunLog(path, 0, header=METRICS_HEADER) as w:
        w.write([0, "train", 1.25, 0.5, 1.0])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,split,loss,top1,top5"
    assert lines[1].startswith("0,train,1.25,0.5,1.0")
    with RunLog(path, 1, header=METRICS_HEADER) as w:  # append-safe: no second header
        w.write([1, "train", 1.0, 0.6, 1.0])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[2].startswith("1,train")


def test_run_log_line_ends_flush_and_fsync_on_close(tmp_path, monkeypatch):
    synced, fsync = [], os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), fsync(fd)))
    csv_path, json_path = tmp_path / "a.csv", tmp_path / "b.jsonl"
    with RunLog(csv_path, 0, header=("epoch", "x")) as csv_log, \
            RunLog(json_path, 0) as json_log:
        csv_log.write([0, 1.5], [1, 2.5])
        json_log.write({"x": 1.5, "epoch": 0})
        assert csv_path.read_bytes() == b"epoch,x\r\n0,1.5\r\n1,2.5\r\n"
        assert json_path.read_bytes() == b'{"epoch": 0, "x": 1.5}\n'
        assert not synced
    assert len(synced) == 2


def _jsonl(rows) -> bytes:
    return b"".join(json.dumps(r, sort_keys=True).encode() + b"\n" for r in rows)


def test_run_log_cut_keeps_earlier_epochs_and_drops_a_cut_short_line(tmp_path):
    path = tmp_path / "log.jsonl"
    rows = [{"epoch": e, "step": s} for e in range(3) for s in range(2)]
    path.write_bytes(_jsonl(rows) + b'{"epoch": 3, "l1": 0.')
    with RunLog(path, 2) as log:
        log.write({"epoch": 2, "step": 0})
    assert path.read_bytes() == _jsonl(rows[:4] + [{"epoch": 2, "step": 0}])

    csv_path = tmp_path / "log.csv"
    csv_path.write_bytes(b"epoch,x\r\n0,a\r\n1,b\r\n1")  # "1" was "12,c"
    with RunLog(csv_path, 2, header=("epoch", "x")) as log:
        log.write([2, "c"])
    assert csv_path.read_bytes() == b"epoch,x\r\n0,a\r\n1,b\r\n2,c\r\n"


def test_run_log_rewrites_only_when_rows_go(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_bytes(_jsonl([{"epoch": 0}, {"epoch": 1}]))
    replaced = []
    monkeypatch.setattr(data_mod, "_replace_file", lambda p, _: replaced.append(p))
    with RunLog(path, 2):
        pass
    assert replaced == []
    with RunLog(path, 1):
        pass
    assert replaced == [path]


@pytest.mark.parametrize("header, key, bad", [
    (None, "epoch", b"not json"),
    (None, "epoch", b'{"step": 1}'),
    (None, "epoch", b'{"epoch": true}'),
    (None, "epoch", b'[0]'),
    (None, "global_epoch", b'{"epoch": 1}'),
    (("epoch", "x"), "epoch", b"x,1\r"),
    (("epoch", "x"), "epoch", b"\r"),
], ids=["not-json", "no-key", "bool-epoch", "list", "other-key", "csv-text", "csv-blank"])
def test_run_log_refuses_a_line_without_an_epoch(tmp_path, header, key, bad):
    path = tmp_path / "log"
    first = b"epoch,x\r\n" if header else b""
    row = b"0,1\r\n" if header else _jsonl([{"epoch": 0, "global_epoch": 0}])
    text = first + row + bad + b"\n" + row
    path.write_bytes(text)
    line = 3 if header else 2
    with pytest.raises(DataError, match=f"^log: {re.escape(str(path))}: line {line} "):
        RunLog(path, 1, header=header, epoch_key=key)
    assert path.read_bytes() == text
    with RunLog(path, 0, header=header, epoch_key=key):  # a fresh run: unread
        pass
    assert path.read_bytes() == first


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
    # one file: a one-line manifest, then the arrays' bytes in name order
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
    head, data = path.read_bytes().split(b"\n", 1)
    assert json.loads(head)["version"] == 2
    assert data == b"".join(arrays[name].tobytes() for name in sorted(arrays))
    loaded, got_extras = load_checkpoint(path)
    assert got_extras == extras
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == arr.tobytes()


def test_checkpoint_truncated_blob_is_detected(tmp_path):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.ones(8)}, {})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError, match="state.ckpt: data truncated for array 'w'"):
        load_checkpoint(path)


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="checkpoint: file not found: .*missing.ckpt"):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_a_version_1_manifest_and_blob_pair_is_refused(tmp_path):
    path = tmp_path / "state.ckpt"
    w = np.arange(4.0)
    path.with_name("state.ckpt.blob").write_bytes(w.tobytes())
    path.write_text(json.dumps({
        "format": "dasvit-checkpoint", "version": 1, "blob": "state.ckpt.blob",
        "sha256": hashlib.sha256(w.tobytes()).hexdigest(), "extras": {},
        "arrays": {"w": {"shape": [4], "dtype": "<f8", "offset": 0, "nbytes": 32}},
    }, indent=2, sort_keys=True) + "\n")
    with pytest.raises(DataError, match=f"^checkpoint: {re.escape(str(path))} is a "
                                        "version-1 manifest\\+blob pair, not read$"):
        load_checkpoint(path)

    save_checkpoint(path, {"w": w})
    edit_manifest(path, lambda manifest: manifest.update(version=3))
    with pytest.raises(DataError, match="state.ckpt is not a dasvit-checkpoint version-2"):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)}, {"epoch": 0})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def disk_full(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(data_mod.os, "fsync", disk_full)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, {"w": np.arange(8.0)}, {"epoch": 1})
    # a first write that fails leaves no file behind
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(tmp_path / "new.ckpt", {"w": np.ones(2)})
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    arrays, extras = load_checkpoint(path)
    assert extras == {"epoch": 0} and arrays["w"].tobytes() == np.arange(4.0).tobytes()

    save_checkpoint(path, {"w": np.arange(8.0)}, {"epoch": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
    assert load_checkpoint(path)[1] == {"epoch": 1}


def test_corrupt_checkpoint_raises_data_error(tmp_path):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)}, {})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="state.ckpt: data sha256 .* differs"):
        load_checkpoint(path)

    save_checkpoint(path, {"w": np.arange(4.0)}, {})
    edit_manifest(path, lambda manifest: manifest["arrays"]["w"].update(shape=[5]))
    with pytest.raises(DataError, match=r"state.ckpt: array 'w' .* shape \[5\]"):
        load_checkpoint(path)
    edit_manifest(path, lambda manifest: manifest["arrays"]["w"].update(shape=[4],
                                                                        nbytes=28))
    with pytest.raises(DataError, match="state.ckpt: array 'w' \\(28 bytes"):
        load_checkpoint(path)


def test_bytes_no_array_covers_still_go_into_the_checksum(tmp_path):
    path = tmp_path / "state.ckpt"
    a, b = np.arange(4.0), np.arange(4.0, 8.0)
    save_checkpoint(path, {"a": a, "b": b})
    with open(path, "ab") as fh:  # padded
        fh.write(b"\0")
    with pytest.raises(DataError, match="state.ckpt: data sha256 .* differs"):
        load_checkpoint(path)

    save_checkpoint(path, {"a": a, "b": b})
    edit_manifest(path, lambda manifest: manifest["arrays"].pop("a"))
    arrays, _ = load_checkpoint(path)  # a's bytes, now uncovered, still hash
    assert list(arrays) == ["b"] and arrays["b"].tobytes() == b.tobytes()
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"\n") + 1] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="state.ckpt: data sha256 .* differs"):
        load_checkpoint(path)

    save_checkpoint(path, {"a": a, "b": b})
    edit_manifest(path, lambda manifest: manifest["arrays"]["b"].update(offset=16))
    arrays, _ = load_checkpoint(path)  # overlapping arrays each get their bytes
    assert arrays["a"].tobytes() == a.tobytes()
    assert arrays["b"].tobytes() == np.concatenate([a[2:], b[:2]]).tobytes()


def test_a_load_holds_one_copy_of_the_data(tmp_path):
    arrays = {f"w{i}": np.full((256, 1024), i, np.float32) for i in range(16)}
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, arrays)
    data_bytes = sum(a.nbytes for a in arrays.values())
    del arrays
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * data_bytes, f"peak {peak} for {data_bytes} data bytes"
    assert all((loaded[f"w{i}"] == i).all() for i in range(16))


@pytest.mark.parametrize("damage, message", [
    ("truncated", r"state.ckpt: invalid JSON manifest"),
    ("arrays", r"state.ckpt: manifest has no key 'arrays'"),
    ("offset", r"state.ckpt: array 'w' has no key 'offset'"),
], ids=["truncated", "arrays", "offset"])
def test_malformed_manifest_raises_data_error_naming_the_key(tmp_path, damage,
                                                             message):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)}, {})
    if damage == "truncated":  # cut inside the manifest line
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.index(b"\n") // 2])
    else:
        edit_manifest(path, lambda manifest: (
            manifest["arrays"]["w"] if damage == "offset" else manifest).pop(damage))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


MANIFEST_PATHS = [("version",), ("sha256",), ("extras",), ("format",), ("arrays",),
                  ("arrays", "w")] + [("arrays", "w", key)
                                      for key in ("offset", "nbytes", "dtype", "shape")]


@settings(max_examples=200)
@given(st.sampled_from(MANIFEST_PATHS), JSON_VALUES)
def test_any_json_value_in_a_manifest_loads_or_raises_data_error(tmp_path_factory,
                                                                  path, value):
    ckpt = tmp_path_factory.mktemp("fuzz") / "state.ckpt"
    save_checkpoint(ckpt, {"w": np.arange(4.0)}, {"epoch": 0})
    edit_manifest(ckpt, lambda manifest: set_json_path(manifest, path, value))
    try:
        load_checkpoint(ckpt)
    except DataError:
        pass


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
