"""Dataset ingestion, batching, normalization, metrics and checkpoints.

Randomness is derived, never mutated: every consumer asks `rng_for` for a
generator keyed by (seed, purpose tags), so any segment of a run can be
reproduced or resumed without serializing generator state.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

# purpose tags for rng_for (0 is retired; the numbering of the rest is fixed)
RNG_SYNTH = 1
RNG_SPLIT = 2
RNG_SHUFFLE = 3
RNG_STAGE = 4
RNG_RETRAIN = 5


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for (seed, purpose); independent across tags."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                        spawn_key=tuple(tags)))


@dataclass
class Dataset:
    """Images in [0, 1] with integer labels; normalization happens at batch time."""

    images: np.ndarray  # (M, H, W, C) float32 in [0, 1]
    labels: np.ndarray  # (M,) int64 in [0, classes)
    classes: int

    def __post_init__(self):
        if self.images.ndim != 4 or self.labels.ndim != 1:
            raise DataError(
                f"dataset: images {self.images.shape} / labels {self.labels.shape}")
        if len(self.images) != len(self.labels):
            raise DataError("dataset: image/label count mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise DataError("dataset: label outside [0, classes)")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices], self.classes)


# -- synthetic generator -----------------------------------------------------------


def make_synthetic(classes: int, per_class: int, image: int, seed: int,
                   channels: int = 3, noise: float = 0.05) -> Dataset:
    """Class-conditional Gaussian-blob images, linearly separable at default noise.

    Each class gets a fixed blob position on a circle; zero noise makes all
    images of a class identical.
    """
    rng = rng_for(seed, RNG_SYNTH)
    yy, xx = np.mgrid[0:image, 0:image].astype(np.float64)
    sigma = image / 6.0
    center = (image - 1) / 2.0
    radius = image / 4.0
    images = np.zeros((classes * per_class, image, image, channels), dtype=np.float64)
    labels = np.zeros(classes * per_class, dtype=np.int64)
    for c in range(classes):
        angle = 2.0 * np.pi * c / classes
        cy = center + radius * np.sin(angle)
        cx = center + radius * np.cos(angle)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        block = slice(c * per_class, (c + 1) * per_class)
        images[block] = bump[None, :, :, None]
        labels[block] = c
    if noise:
        images += noise * rng.standard_normal(images.shape)
    images = np.clip(images, 0.0, 1.0)
    return Dataset(images.astype(np.float32), labels, classes)


# -- CIFAR-10 binary format ------------------------------------------------------

_CIFAR_RECORD = 3073  # 1 label byte + 3 x 1024 channel-planar pixel bytes
_CIFAR_RECORDS_PER_FILE = 10000
_CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}" for i in range(1, 6))
_CIFAR_TEST_FILE = "test_batch"

#: Train-split per-channel statistics of the [0, 1]-scaled pixels.
CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)


def _cifar_file(directory: Path, stem: str) -> Path:
    for name in (f"{stem}.bin", stem):
        p = directory / name
        if p.exists():
            return p
    raise DataError(f"cifar10: {stem}(.bin) not found in {directory}")


def _read_cifar_batch(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size != _CIFAR_RECORD * _CIFAR_RECORDS_PER_FILE:
        raise DataError(
            f"cifar10: {path} holds {raw.size} bytes, expected "
            f"{_CIFAR_RECORD * _CIFAR_RECORDS_PER_FILE} "
            f"({_CIFAR_RECORDS_PER_FILE} records of {_CIFAR_RECORD} bytes)")
    records = raw.reshape(_CIFAR_RECORDS_PER_FILE, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise DataError(f"cifar10: {path} contains a label byte > 9")
    # channel-planar R,G,B planes, each 32x32 row-major
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return (pixels.astype(np.float32) / 255.0), labels


def load_cifar10(directory) -> tuple[Dataset, Dataset]:
    """Load the standard binary batches: 50,000 train / 10,000 test images."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"cifar10: directory not found: {directory}")
    images, labels = [], []
    for stem in _CIFAR_TRAIN_FILES:
        img, lab = _read_cifar_batch(_cifar_file(directory, stem))
        images.append(img)
        labels.append(lab)
    train = Dataset(np.concatenate(images), np.concatenate(labels), classes=10)
    img, lab = _read_cifar_batch(_cifar_file(directory, _CIFAR_TEST_FILE))
    test = Dataset(img, lab, classes=10)
    return train, test


# -- resizing --------------------------------------------------------------------


def resize_images(images: np.ndarray, size: int, method: str = "bilinear") -> np.ndarray:
    """Resize a (M, H, W, C) batch to (M, size, size, C).

    Nearest keeps exact pixel values; bilinear uses half-pixel centers. Both
    stay inside the input value range.
    """
    if method not in ("nearest", "bilinear"):
        raise DataError(f"resize: unknown method {method!r}")
    m, h, w, c = images.shape
    if (h, w) == (size, size):
        return images
    if method == "nearest":
        rows = np.clip(((np.arange(size) + 0.5) * h / size).astype(np.int64), 0, h - 1)
        cols = np.clip(((np.arange(size) + 0.5) * w / size).astype(np.int64), 0, w - 1)
        return images[:, rows][:, :, cols]
    # bilinear with half-pixel alignment
    def grid(n_src):
        src = (np.arange(size) + 0.5) * n_src / size - 0.5
        lo = np.clip(np.floor(src).astype(np.int64), 0, n_src - 1)
        hi = np.clip(lo + 1, 0, n_src - 1)
        frac = np.clip(src - lo, 0.0, 1.0).astype(images.dtype)
        return lo, hi, frac

    r_lo, r_hi, r_f = grid(h)
    c_lo, c_hi, c_f = grid(w)
    top = images[:, r_lo][:, :, c_lo] * (1 - c_f)[None, None, :, None] \
        + images[:, r_lo][:, :, c_hi] * c_f[None, None, :, None]
    bottom = images[:, r_hi][:, :, c_lo] * (1 - c_f)[None, None, :, None] \
        + images[:, r_hi][:, :, c_hi] * c_f[None, None, :, None]
    return top * (1 - r_f)[None, :, None, None] + bottom * r_f[None, :, None, None]


# -- normalization --------------------------------------------------------------


def normalize(images: np.ndarray, mean, std) -> np.ndarray:
    mean = np.asarray(mean, dtype=images.dtype)
    std = np.asarray(std, dtype=images.dtype)
    return (images - mean) / std


# -- splits and batching --------------------------------------------------------


@dataclass
class SplitPlan:
    """Disjoint, exhaustive index partition of the search dataset."""

    train_indices: np.ndarray
    val_indices: np.ndarray


def split_dataset(n: int, val_fraction: float, seed: int) -> SplitPlan:
    order = rng_for(seed, RNG_SPLIT).permutation(n)
    n_val = int(round(n * val_fraction))
    return SplitPlan(train_indices=np.sort(order[n_val:]),
                     val_indices=np.sort(order[:n_val]))


@dataclass
class BatchPlan:
    batch_size: int
    seed: int
    drop_last: bool = False


@dataclass
class Batch:
    images: np.ndarray
    labels: np.ndarray
    indices: np.ndarray
    split: str


_SPLIT_IDS = {"train": 0, "val": 1, "test": 2}


def epoch_batches(dataset: Dataset, indices: np.ndarray, plan: BatchPlan,
                  epoch: int, split: str, stats=None) -> list[Batch]:
    """Seeded per-epoch shuffle of `indices`, chunked into batches.

    The order is a pure function of (seed, split, epoch), so resumed runs see
    exactly the batches an uninterrupted run would have seen.
    """
    rng = rng_for(plan.seed, RNG_SHUFFLE, _SPLIT_IDS[split], epoch)
    order = indices[rng.permutation(len(indices))]
    batches = []
    for start in range(0, len(order), plan.batch_size):
        chunk = order[start:start + plan.batch_size]
        if plan.drop_last and len(chunk) < plan.batch_size:
            break
        images = dataset.images[chunk]
        if stats is not None:
            images = normalize(images, stats[0], stats[1])
        batches.append(Batch(images=images, labels=dataset.labels[chunk],
                             indices=chunk, split=split))
    return batches


def sequential_batches(dataset: Dataset, batch_size: int, split: str = "test",
                       stats=None) -> list[Batch]:
    idx = np.arange(len(dataset))
    batches = []
    for start in range(0, len(idx), batch_size):
        chunk = idx[start:start + batch_size]
        images = dataset.images[chunk]
        if stats is not None:
            images = normalize(images, stats[0], stats[1])
        batches.append(Batch(images=images, labels=dataset.labels[chunk],
                             indices=chunk, split=split))
    return batches


# -- metrics -----------------------------------------------------------------------


def topk_accuracy(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose label sits among the k largest logits.

    k is clamped to the class count; ties rank the lower index first.
    """
    k = min(k, logits.shape[1])
    order = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    return float((order == labels[:, None]).any(axis=1).mean())


class MetricsWriter:
    """Append-safe CSV metrics log with the fixed header epoch,split,loss,top1,top5."""

    HEADER = ("epoch", "split", "loss", "top1", "top5")

    def __init__(self, path):
        self.path = Path(path)
        new = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "a", newline="")
        self._writer = csv.writer(self._fh)
        if new:
            self._writer.writerow(self.HEADER)
            self._fh.flush()

    def write(self, epoch: int, split: str, loss: float, top1: float, top5: float):
        self._writer.writerow([epoch, split, repr(float(loss)),
                               repr(float(top1)), repr(float(top5))])
        self._fh.flush()

    def close(self):
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# -- checkpoints ---------------------------------------------------------------------

_CKPT_FORMAT = "dasvit-checkpoint"


def _replace_file(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, fsync it, then rename
    it over `path`: readers see the old file or the new one, never a mix."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, arrays: dict[str, np.ndarray], extras: dict | None = None):
    """Write a raw little-endian blob and then a JSON manifest at `path`.

    The round trip is bit-exact: array bytes land in the blob unmodified
    (byte-swapped to little-endian if needed), offsets in the manifest. Each
    file is replaced atomically, blob first, so a failed blob write leaves the
    previous checkpoint at `path` intact. The manifest records the blob's
    sha256, so a manifest paired with another write's blob fails to load."""
    path = Path(path)
    blob_path = path.with_name(path.name + ".blob")
    entries: dict[str, dict] = {}
    chunks: list[bytes] = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        raw = arr.tobytes()
        entries[name] = {
            "shape": list(arr.shape),
            "dtype": np.dtype(arr.dtype).newbyteorder("<").str,
            "offset": offset,
            "nbytes": len(raw),
        }
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format": _CKPT_FORMAT,
        "version": 1,
        "blob": blob_path.name,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "arrays": entries,
        "extras": extras or {},
    }
    _replace_file(blob_path, blob)
    _replace_file(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint: manifest not found: {path}")
    manifest = json.loads(path.read_text())
    if manifest.get("format") != _CKPT_FORMAT:
        raise DataError(f"checkpoint: {path} is not a {_CKPT_FORMAT} manifest")
    blob_path = path.with_name(manifest["blob"])
    if not blob_path.exists():
        raise DataError(f"checkpoint: blob not found: {blob_path}")
    blob = blob_path.read_bytes()
    arrays: dict[str, np.ndarray] = {}
    for name, entry in manifest["arrays"].items():
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(blob):
            raise DataError(f"checkpoint: blob truncated for array {name!r}")
        try:
            arr = np.frombuffer(blob[start:start + nbytes], dtype=np.dtype(entry["dtype"]))
            arrays[name] = arr.reshape(entry["shape"]).copy()
        except (TypeError, ValueError) as exc:
            raise DataError(f"checkpoint: {path}: array {name!r} ({nbytes} bytes of "
                            f"{entry['dtype']}) does not fill shape {entry['shape']}: "
                            f"{exc}") from None
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest.get("sha256"):
        raise DataError(f"checkpoint: {path}: blob sha256 {digest} differs from the "
                        f"manifest's {manifest.get('sha256')}")
    return arrays, manifest.get("extras", {})


def load_parameters(params: dict, arrays: dict[str, np.ndarray], source,
                    opt_state: dict[str, np.ndarray] | None = None) -> None:
    """Copy ``arrays[name]`` into each tensor ``params[name]``, cast to its dtype.

    Strict, all or nothing: each parameter and each `opt_state` entry (the
    optimizer state the caller restores) needs an array of its shape, and an
    array that is neither nor named ``opt.*`` is surplus. A violation raises
    DataError naming the array and `source`."""
    expected = {name: p.data.shape for name, p in params.items()}
    expected.update((name, a.shape) for name, a in (opt_state or {}).items())
    for name, shape in expected.items():
        if name not in arrays:
            raise DataError(f"{source}: no array {name!r}")
        if arrays[name].shape != shape:
            raise DataError(f"{source}: array {name!r} has shape "
                            f"{arrays[name].shape}, expected {shape}")
    surplus = [name for name in arrays
               if name not in expected and not name.startswith("opt.")]
    if surplus:
        raise DataError(f"{source}: array {surplus[0]!r} matches no parameter "
                        f"({len(surplus)} surplus arrays)")
    for name, p in params.items():
        p.data = arrays[name].astype(p.data.dtype)
