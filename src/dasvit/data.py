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
    """Images with integer labels: in [0, 1] as loaded or generated;
    `search.build_datasets` normalizes cifar10 images."""

    images: np.ndarray  # (M, H, W, C) float32
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
_CIFAR_CHUNK = 1000  # records converted to float32 at a time
_CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}" for i in range(1, 6))
_CIFAR_TEST_FILE = "test_batch"

#: Side length of every CIFAR-10 image.
CIFAR10_IMAGE = 32
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
    """The (records, record bytes) uint8 rows of one batch file and its labels."""
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
    return records, labels


def _cifar_pixels(records: np.ndarray) -> np.ndarray:
    """(M, 32, 32, 3) float32 pixels in [0, 1] of M records."""
    # channel-planar R,G,B planes, each 32x32 row-major
    pixels = (records[:, 1:].reshape(-1, 3, CIFAR10_IMAGE, CIFAR10_IMAGE)
              .transpose(0, 2, 3, 1).astype(np.float32))
    pixels /= 255.0
    return pixels


def load_cifar10(directory, image: int = CIFAR10_IMAGE) -> tuple[Dataset, Dataset]:
    """Load the standard binary batches: 50,000 train / 10,000 test images,
    resized to `image`. Each file's records are converted and resized
    `_CIFAR_CHUNK` at a time into the split's one preallocated array, so no
    more than a chunk is ever held at 32x32 float32."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"cifar10: directory not found: {directory}")

    def read(stems):
        n = _CIFAR_RECORDS_PER_FILE * len(stems)
        images = np.empty((n, image, image, 3), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        for i, stem in enumerate(stems):
            records, rows = _read_cifar_batch(_cifar_file(directory, stem))
            first = i * _CIFAR_RECORDS_PER_FILE
            labels[first:first + _CIFAR_RECORDS_PER_FILE] = rows
            for lo in range(0, _CIFAR_RECORDS_PER_FILE, _CIFAR_CHUNK):
                chunk = records[lo:lo + _CIFAR_CHUNK]
                images[first + lo:first + lo + len(chunk)] = resize_images(
                    _cifar_pixels(chunk), image)
        return Dataset(images, labels, classes=10)

    return read(_CIFAR_TRAIN_FILES), read((_CIFAR_TEST_FILE,))


# -- resizing --------------------------------------------------------------------


def resize_images(images: np.ndarray, size: int) -> np.ndarray:
    """Bilinearly resize a (M, H, W, C) batch to (M, size, size, C).

    Half-pixel centers; the result stays inside the input value range.
    """
    m, h, w, c = images.shape
    if (h, w) == (size, size):
        return images

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
    """``(images - mean) / std`` per channel, in one fresh buffer."""
    out = images - np.asarray(mean, dtype=images.dtype)
    out /= np.asarray(std, dtype=images.dtype)
    return out


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
                  epoch: int, split: str) -> list[Batch]:
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
        batches.append(Batch(images=dataset.images[chunk], labels=dataset.labels[chunk],
                             indices=chunk, split=split))
    return batches


def sequential_batches(dataset: Dataset, batch_size: int, split: str = "test") -> list[Batch]:
    idx = np.arange(len(dataset))
    batches = []
    for start in range(0, len(idx), batch_size):
        chunk = idx[start:start + batch_size]
        batches.append(Batch(images=dataset.images[chunk], labels=dataset.labels[chunk],
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


class RunLog:
    """An append-only run log whose rows each carry their epoch: a CSV row
    (`header` given; ``\\r\\n`` line ends, as ``csv.writer`` writes) in its
    first field, a JSONL row under `epoch_key`. Constructing a log only reads
    and checks the file. Entering it cuts the file, atomically and only if
    rows go, to the rows of epochs before `start_epoch` (to nothing, unread,
    if that is 0) and writes the header into an empty file. A cut-short last
    line is dropped; a complete line without a readable epoch is a DataError
    naming the file and line. Writes are flushed; closing fsyncs."""

    def __init__(self, path, start_epoch: int, header: tuple[str, ...] | None = None,
                 epoch_key: str = "epoch"):
        self.path, self.header, self.epoch_key = Path(path), header, epoch_key
        self._old = self.path.read_bytes() if self.path.exists() else b""
        kept = []
        if start_epoch > 0:
            # the piece after the last newline is empty or a cut-short line
            lines = [line + b"\n" for line in self._old.split(b"\n")[:-1]]
            for number, line in enumerate(lines, 1):
                if (header and number == 1) or self._epoch(line, number) < start_epoch:
                    kept.append(line)
        self._kept = b"".join(kept)

    def _epoch(self, line: bytes, number: int) -> int:
        try:
            epoch = (int(line.split(b",", 1)[0]) if self.header
                     else json.loads(line)[self.epoch_key])
        except (ValueError, KeyError, TypeError):
            epoch = None
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            raise DataError(f"log: {self.path}: line {number} has no readable epoch: "
                            f"{line.rstrip()[:80]!r}")
        return epoch

    def write(self, *rows) -> None:
        if self.header:
            self._csv.writerows(rows)
        else:
            self._fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        self._fh.flush()

    def __enter__(self):
        if self._kept != self._old:
            _replace_file(self.path, self._kept)
        self._fh = open(self.path, "a", newline="")
        self._csv = csv.writer(self._fh)
        if self.header and not self._kept:
            self.write(self.header)
        return self

    def close(self):
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()

    def __exit__(self, *exc):
        self.close()


# -- checkpoints ---------------------------------------------------------------------

_CKPT_FORMAT = "dasvit-checkpoint"
_CKPT_VERSION = 2


def _replace_file(path, *chunks) -> None:
    """Write `chunks` (bytes or C-contiguous arrays) to a temporary file beside
    `path`, fsync it, then rename it over `path`: readers see the old file or
    the new one, never a mix."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, doc) -> None:
    """Write `doc` to `path` as indented, key-sorted JSON, atomically."""
    _replace_file(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


def save_checkpoint(path, arrays: dict[str, np.ndarray], extras: dict | None = None):
    """Write one file at `path`: a one-line JSON manifest, then each array's
    little-endian bytes in sorted-name order.

    The round trip is bit-exact. The manifest gives each array's shape, dtype,
    offset and size in the data section, the section's sha256 and `extras`.
    The arrays are written as they are, uncopied, and the file is replaced
    atomically, so a failed write leaves the previous checkpoint intact."""
    entries: dict[str, dict] = {}
    chunks: list[np.ndarray] = []
    digest = hashlib.sha256()
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        entries[name] = {
            "shape": list(arr.shape),
            "dtype": np.dtype(arr.dtype).newbyteorder("<").str,
            "offset": offset,
            "nbytes": arr.nbytes,
        }
        digest.update(arr)
        chunks.append(arr)
        offset += arr.nbytes
    manifest = {
        "format": _CKPT_FORMAT,
        "version": _CKPT_VERSION,
        "sha256": digest.hexdigest(),
        "arrays": entries,
        "extras": extras or {},
    }
    head = json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    _replace_file(path, head.encode(), *chunks)


def manifest_value(path, doc, key: str, kind: type, where: str = "extras"):
    """``doc[key]`` of the checkpoint manifest at `path`, refused with a
    DataError naming the checkpoint and the key unless it is there and is a
    `kind`; an int must also be no bool and not negative."""
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"checkpoint: {path}: {where} has no key {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (
            kind is int and (isinstance(value, bool) or value < 0)):
        noun = "nonnegative int" if kind is int else kind.__name__
        raise DataError(f"checkpoint: {path}: {where} key {key!r} holds "
                        f"{value!r}, not a {noun}")
    return value


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and extras of the checkpoint at `path`.

    The data section is read once, into one buffer, whose sha256, bytes no
    array covers included, must equal the manifest's. Each array is a view of
    its bytes in that buffer, so overlapping entries (only a hand-edited
    manifest has them) share memory; every program path copies what it loads."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint: file not found: {path}")
    with open(path, "rb") as fh:
        line = fh.readline()
        head = line[:-1] if line.endswith(b"\n") else line  # the manifest is line 1
        if head == b"{":  # line 1 of a version-1 manifest, indented JSON
            raise DataError(f"checkpoint: {path} is a version-1 manifest+blob pair, not read")
        try:
            manifest = json.loads(head)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"checkpoint: {path}: invalid JSON manifest: {exc}") from None
        if not (isinstance(manifest, dict) and manifest.get("format") == _CKPT_FORMAT
                and manifest.get("version") == _CKPT_VERSION):
            raise DataError(f"checkpoint: {path} is not a {_CKPT_FORMAT} "
                            f"version-{_CKPT_VERSION} file")
        data = np.empty(os.fstat(fh.fileno()).st_size - len(line), np.uint8)
        if fh.readinto(data) != data.size:
            raise DataError(f"checkpoint: {path}: data truncated while reading")

    def need(doc, key, kind, where="manifest"):
        return manifest_value(path, doc, key, kind, where)

    arrays: dict[str, np.ndarray] = {}
    for name, entry in need(manifest, "arrays", dict).items():
        where = f"array {name!r}"
        start = need(entry, "offset", int, where)
        nbytes = need(entry, "nbytes", int, where)
        dtype, shape = need(entry, "dtype", str, where), need(entry, "shape", list, where)
        if start + nbytes > data.size:
            raise DataError(f"checkpoint: {path}: data truncated for array {name!r}")
        try:
            arrays[name] = data[start:start + nbytes].view(np.dtype(dtype)).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise DataError(f"checkpoint: {path}: array {name!r} ({nbytes} bytes of "
                            f"{dtype}) does not fill shape {shape}: {exc}") from None
    got = hashlib.sha256(data).hexdigest()
    if got != need(manifest, "sha256", str):
        raise DataError(f"checkpoint: {path}: data sha256 {got} differs from the "
                        f"manifest's {manifest['sha256']}")
    return arrays, need(manifest, "extras", dict)


def load_parameters(params: dict, arrays: dict[str, np.ndarray], source,
                    opt_state: dict[str, np.ndarray] | None = None) -> None:
    """Copy ``arrays[name]`` into each tensor ``params[name]``, cast to its
    dtype, and into each array ``opt_state[name]`` in place.

    Strict, all or nothing: each parameter and each `opt_state` entry (the
    optimizer state the caller restores, ``AdamW.state_arrays()``) needs an
    array of its shape, and an array that is neither nor named ``opt.*`` is
    surplus. A violation raises DataError naming the array and `source`."""
    opt_state = opt_state or {}
    expected = {name: p.data.shape for name, p in params.items()}
    expected.update((name, a.shape) for name, a in opt_state.items())
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
    for name, state in opt_state.items():
        state[...] = arrays[name]
