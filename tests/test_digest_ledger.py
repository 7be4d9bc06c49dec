"""The artifacts of a short desk search and retrain, checked against the
digests recorded for this environment in ``digest_ledger.json``.

Float digests cover what the arithmetic writes: each checkpoint's data
section, ``alpha_history.csv``, ``search_log.jsonl`` and ``metrics.csv``.
File digests cover the rest, byte for byte: ``config.json``,
``prune.jsonl``, ``genotype.json`` and each checkpoint manifest less its
data hash. A change that moves floats updates the float entries of the
ledger in the same commit; one that only renames or removes a config key
updates only the file entries.

The same bits need the same numpy, BLAS library, BLAS core, BLAS thread
count and default dtype, so an entry is keyed by all five. On an
environment with no entry the test skips and prints its key.

``python tests/test_digest_ledger.py`` records (or overwrites) the entry of
the environment it runs in.
Each BLAS thread count's entry is recorded by running under that
``OPENBLAS_NUM_THREADS``, e.g. ``OPENBLAS_NUM_THREADS=1 python tests/test_digest_ledger.py``.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dasvit import desk_config, retrain, run_search, searched_encoder_genotype
from dasvit import autodiff as ad
from dasvit.config import SyntheticConfig
from dasvit.errors import GenotypeError

LEDGER = Path(__file__).with_name("digest_ledger.json")
FLOAT_FILES = ("alpha_history.csv", "search_log.jsonl", "metrics.csv")


def _openblas():
    """The OpenBLAS library numpy loaded into this process, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    return ctypes.CDLL(paths[0]) if paths else None


def _openblas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            return fn()
    return None


def environment_key() -> str:
    """numpy version, BLAS library and version, runtime BLAS core, BLAS
    threads in effect and default dtype, as one string."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib = _openblas()
    # numpy's wheels bundle scipy-openblas64; a system OpenBLAS drops the prefix
    core = _openblas_call(lib, ("scipy_openblas_get_corename64_", "openblas_get_corename"),
                          ctypes.c_char_p)
    threads = _openblas_call(lib, ("scipy_openblas_get_num_threads64_",
                                   "openblas_get_num_threads"), ctypes.c_int)
    return (f"numpy {np.__version__} | {blas.get('name')} {blas.get('version')} | "
            f"core {core.decode() if core else 'unknown'} | "
            f"threads {threads if threads is not None else 'unknown'} | "
            f"{ad.default_dtype()}")


def _config():
    cfg = desk_config(seed=5)
    return dataclasses.replace(
        cfg,
        search=dataclasses.replace(cfg.search, epochs_per_stage=1, batch_size=8),
        retrain=dataclasses.replace(cfg.retrain, epochs=3, warmup_epochs=1,
                                    checkpoint_every=2, eval_every=1),
        data=dataclasses.replace(cfg.data, synthetic=SyntheticConfig(
            classes=2, per_class=32, image=8)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(root: Path) -> dict:
    """{"floats": ..., "files": ...}: the sha256 of every artifact of the
    short search and retrain run under `root`, by "<run>/<file>"."""
    cfg = _config()
    try:
        run_search(cfg, root / "search")
    except GenotypeError:  # a Zero-dominant end leaves no genotype.json
        pass
    retrain(searched_encoder_genotype(cfg.model.dims(), depth=2, heads=4), cfg,
            root / "retrain")
    floats, files = {}, {}
    for run in ("search", "retrain"):
        for path in sorted((root / run).iterdir()):
            name = f"{run}/{path.name}"
            data = path.read_bytes()
            if path.suffix == ".ckpt":
                head, _, section = data.partition(b"\n")
                manifest = json.loads(head)
                del manifest["sha256"]
                floats[name] = _sha(section)
                files[f"{name} manifest"] = _sha(json.dumps(manifest, sort_keys=True)
                                                  .encode())
            elif path.name in FLOAT_FILES:
                floats[name] = _sha(data)
            else:
                files[name] = _sha(data)
    return {"floats": floats, "files": files}


def _differing(recorded: dict, got: dict) -> list[str]:
    return sorted(name for name in recorded.keys() | got.keys()
                  if recorded.get(name) != got.get(name))


def test_short_run_artifacts_match_the_ledger(tmp_path):
    key = environment_key()
    ledger = json.loads(LEDGER.read_text())
    if key not in ledger:
        print(f"digest ledger: no entry for {key!r}")
        pytest.skip(f"digest ledger: no entry for {key!r}")
    recorded, got = ledger[key], run_digests(tmp_path)
    moved = _differing(recorded["floats"], got["floats"])
    assert not moved, f"float-bearing artifacts moved under {key!r}: {moved}"
    changed = _differing(recorded["files"], got["files"])
    assert not changed, f"artifact bytes changed under {key!r}: {changed}"


if __name__ == "__main__":
    key = environment_key()
    with tempfile.TemporaryDirectory() as tmp:
        entry = run_digests(Path(tmp))
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    ledger[key] = entry
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"recorded {key!r} in {LEDGER}", file=sys.stderr)
