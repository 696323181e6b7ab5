"""One-off preparation of a checkout, done before any timed run.

Builds the Table-1 design cache and the two serving checkpoints the
``serve`` workload swaps between, and byte-compiles the sources, so
that every timed run starts from the same files.  The result lives
under ``.perfbench/`` and is keyed by a digest of the program's and
the benchmark's sources: an edit to either rebuilds it.  The host-drift
record ``runs.jsonl`` is kept across rebuilds, so runs of a parent and a
change in one checkout stay in one record.
"""

from __future__ import annotations

import compileall
import fcntl
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict

from common import BENCH, SRC, STATE, child_env

#: Optimizer steps of the two serving checkpoints (model seeds 1 and 2).
SERVE_MODEL_STEPS = 30
MANIFEST = STATE / "prep.json"
#: Files under ``.perfbench/`` that a rebuild keeps.
KEEP = ("lock", "runs.jsonl")


def source_digest() -> str:
    h = hashlib.blake2b(digest_size=12)
    for root in (SRC, BENCH):
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


def model_path(tag: str) -> Path:
    return STATE / f"model_{tag}.npz"


def clear_state(state: Path) -> None:
    """Remove a previous preparation, keeping the files named in KEEP."""
    for entry in state.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        elif entry.name not in KEEP:
            entry.unlink()


def _prepare() -> Dict[str, object]:
    """Runs in its own process: build everything, return the manifest."""
    from repro.experiments import build_dataset
    from repro.flow import build_designs
    from repro.infer import save_predictor, weight_digest
    from repro.model import TimingPredictor
    from repro.train import OursTrainer, TrainConfig
    from worker import set_digest, table1_names

    designs = build_designs(table1_names(), workers=1,
                            cache_dir=STATE / "designs")
    dataset = build_dataset(cache_dir=STATE / "designs")
    digests = {}
    for tag, seed in (("a", 1), ("b", 2)):
        model = TimingPredictor(dataset.in_features, seed=seed)
        OursTrainer(model, dataset.train,
                    TrainConfig(steps=SERVE_MODEL_STEPS, seed=seed)).fit()
        save_predictor(model, model_path(tag))
        digests[tag] = weight_digest(model)
    return {"flow_digest": set_digest(designs), "model_digests": digests}


def ensure_prepared() -> Dict[str, object]:
    """The checkout's preparation manifest, building it if missing."""
    STATE.mkdir(exist_ok=True)
    digest = source_digest()
    with open(STATE / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if MANIFEST.is_file():
            manifest = json.loads(MANIFEST.read_text())
            if manifest.get("source") == digest:
                return manifest
        clear_state(STATE)
        compileall.compile_dir(str(SRC), quiet=1)
        compileall.compile_dir(str(BENCH), quiet=1)
        proc = subprocess.run([sys.executable, str(BENCH / "prep.py")],
                              env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=800)
        if proc.returncode != 0:
            raise RuntimeError(f"preparation failed ({proc.returncode})")
        manifest = json.loads(proc.stdout.strip().splitlines()[-1])
        manifest["source"] = digest
        MANIFEST.write_text(json.dumps(manifest, indent=1))
        return manifest


if __name__ == "__main__":
    print(json.dumps(_prepare()))
