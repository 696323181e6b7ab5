"""Start-up contract: a process that never builds a design never imports scipy.

scipy serves two callers only, the placer's sparse solve
(``QuadraticPlacer._solve_quadratic``) and Figure 6's KDE
(``run_fig6``), and each imports it inside the function (DESIGN.md §26).
A process that loads designs from the cache, trains, predicts or
serves therefore starts without it; importing scipy at module level
anywhere on those paths would add about a second and ~60 MB to every
such process start.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.experiments import build_dataset

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Small enough that the cold build in the test process takes ~2 s.
SCALE = {"scale": 0.25, "resolution": 16}

#: Run in a fresh interpreter; prints, per stage, the scipy modules
#: loaded by the end of that stage.
CHILD = textwrap.dedent("""
    import json
    import sys

    def scipy_modules():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    stages = {}
    import repro.cli
    import repro.experiments
    import repro.flow
    import repro.infer
    import repro.serve.__main__
    import repro.serve.server
    import repro.train
    stages["import"] = scipy_modules()

    from repro.experiments import build_dataset
    from repro.infer import InferenceEngine
    from repro.model import TimingPredictor
    from repro.train import OursTrainer, TrainConfig

    dataset = build_dataset(cache_dir=sys.argv[1], **json.loads(sys.argv[2]))
    stages["load"] = scipy_modules()
    model = TimingPredictor(dataset.in_features, seed=0)
    OursTrainer(model, dataset.train, TrainConfig(steps=1)).fit()
    stages["train"] = scipy_modules()
    InferenceEngine(model).predict_many(
        dataset.test, mc_samples=4, with_uncertainty=True)
    stages["predict"] = scipy_modules()
    print(json.dumps(stages))
""")


def test_cached_designs_train_and_predict_without_scipy(tmp_path):
    build_dataset(cache_dir=tmp_path, **SCALE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), json.dumps(SCALE)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(stages) == ["import", "load", "train", "predict"]
    loaded = {stage: mods[:3] for stage, mods in stages.items() if mods}
    assert not loaded, f"scipy loaded by the end of: {loaded}"
