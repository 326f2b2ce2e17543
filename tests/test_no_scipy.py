"""Serving and training run without SciPy.

Importing ``scipy.stats`` costs a process most of a second and tens of
MiB, and only the SOBOL and KernelSHAP explainers need SciPy, each
inside the method that runs it.  This test blocks SciPy in a fresh
interpreter (``sys.modules["scipy"] = None`` makes every SciPy import
raise) and drives the served chain, on one in-process replica and on
two forked ones, plus the forked SLIC prefetch of training.  A SciPy
import anywhere on those paths, parent or forked child, fails it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_SCRIPT = textwrap.dedent("""
    import os
    import sys

    sys.modules["scipy"] = None  # every SciPy import now raises

    import repro
    import repro.experiments
    import repro.serving
    from repro.cot.chain import StressChainPipeline
    from repro.datasets import generate_uvsd
    from repro.explainers.shap import KernelShapExplainer
    from repro.explainers.sobol import SobolExplainer
    from repro.model.foundation import FoundationModel
    from repro.rng import make_rng
    from repro.serving.pool import ReplicaPool
    from repro.training.self_refine import _prefetch_segmentations

    fork = hasattr(os, "fork")
    data = generate_uvsd(seed=3, num_samples=6, num_subjects=2)
    videos = [sample.video for sample in data.samples]

    # Training's SLIC prefetch (forked workers where os.fork exists),
    # then the serial path on a clip it did not segment.
    computed = _prefetch_segmentations(videos[:4])
    assert computed == (4 if fork else 0), computed
    assert videos[4].segmentation().max() > 0

    pipeline = StressChainPipeline(FoundationModel(make_rng(5, "no-scipy")))
    expected = [pipeline.predict(video).prob_stressed for video in videos]
    for replicas in (1, 2) if fork else (1,):
        with ReplicaPool(pipeline, num_replicas=replicas) as pool:
            served = [pool.predict(video, timeout=120).prob_stressed
                      for video in videos]
        assert served == expected, replicas

    SobolExplainer()
    KernelShapExplainer()
    print("ok")
""")


def test_serving_and_training_import_no_scipy(tmp_path):
    script = tmp_path / "no_scipy.py"
    script.write_text(_SCRIPT)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(src), REPRO_NUM_WORKERS="2")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
