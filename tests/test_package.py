"""The package namespace: each public name loads its submodule on first use.

A process compiles and runs only the mvfed modules it touches, so the
load checks run in a fresh interpreter, where no other test has
imported anything yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvfed

ONLY_WHAT_RUNS = """
import sys

def loaded(*names):
    return sorted(set(names) & sys.modules.keys())

import mvfed.data
assert not loaded("mvfed.sfed", "mvfed.fedcore"), loaded("mvfed.sfed", "mvfed.fedcore")
import mvfed
data = mvfed.gen_multiview(mvfed.GeneratorSpec(n_samples=40, dims=(4, 3), seed=0))
hp = mvfed.HyperParams.uniform(2, max_outer=3)
fit = mvfed.vfed_train(data, hp, seed=0)
scores = mvfed.predict_mvl(data.views, fit.transforms, hp.zeta, tol=hp.tol)
mvfed.compute_metrics(mvfed.argmax_decode(scores), data.class_indices())
others = ("mvfed.experiments", "mvfed.hfed", "mvfed.sfed")
assert "mvfed.vfed" in sys.modules and not loaded(*others), loaded(*others)
"""


def test_a_flat_vertical_run_loads_only_its_modules():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", ONLY_WHAT_RUNS],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_is_its_submodules_object():
    for name in mvfed.__all__:
        obj = getattr(mvfed, name)
        assert obj.__module__.startswith("mvfed.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from mvfed import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mvfed.__all__)
    assert set(mvfed.__all__) <= set(dir(mvfed))


def test_unknown_name_is_an_attribute_error_and_subpackages_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        mvfed.no_such_name
    from mvfed import fedcore

    assert fedcore is sys.modules["mvfed.fedcore"]


TRACED_COUNTS = """
import json
import sys

import mvfed
from mvbench.tracer import Tracer
from mvbench.worker import run_jobs
from mvbench.workloads import WORKLOADS

if sys.argv[1] == "every-module-first":
    import mvfed.experiments, mvfed.hfed, mvfed.sfed, mvfed.vfed
tracer = Tracer()
with tracer.installed():
    for name in sorted(WORKLOADS):
        size = WORKLOADS[name].tiny
        _, records = run_jobs(WORKLOADS[name], size, seed=0, jobs=1, tracer=tracer)
        assert "error" not in records[0], (name, records[0])
spans = len(tracer.names)
_, records = run_jobs(WORKLOADS["wide_views"], WORKLOADS["wide_views"].tiny, seed=0, jobs=1)
assert "error" not in records[0] and len(tracer.names) == spans, "a span after uninstall"
print(json.dumps({name: row["calls"] for name, row in tracer.summary().items()}))
"""


def test_traced_call_counts_do_not_depend_on_what_was_imported_first():
    # The benchmark's tracer imports each module it wraps names in as it
    # goes, so under lazy loading `vfed` and `experiments` are first
    # imported after `mvl`'s names are wrapped; their calls into `mvl`
    # must still count once, and nothing may record after uninstall.
    root = Path(__file__).resolve().parent.parent
    counts = []
    for first in ("what-the-worker-imports", "every-module-first"):
        proc = subprocess.run(
            [sys.executable, "-c", TRACED_COUNTS, first],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)])),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout.splitlines()[-1]))
    assert counts[0] == counts[1]
    assert counts[0]["mvl.fit"] > 0 and counts[0]["mvl.predict"] > 0
