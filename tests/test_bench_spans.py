"""The benchmark's per-layer trace patches sgds functions by name: each span
must still be called, or a refactor that renames or stops calling one would
read as a per-layer metric of zero instead of failing."""
import os
import sys
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from perfbench.tests.test_perfbench import TINY  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (LAYER_TARGETS, Workload,  # noqa: E402
                                 import_program)

import_program(REPO)


def test_every_traced_span_is_called_by_the_workloads(tmp_path):
    tracer = Tracer(LAYER_TARGETS)
    with tracer:
        for name in ("train-sgds", "train-preg-all", "eval-ckpt"):
            tracer.begin_run(name)
            w = Workload(name, 7, str(tmp_path / name), overrides=TINY)
            s = w.setup()
            assert w.check(s, w.observe(s, w.run(s))) == []
    calls = Counter(tracer.names[i] for i in tracer.name)
    assert [n for n in tracer.names if not calls[n]] == []
