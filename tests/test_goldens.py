"""The benchmark's pinned outputs for seed 1993 as a test: any change to
what the program computes on the three workloads fails here."""
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from perfbench.pin import pin  # noqa: E402
from perfbench.workloads import import_program, load_goldens  # noqa: E402

import_program(REPO)


def test_seed_1993_reproduces_every_pinned_golden(tmp_path):
    goldens = load_goldens()
    expected = {name: goldens[name]["1993"]
                for name in ("train-sgds", "train-preg-all", "eval-ckpt")}
    assert pin(1993, str(tmp_path)) == expected
