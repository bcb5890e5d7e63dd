"""A config sweep pinned by output hashes: a change to what the program
computes in any of these cells fails here.

Every cell is criterion 9's tiny config on a 4-layer backbone with a few
overrides.  Its pin is the sha256 of ``results.csv``, ``strategy.csv``,
``counters.csv``, the checkpoint directory, the stdout of ``sgds eval``
on that checkpoint and every task's epoch losses as float64 bytes (the
only output the orthogonality penalty's summation order reaches).  The ``embeddings`` cell trains on the base config's
pool written by ``sgds gen-synthetic``.  The hashes depend on the
host's BLAS build, as ``perfbench/goldens.json`` does: a 1-row batch takes
the gemv path and a larger one gemm, and the two round differently.

``python tests/test_sweep.py --pin`` rewrites ``tests/sweep_goldens.json``
and prints, per cell, the keys it added, changed and dropped.  A change
that changes a hash has changed behaviour, not performance.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
for path in (REPO, os.path.join(REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.workloads import sha256_dir, sha256_file  # noqa: E402
from sgds.cli import main  # noqa: E402
from sgds.experiment import Config, parse_config, run_experiment  # noqa: E402

GOLDENS_PATH = os.path.join(HERE, "sweep_goldens.json")
FILES = ("results.csv", "strategy.csv", "counters.csv")

BASE = {
    "tasks.count": "3", "dataset.groups": "2",
    "dataset.classes_per_group": "3", "dataset.train_per_class": "20",
    "dataset.test_per_class": "10", "train.epochs": "4",
    "model.dim": "16", "model.layers": "4", "adapter.rank": "4",
    "align.samples": "32",
}

CELLS = {
    # over 40 rows per task, 13 and 39 both leave a 1-row tail batch
    **{f"batch-{b}": {"train.batch": str(b)} for b in (1, 7, 13, 39)},
    **{f"layers-{t}": {"sgds.target_layers": t}
       for t in ("last", "0", "0,2", "0,1,2,3")},
    **{f"k-{k}": {"sgds.k": k, "sgds.target_layers": "1,3"}
       for k in ("0.25", "1.0")},
    **{f"cell-{name}": {"sgds.enabled": on, "sgds.se": se, "sgds.ac": ac}
       for name, on, se, ac in (("baseline", "false", "false", "false"),
                                ("se_only", "true", "true", "false"),
                                ("ac_only", "true", "false", "true"),
                                ("full", "true", "true", "true"))},
    **{f"param_reg-{m}": {"baseline.param_reg.mode": m}
       for m in ("up", "down", "both")},
    # train-preg-all in small: both sides on all four layers, SGDS off
    "param_reg-both-all": {"sgds.enabled": "false",
                           "sgds.target_layers": "0,1,2,3",
                           "baseline.param_reg.mode": "both"},
    "odd-dim": {"model.dim": "13", "adapter.rank": "3", "sgds.beta": "2.0",
                "sgds.gamma": "0.3"},
    "align-0": {"align.samples": "0"},
    # 8 of the 12 classes take knowledge reuse
    "six-tasks": {"tasks.count": "6", "dataset.classes_per_group": "6",
                  "train.epochs": "6"},
    # the pool file's path is filled in per run
    "embeddings": {"dataset.kind": "embeddings"},
}


def _sgds(*argv) -> str:
    """Run the ``sgds`` command line in-process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _write_config(path, values: dict) -> str:
    with open(path, "w") as f:
        f.writelines(f"{k}={v}\n" for k, v in values.items())
    return path


def cell_hashes(name: str, out_dir: str) -> dict:
    """Run one cell into ``out_dir`` and hash what it wrote."""
    os.makedirs(out_dir, exist_ok=True)
    values = {**BASE, **CELLS[name]}
    if values.get("dataset.kind") == "embeddings":
        pool = os.path.join(out_dir, "pool.sgdsemb")
        _sgds("gen-synthetic", _write_config(
            os.path.join(out_dir, "base.cfg"), BASE), pool)
        values["dataset.path"] = pool
    cfg = parse_config(overrides=values)
    (result,) = run_experiment(Config({**cfg.values,
                                       "out.dir": os.path.join(out_dir, "run")}))
    run_dir = os.path.join(out_dir, "run", f"seed_{cfg.seeds[0]}")
    hashes = {f: sha256_file(os.path.join(run_dir, f)) for f in FILES}
    checkpoint = os.path.join(run_dir, "checkpoint")
    hashes["checkpoint"] = sha256_dir(checkpoint)
    stdout = _sgds("eval", checkpoint, _write_config(
        os.path.join(out_dir, "cell.cfg"), values))
    hashes["eval"] = hashlib.sha256(stdout.encode()).hexdigest()
    hashes["losses"] = hashlib.sha256(b"".join(
        np.asarray(log.epoch_losses, dtype=np.float64).tobytes()
        for log in result.state.task_logs)).hexdigest()
    return hashes


def _goldens() -> dict:
    with open(GOLDENS_PATH) as f:
        return json.load(f)


def pin_report(old: dict, new: dict) -> list[str]:
    """One line per cell whose pin a re-pin adds, changes or drops."""
    lines = []
    for name in sorted({*old, *new}):
        before, after = old.get(name), new.get(name)
        if before is None or after is None:
            lines.append(f"{name}: cell {'added' if before is None else 'dropped'}")
            continue
        parts = [f"{what} {', '.join(keys)}" for what, keys in (
            ("added", sorted(set(after) - set(before))),
            ("changed", sorted(k for k in set(before) & set(after)
                               if before[k] != after[k])),
            ("dropped", sorted(set(before) - set(after)))) if keys]
        if parts:
            lines.append(f"{name}: {'; '.join(parts)}")
    return lines


def test_every_cell_is_pinned():
    assert sorted(_goldens()) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_reproduces_its_pinned_hashes(name, tmp_path):
    assert cell_hashes(name, str(tmp_path)) == _goldens()[name]


def test_pin_report_names_added_changed_and_dropped_keys():
    old = {"a": {"x": "1", "y": "2"}, "b": {"x": "1"}, "gone": {"x": "1"}}
    new = {"a": {"x": "1", "y": "3", "z": "4"}, "b": {"x": "1"},
           "new": {"x": "1"}}
    assert pin_report(old, new) == ["a: added z; changed y", "gone: cell dropped",
                                    "new: cell added"]
    assert pin_report(new, {"a": {"x": "1"}, "b": new["b"], "new": new["new"]}) == [
        "a: dropped y, z"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python tests/test_sweep.py --pin")
    old = _goldens() if os.path.exists(GOLDENS_PATH) else {}
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: cell_hashes(name, os.path.join(tmp, name))
                for name in sorted(CELLS)}
    with open(GOLDENS_PATH, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    print(*pin_report(old, pins) or ["no hash added, changed or dropped"],
          sep="\n")
    print(f"pinned {len(pins)} cells in {GOLDENS_PATH}")
