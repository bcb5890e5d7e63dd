"""The benchmark's workloads: set-up, one closed-loop operation, output check.

Each workload is one caller that waits for every operation before sending
the next (a closed loop).  The program only sees the config built here and
the task stream that config generates from the workload seed.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")
DEFAULT_SEED = 1993  # tasks.seed of the default config

# name -> (why it is in the benchmark, config overrides on top of the defaults)
WORKLOADS = {
    "train-sgds": (
        "one default run_single: per-sample mask draws, top-k, counter "
        "records and tape forward/backward dominate, as in sgds run and "
        "every ablate cell",
        {}),
    "train-preg-all": (
        "the same training and tape code with SGDS off on all four layers and "
        "the both-sides orthogonality penalty: no mask draws, no frozen "
        "prefix, a tape that grows with the task index",
        {"sgds.enabled": "false", "sgds.target_layers": "0,1,2,3",
         "baseline.param_reg.mode": "both"}),
    "eval-ckpt": (
        "what sgds eval does on a saved 10-task state: load_state, then one "
        "predict per task test set; only inference, model and checkpoint work",
        {}),
}

TRAIN_FILES = ("results.csv", "strategy.csv", "counters.csv")

# spans needed for the end-to-end metrics; cheap enough for untraced runs
TIMING_TARGETS = (
    ("sgds.experiment", "train_task", "training.train_task",
     lambda state, task, cfg, seed: len(task.train_y) * cfg.epochs),
    ("sgds.experiment", "evaluate_row", "inference.evaluate_row",
     lambda state, sets: sum(len(y) for _, y in sets)),
    ("sgds.inference", "evaluate_row", "inference.evaluate_row",
     lambda state, sets: sum(len(y) for _, y in sets)),
    ("sgds.inference", "predict", "inference.predict",
     lambda x, state: len(x)),
)

# every layer boundary of the traced run, patched where callers look it up
LAYER_TARGETS = TIMING_TARGETS + (
    ("sgds.training", "stream_rng", "rng.stream_rng", None),
    ("sgds.model", "stream_rng", "rng.stream_rng", None),
    ("sgds.training", "sparsify_and_record", "masking.sparsify_and_record", None),
    ("sgds.masking", "ActivationCounters.record",
     "masking.ActivationCounters.record", None),
    ("sgds.masking", "top_k_mask", "masking.top_k_mask", None),
    ("sgds.inference", "top_k_mask", "masking.top_k_mask", None),
    ("sgds.training", "dispatch_probability", "masking.dispatch_probability", None),
    ("sgds.training", "relation_distribution", "masking.relation_distribution", None),
    ("sgds.training", "build_batch_tape", "training.build_batch_tape", None),
    ("sgds.training", "backward", "numerics.backward",
     lambda tape, loss: len(tape.nodes)),
    ("sgds.training", "sgd_step", "numerics.sgd_step", None),
    ("sgds.training", "align_old_prototypes", "training.align_old_prototypes", None),
    ("sgds.training", "fit_class_gaussians", "training.fit_class_gaussians", None),
    ("sgds.training", "embed", "inference.embed", None),
    ("sgds.inference", "embed", "inference.embed", None),
    ("sgds.inference", "extract", "model.extract",
     lambda x, backbone, adapter, target_layers, hook=None: min(target_layers)),
    ("sgds.model", "block_forward", "model.block_forward", None),
    ("sgds.inference", "merge_universal", "model.merge_universal",
     lambda adapters: tuple(map(id, adapters))),
    ("sgds.checkpoint", "load_state", "checkpoint.load_state", None),
    ("sgds.checkpoint", "save_state", "checkpoint.save_state", None),
    ("sgds.experiment", "generate_synthetic", "data.generate_synthetic", None),
)


class ProgramMissing(RuntimeError):
    """The checkout holds no sgds sources to benchmark."""


def import_program(root: str):
    """Import sgds from ``root/src`` and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "sgds", "__init__.py")):
        raise ProgramMissing(f"no sgds sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import sgds
    import sgds.checkpoint
    import sgds.experiment
    import sgds.inference
    found = os.path.dirname(os.path.realpath(sgds.__file__))
    if found != os.path.realpath(os.path.join(src, "sgds")):
        raise ProgramMissing(f"sgds was imported from {found}, not {src}")
    return sgds


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_dir(path, suffix: str = "") -> str:
    """Digest of every file name (ending in ``suffix``) and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(n for n in os.listdir(path) if n.endswith(suffix)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def load_goldens(path=GOLDENS_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def mismatches(observed: dict, expected: dict) -> list[str]:
    """Names of the expected fields whose observed value differs."""
    return [k for k, v in expected.items() if observed.get(k) != v]


@dataclass
class Setup:
    cfg: object
    stream: object
    backbone: object
    sets: list = field(default_factory=list)
    expected_row: list | None = None
    observed: dict = field(default_factory=dict)


class Workload:
    """Set-up, timed operation and output check of one named workload."""

    def __init__(self, name: str, seed: int, workdir: str,
                 overrides: dict | None = None, golden: dict | None = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.overrides = dict(WORKLOADS[name][1])
        self.overrides.update(overrides or {})
        self.overrides["tasks.seed"] = str(seed)
        self.golden = golden
        self.reference: dict | None = golden
        os.makedirs(workdir, exist_ok=True)

    @property
    def is_eval(self) -> bool:
        return self.name == "eval-ckpt"

    def setup(self) -> Setup:
        """Config, stream and backbone; eval-ckpt also trains and saves a state."""
        from sgds import checkpoint, experiment, model
        for key in [k for k in os.environ if k.startswith(experiment.ENV_PREFIX)]:
            del os.environ[key]  # the program sees only the generated config
        cfg = experiment.parse_config(None, self.overrides)
        stream = experiment.build_stream(cfg, self.seed)
        backbone = model.FrozenBackbone.create(cfg["model.layers"], cfg["model.dim"])
        s = Setup(cfg, stream, backbone,
                  sets=[(t.test_x, t.test_y) for t in stream.tasks])
        if self.is_eval:
            res = experiment.run_single(cfg, self.seed, stream=stream)
            ckpt = os.path.join(self.workdir, "checkpoint")
            shutil.rmtree(ckpt, ignore_errors=True)  # no adapters of an older run
            checkpoint.save_state(ckpt, res.state)
            s.expected_row = [float(a) for a in res.matrix[-1]]
            s.observed = {"checkpoint": sha256_dir(ckpt),
                          "accuracy": float(res.matrix[-1].mean())}
        return s

    def run(self, s: Setup):
        """The timed operation."""
        from sgds import checkpoint, experiment, inference
        if self.is_eval:
            state = checkpoint.load_state(os.path.join(self.workdir, "checkpoint"),
                                          s.backbone)
            return inference.evaluate_row(state, s.sets)
        return experiment.run_single(s.cfg, self.seed, stream=s.stream)

    def observe(self, s: Setup, out) -> dict:
        """Output fields of one operation, as compared against the goldens."""
        import numpy as np
        if self.is_eval:
            return {"accuracy_row": [float(a) for a in out],
                    "accuracy": float(np.mean(out))}
        from sgds import experiment
        paths = [os.path.join(self.workdir, n) for n in TRAIN_FILES]
        experiment.write_results_csv(paths[0], out.matrix, out.a_bar, out.a_final)
        experiment.write_strategy_csv(paths[1], out.state)
        out.state.counters.dump_csv(paths[2])
        fields = {"A_bar": out.a_bar, "A_T": out.a_final}
        fields.update({n: sha256_file(p) for n, p in zip(TRAIN_FILES, paths)})
        return fields

    def check_setup(self, s: Setup) -> list[str]:
        """eval-ckpt set-up trains and saves: every set-up must match the first."""
        if self.reference is None:
            self.reference = dict(s.observed)
        return mismatches(s.observed, self.reference)

    def check(self, s: Setup, observed: dict) -> list[str]:
        """Output fields of one operation that differ from what it must produce.

        An eval pass must reproduce the accuracy row of the in-memory state it
        was saved from; a train run must match the goldens or, without them,
        the first run of the process.
        """
        if self.is_eval:
            expected = {"accuracy_row": s.expected_row}
            if self.golden is not None:
                expected["accuracy"] = self.golden["accuracy"]
        else:
            if self.reference is None:
                self.reference = dict(observed)
            expected = self.reference
        return mismatches(observed, expected)
