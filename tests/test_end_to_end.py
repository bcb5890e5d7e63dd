"""End to end over tiny configs: ``sgds run`` exits 0, 1 or 2 and never
raises, and every checkpoint of a run that exits 0 is one its own
``sgds eval`` scores to the run's last ``A_T``."""
import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from sgds.cli import main
from sgds.experiment import ENV_PREFIX

# extreme rates and weights, from zero to overflow; one config in ten then
# makes one of them negative, which the config refuses
LR = st.sampled_from([0.0, 1e-3, 0.01, 1.0, 10.0, 30.0, 1e3, 1e30, 1e300])
MOMENTUM = st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0, 2.0, 10.0])
WEIGHT = st.sampled_from([0.0, 1e-4, 0.1, 1.0, 1e3, 1e30, 1e300])
RATES = ("train.lr", "train.momentum", "train.weight_decay",
         "baseline.param_reg.lambda", "sgds.beta", "sgds.gamma")


@st.composite
def tiny_configs(draw):
    dim = draw(st.integers(2, 16))
    layers = draw(st.integers(1, 4))
    tasks = draw(st.integers(1, 3))
    per_task = draw(st.integers(1, 2))
    groups = draw(st.sampled_from(
        [g for g in range(1, tasks * per_task + 1) if tasks * per_task % g == 0]))
    targets = draw(st.lists(st.integers(0, layers - 1), min_size=1,
                            max_size=layers, unique=True))
    seeds = draw(st.lists(st.integers(0, 2 ** 31), min_size=1, max_size=2,
                          unique=True))
    values = {
        "model.dim": dim,
        "model.layers": layers,
        "tasks.count": tasks,
        "tasks.seed": draw(st.integers(0, 2 ** 31)),
        "dataset.groups": groups,
        "dataset.classes_per_group": tasks * per_task // groups,
        "dataset.train_per_class": draw(st.integers(1, 5)),
        "dataset.test_per_class": draw(st.integers(1, 2)),
        "adapter.rank": draw(st.integers(1, max(1, dim // 2))),
        "sgds.enabled": draw(st.booleans()),
        "sgds.se": draw(st.booleans()),
        "sgds.ac": draw(st.booleans()),
        "sgds.k": draw(st.sampled_from([0.25, 0.5, 0.6, 1.0])),
        "sgds.beta": draw(WEIGHT),
        "sgds.gamma": draw(WEIGHT),
        "sgds.target_layers": ",".join(map(str, targets)),
        "train.epochs": draw(st.integers(1, 3)),
        "train.batch": draw(st.integers(1, 8)),
        "train.lr": draw(LR),
        "train.momentum": draw(MOMENTUM),
        "train.weight_decay": draw(WEIGHT),
        "baseline.param_reg.mode": draw(st.sampled_from(["off", "up", "down", "both"])),
        "baseline.param_reg.lambda": draw(WEIGHT),
        "align.samples": draw(st.integers(0, 8)),
        "run.seeds": ",".join(map(str, seeds)),
    }
    if draw(st.integers(0, 9)) == 5:
        key = draw(st.sampled_from(RATES))
        values[key] = -(values[key] or 0.5)
    return values


def _main(argv, env=None):
    """``main``'s exit code and standard output, under ``env``'s variables."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().splitlines()


@settings(max_examples=120, deadline=None)
@given(tiny_configs())
def test_a_run_that_exits_0_leaves_checkpoints_its_eval_scores(values):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {k: v for k, v in os.environ.items()
                                         if not k.startswith(ENV_PREFIX)},
                            clear=True):
        cfg = os.path.join(tmp, "tiny.cfg")
        with open(cfg, "w") as f:
            f.write("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = os.path.join(tmp, "out")
        code, lines = _main(["run", cfg, "--out", out])
        assert code in (0, 1, 2)
        if code:
            return
        seeds = values["run.seeds"].split(",")
        assert len(lines) == len(seeds)
        for seed, line in zip(seeds, lines):
            assert line.startswith(f"seed {seed}: ")
            ckpt = os.path.join(out, f"seed_{seed}", "checkpoint")
            code, scored = _main(["eval", ckpt, cfg],
                                 {ENV_PREFIX + "RUN_SEEDS": seed})
            assert code == 0, (seed, scored)
            assert scored[-1] == line.split("  ")[-1]  # A_T=<the run's A_T>
