"""Experiment harness: config files, runs, ablation grids, report emission."""
from __future__ import annotations

import json
import math
import os
import re
import shutil
import time
from contextlib import contextmanager
from dataclasses import Field, dataclass, field, fields

import numpy as np

from .checkpoint import layer_bitmap, save_state
from .data import (SyntheticSpec, embeddings_to_stream, generate_synthetic,
                   load_embeddings)
from .inference import evaluate_row, summarize
from .masking import Strategy
from .model import FrozenBackbone
from .numerics import ContractViolation
from .training import ContinualState, TrainConfig, train_task

ENV_PREFIX = "SGDS_"


def _to_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ContractViolation(f"expected boolean, got {s!r}")


def _to_seeds(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(int(p) for p in s.split(","))


_TRAIN = {f.name: f for f in fields(TrainConfig)}
_SPEC = {f.name: f for f in fields(SyntheticSpec)}

_SCHEMA: dict[str, tuple] = {
    # key: (converter, default, minimum or None); the default of a key that
    # sets a TrainConfig or SyntheticSpec field is that field, which holds it
    "dataset.kind": (str, "synthetic", None),
    "dataset.path": (str, "", None),
    "dataset.groups": (int, _SPEC["groups"], 1),
    "dataset.classes_per_group": (int, _SPEC["classes_per_group"], 1),
    "dataset.angle": (float, _SPEC["within_group_angle"], None),
    "dataset.noise": (float, _SPEC["noise_sigma"], None),
    "dataset.train_per_class": (int, _SPEC["samples_per_class_train"], 1),
    "dataset.test_per_class": (int, _SPEC["samples_per_class_test"], 0),
    "dataset.seed": (int, _SPEC["seed"], None),
    "tasks.count": (int, 10, 1),
    "tasks.seed": (int, 1993, None),
    "model.layers": (int, 4, 1),
    "model.dim": (int, _SPEC["dim"], 1),
    "adapter.rank": (int, _TRAIN["adapter_rank"], 1),
    "sgds.enabled": (_to_bool, True, None),
    "sgds.k": (float, 0.6, None),
    "sgds.beta": (float, _TRAIN["beta"], 0.0),
    "sgds.gamma": (float, _TRAIN["gamma"], 0.0),
    "sgds.target_layers": (str, "last", None),
    "sgds.se": (_to_bool, True, None),
    "sgds.ac": (_to_bool, True, None),
    "train.epochs": (int, _TRAIN["epochs"], 1),
    "train.batch": (int, _TRAIN["batch"], 1),
    "train.lr": (float, _TRAIN["lr"], 0.0),
    "train.momentum": (float, _TRAIN["momentum"], 0.0),
    "train.weight_decay": (float, _TRAIN["weight_decay"], 0.0),
    "baseline.param_reg.mode": (str, _TRAIN["param_reg_mode"], None),
    "baseline.param_reg.lambda": (float, _TRAIN["param_reg_lambda"], 0.0),
    "align.samples": (int, _TRAIN["align_samples"], 0),
    "run.seeds": (_to_seeds, (), None),
    "out.dir": (str, "runs", None),
    "out.chart": (_to_bool, False, None),
}


@dataclass
class Config:
    """Converted values by dotted key; a Config that exists is a valid one."""

    values: dict

    def __post_init__(self):
        v = self.values
        for key, (conv, _, low) in _SCHEMA.items():
            if conv is float and not math.isfinite(v[key]):
                raise ContractViolation(f"{key} must be finite, got {v[key]}")
            if low is not None and v[key] < low:
                raise ContractViolation(f"{key} must be at least {low}, got {v[key]}")
        if v["model.dim"] >= 1 << 29:  # the SGDSEMB1 dim bound
            raise ContractViolation(
                f"model.dim must be below 2^29, got {v['model.dim']}")
        if v["train.momentum"] >= 1.0:  # v = β·v + g would never decay
            raise ContractViolation(
                f"train.momentum must be below 1, got {v['train.momentum']}")
        if not 0.0 < v["sgds.k"] <= 1.0:
            raise ContractViolation(f"sgds.k must be in (0, 1], got {v['sgds.k']}")
        if v["adapter.rank"] > v["model.dim"] // 2:
            raise ContractViolation(f"adapter.rank must be at most model.dim // 2 = "
                                    f"{v['model.dim'] // 2}, got {v['adapter.rank']}")
        kept = math.floor(v["sgds.k"] * v["model.dim"])
        if kept < 1:
            raise ContractViolation(
                f"floor(sgds.k * model.dim) must be at least 1, got {kept}")
        for i, s in enumerate(v["run.seeds"]):
            if s in v["run.seeds"][:i]:
                raise ContractViolation(f"run seed {s} given twice")
        kind = v["dataset.kind"]
        if kind not in ("synthetic", "embeddings"):
            raise ContractViolation(f"unknown dataset.kind {kind!r}")
        if kind == "embeddings" and not v["dataset.path"]:
            raise ContractViolation("dataset.path required for embeddings mode")
        classes = v["dataset.groups"] * v["dataset.classes_per_group"]
        if kind == "synthetic" and classes >= 1 << 32:  # SGDSEMB1's u32 count
            raise ContractViolation("dataset.groups * dataset.classes_per_group "
                                    "must be below 2^32")
        if kind == "synthetic" and classes % v["tasks.count"]:
            raise ContractViolation(f"tasks.count {v['tasks.count']} does not divide "
                                    f"the {classes} synthetic classes")
        # the checks the run itself would make, before any output exists
        self.train_config()
        layer_bitmap(self.target_layers)
        if kind == "synthetic":
            self.synthetic_spec()

    def __getitem__(self, key):
        return self.values[key]

    @property
    def target_layers(self) -> tuple[int, ...]:
        raw = self.values["sgds.target_layers"]
        if raw == "last":
            return (self.values["model.layers"] - 1,)
        try:
            layers = tuple(sorted(int(p) for p in raw.split(",")))
        except ValueError:
            raise ContractViolation(f"bad sgds.target_layers value {raw!r}")
        for i, l in enumerate(layers):
            if not 0 <= l < self.values["model.layers"]:
                raise ContractViolation(f"target layer {l} out of range")
            if l in layers[:i]:
                raise ContractViolation(f"target layer {l} given twice")
        return layers

    @property
    def seeds(self) -> tuple[int, ...]:
        return self.values["run.seeds"] or (self.values["tasks.seed"],)

    def _fields(self, cls) -> dict:
        """The values of the keys whose default is a field of ``cls``."""
        return {d.name: self.values[k] for k, (_, d, _) in _SCHEMA.items()
                if d in fields(cls)}

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(**self._fields(SyntheticSpec))

    def train_config(self) -> TrainConfig:
        on = self.values["sgds.enabled"]
        return TrainConfig(se_enabled=on and self.values["sgds.se"],
                           ac_enabled=on and self.values["sgds.ac"],
                           **self._fields(TrainConfig))


def parse_config(path=None, overrides: dict | None = None) -> Config:
    """Flat key=value file with dotted keys; env vars SGDS_* override keys."""
    values = {k: d.default if isinstance(d, Field) else d
              for k, (_, d, _) in _SCHEMA.items()}
    raw: dict[str, str] = {}
    if path is not None:
        # undecodable bytes become lone surrogates, which cannot encode back
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            for ln, line in enumerate(f, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ContractViolation(f"{path}:{ln}: not UTF-8 text") from None
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ContractViolation(f"{path}:{ln}: expected key=value")
                key, _, val = line.partition("=")
                raw[key.strip()] = val.strip()
    env_name = {k: ENV_PREFIX + k.replace(".", "_").upper() for k in _SCHEMA}
    for k, name in env_name.items():
        if name in os.environ:
            raw[k] = os.environ[name]
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items()})
    for key, val in raw.items():
        if key not in _SCHEMA:
            raise ContractViolation(f"unknown config key {key!r}")
        try:
            values[key] = _SCHEMA[key][0](val)
        except ContractViolation:
            raise
        except ValueError:
            raise ContractViolation(f"bad value for {key!r}: {val!r}")
    return Config(values)


def build_stream(cfg: Config, split_seed: int):
    if cfg["dataset.kind"] == "synthetic":
        return generate_synthetic(cfg.synthetic_spec(), cfg["tasks.count"],
                                  split_seed)
    x, y, num_classes = load_embeddings(cfg["dataset.path"])
    if x.shape[1] != cfg["model.dim"]:
        raise ContractViolation("embedding dim does not match model.dim")
    return embeddings_to_stream(x, y, num_classes, cfg["tasks.count"],
                                split_seed, cfg["dataset.test_per_class"])


@dataclass
class RunResult:
    seed: int
    matrix: np.ndarray
    a_bar: float
    a_final: float
    state: ContinualState
    task_seconds: list[float] = field(default_factory=list)


def run_single(cfg: Config, seed: int, stream) -> RunResult:
    """Train every task of ``stream`` in order and evaluate after each one."""
    tcfg = cfg.train_config()
    backbone = FrozenBackbone.create(cfg["model.layers"], cfg["model.dim"])
    state = ContinualState(backbone, cfg.target_layers, cfg["sgds.k"],
                           cfg["sgds.enabled"])
    state.prefixes = {}  # no one else sees the state or the sets until it returns
    t_total = len(stream.tasks)
    matrix = np.full((t_total, t_total), np.nan)
    seconds = []
    for t, task in enumerate(stream.tasks):
        t0 = time.perf_counter()
        train_task(state, task, tcfg, seed)
        sets = [(tk.test_x, tk.test_y) for tk in stream.tasks[: t + 1]]
        matrix[t, : t + 1] = evaluate_row(state, sets)
        seconds.append(time.perf_counter() - t0)
    state.prefixes = None
    a_bar, a_final = summarize(matrix)
    return RunResult(seed, matrix, a_bar, a_final, state, seconds)


def _fmt(x: float) -> str:
    return f"{x:.10f}"


def write_results_csv(path, matrix: np.ndarray, a_bar: float, a_final: float) -> None:
    t_total = matrix.shape[0]
    with open(path, "w") as f:
        cols = ",".join(f"acc_task_{j + 1}" for j in range(t_total))
        f.write(f"task_index,{cols},avg_acc_so_far\n")
        for t in range(t_total):
            cells = [_fmt(matrix[t, j]) if j <= t else "" for j in range(t_total)]
            f.write(f"{t + 1},{','.join(cells)},{_fmt(matrix[t, : t + 1].mean())}\n")
        blanks = "," * t_total
        f.write(f"A_bar{blanks},{_fmt(a_bar)}\n")
        f.write(f"A_T{blanks},{_fmt(a_final)}\n")


def write_strategy_csv(path, state: ContinualState) -> None:
    with open(path, "w") as f:
        f.write("task,class,S_old,S_new,strategy\n")
        for t, log in enumerate(state.task_logs, 1):
            for p in log.profiles:
                f.write(f"{t},{p.class_id},{_fmt(p.s_old)},{_fmt(p.s_new)},"
                        f"{p.strategy.value}\n")


def strategy_counts(state: ContinualState) -> list[dict]:
    rows = []
    for t, log in enumerate(state.task_logs, 1):
        reuse = sum(p.strategy is Strategy.KNOWLEDGE_REUSE for p in log.profiles)
        rows.append({"task": t, "reuse": reuse,
                     "allocate": len(log.profiles) - reuse})
    return rows


def write_chart_svg(path, avg_acc: list[float]) -> None:
    """Minimal static line chart of average accuracy vs task index."""
    w, h, pad = 480, 300, 40
    n = len(avg_acc)
    xs = [pad + (w - 2 * pad) * (i / max(n - 1, 1)) for i in range(n)]
    ys = [h - pad - (h - 2 * pad) * (v / 100.0) for v in avg_acc]
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    with open(path, "w") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">\n')
        f.write(f'<rect width="{w}" height="{h}" fill="white"/>\n')
        f.write(f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>\n')
        f.write(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>\n')
        f.write(f'<polyline fill="none" stroke="steelblue" stroke-width="2" points="{points}"/>\n')
        f.write(f'<text x="{w // 2}" y="{h - 8}" text-anchor="middle" font-size="12">task</text>\n')
        f.write(f'<text x="12" y="{h // 2}" font-size="12" transform="rotate(-90 12 {h // 2})">avg acc (%)</text>\n')
        f.write("</svg>\n")


@contextmanager
def _marks_failure(cfg: Config, what: str):
    """Drop an old ``out.dir/FAILED``; write one naming ``what`` on a raise."""
    failed = os.path.join(cfg["out.dir"], "FAILED")
    if os.path.exists(failed):
        os.remove(failed)
    try:
        yield
    except Exception:
        with open(failed, "w") as f:
            f.write(f"{what} aborted\n")
        raise


def run_experiment(cfg: Config) -> list[RunResult]:
    """Run every configured seed into ``out.dir``: per-seed reports, an aggregate."""
    out_dir = cfg["out.dir"]
    streams = {seed: build_stream(cfg, seed) for seed in cfg.seeds}
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):  # every earlier run's seed directories and summary
        path = os.path.join(out_dir, name)
        if re.fullmatch(r"seed_-?\d+", name) and os.path.isdir(path):
            shutil.rmtree(path)
        elif name == "summary.csv":
            os.remove(path)
    results = []
    for seed in cfg.seeds:
        run_dir = os.path.join(out_dir, f"seed_{seed}")
        os.makedirs(run_dir)
        with _marks_failure(cfg, f"seed {seed}"):
            res = run_single(cfg, seed, stream=streams[seed])
        results.append(res)
        write_results_csv(os.path.join(run_dir, "results.csv"),
                          res.matrix, res.a_bar, res.a_final)
        write_strategy_csv(os.path.join(run_dir, "strategy.csv"), res.state)
        res.state.counters.dump_csv(os.path.join(run_dir, "counters.csv"))
        save_state(os.path.join(run_dir, "checkpoint"), res.state)
        t_total = res.matrix.shape[0]
        report = {
            "seed": seed,
            "config": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in cfg.values.items()},
            "a_bar": res.a_bar,
            "a_final": res.a_final,
            "matrix": [[res.matrix[t, j] for j in range(t + 1)]
                       for t in range(t_total)],
            "strategy_counts": strategy_counts(res.state),
            "task_seconds": res.task_seconds,
        }
        with open(os.path.join(run_dir, "report.json"), "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        if cfg["out.chart"]:
            avg = [float(res.matrix[t, : t + 1].mean()) for t in range(t_total)]
            write_chart_svg(os.path.join(run_dir, "chart.svg"), avg)
    with open(os.path.join(out_dir, "summary.csv"), "w") as f:
        f.write("seed,A_bar,A_T\n")
        for res in results:
            f.write(f"{res.seed},{_fmt(res.a_bar)},{_fmt(res.a_final)}\n")
        if len(results) > 1:
            bars = np.array([r.a_bar for r in results])
            finals = np.array([r.a_final for r in results])
            f.write(f"mean,{_fmt(bars.mean())},{_fmt(finals.mean())}\n")
            f.write(f"std,{_fmt(bars.std())},{_fmt(finals.std())}\n")
    return results


ABLATION_CELLS = (
    # (name, sgds.enabled, sgds.se, sgds.ac)
    ("baseline", False, False, False),
    ("se_only", True, True, False),
    ("ac_only", True, False, True),
    ("full", True, True, True),
)


def run_ablation(cfg: Config, param_reg: bool = False,
                 layer_sweep: bool = False) -> list[dict]:
    """SE/AC grid (optionally param-reg modes and a layer sweep) into ``out.dir``."""
    out_dir = cfg["out.dir"]
    cells = [(name, {"sgds.enabled": on, "sgds.se": se, "sgds.ac": ac,
                     "baseline.param_reg.mode": "off"})
             for name, on, se, ac in ABLATION_CELLS]
    grid = dict(cells)
    if param_reg:
        cells += [(f"param_reg_{mode}",
                   {**grid["baseline"], "baseline.param_reg.mode": mode})
                  for mode in ("up", "down", "both")]
    if layer_sweep:
        cells += [(f"layer_{l}", {**grid["full"], "sgds.target_layers": str(l)})
                  for l in range(cfg["model.layers"])]
    # every cell is checked and every stream built before any output exists
    cells = [(name, Config({**cfg.values, **o})) for name, o in cells]
    streams = {seed: build_stream(cfg, seed) for seed in cfg.seeds}
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    # a cell's row is written when it ends, so a failure keeps earlier rows
    with open(os.path.join(out_dir, "ablation.csv"), "w") as f:
        f.write("cell,sgds,se,ac,param_reg,layers,"
                "A_bar_mean,A_bar_std,A_T_mean,A_T_std\n")
        for name, cell in cells:
            bars, finals = [], []
            for seed in cfg.seeds:
                with _marks_failure(cfg, f"cell {name} seed {seed}"):
                    res = run_single(cell, seed, stream=streams[seed])
                bars.append(res.a_bar)
                finals.append(res.a_final)
            bars, finals = np.array(bars), np.array(finals)
            r = {"cell": name, "sgds": cell["sgds.enabled"],
                 "se": cell["sgds.se"], "ac": cell["sgds.ac"],
                 "param_reg": cell["baseline.param_reg.mode"],
                 "layers": ",".join(map(str, cell.target_layers)),
                 "a_bar_mean": float(bars.mean()),
                 "a_bar_std": float(bars.std()),
                 "a_T_mean": float(finals.mean()),
                 "a_T_std": float(finals.std())}
            rows.append(r)
            f.write(f"{r['cell']},{r['sgds']},{r['se']},{r['ac']},"
                    f"{r['param_reg']},\"{r['layers']}\","
                    f"{_fmt(r['a_bar_mean'])},{_fmt(r['a_bar_std'])},"
                    f"{_fmt(r['a_T_mean'])},{_fmt(r['a_T_std'])}\n")
            f.flush()
    return rows
