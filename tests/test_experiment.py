import json
import math
import os
import shutil
import struct
from dataclasses import Field, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgds.cli import main
from sgds import experiment
from sgds.data import SyntheticSpec
from sgds.experiment import (_SCHEMA, ENV_PREFIX, Config, build_stream,
                             parse_config, run_ablation, run_experiment,
                             run_single)
from sgds.numerics import ContractViolation
from sgds.training import TrainConfig

from test_model import flat

QUICK = {
    "tasks.count": 3,
    "dataset.groups": 2,
    "dataset.classes_per_group": 3,
    "dataset.train_per_class": 20,
    "dataset.test_per_class": 10,
    "train.epochs": 4,
    "model.dim": 16,
    "model.layers": 2,
    "adapter.rank": 4,
    "align.samples": 32,
}


def quick_config(tmp_path, **extra):
    lines = {**QUICK, **extra}
    path = tmp_path / "quick.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def test_defaults_match_protocol():
    cfg = parse_config()
    assert cfg["tasks.seed"] == 1993
    assert cfg["sgds.k"] == 0.6
    assert cfg["sgds.beta"] == 0.5
    assert cfg["sgds.gamma"] == 1.0
    assert cfg["adapter.rank"] == 16
    assert cfg["train.epochs"] == 20
    assert cfg["train.batch"] == 48
    assert cfg["train.lr"] == 0.01
    assert cfg.target_layers == (3,)


def test_every_run_setting_has_one_schema_row():
    named = [d for _, d, _ in _SCHEMA.values() if isinstance(d, Field)]
    owned = [f for cls in (TrainConfig, SyntheticSpec) for f in fields(cls)
             if f.name not in ("se_enabled", "ac_enabled")]
    assert sorted(f.name for f in named) == sorted(f.name for f in owned)
    assert all(named.count(f) == 1 for f in owned)
    cfg = parse_config()
    assert cfg.train_config() == TrainConfig()
    assert cfg.synthetic_spec() == SyntheticSpec()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sgds.bogus = 1\n")
    with pytest.raises(ContractViolation):
        parse_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("train.epochs = soon\n")
    with pytest.raises(ContractViolation):
        parse_config(path)


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SGDS_TRAIN_EPOCHS", "7")
    cfg = parse_config(quick_config(tmp_path))
    assert cfg["train.epochs"] == 7


def test_seed_list_parsing(tmp_path):
    cfg = parse_config(quick_config(tmp_path, **{"run.seeds": "1993,1994"}))
    assert cfg.seeds == (1993, 1994)
    cfg = parse_config(quick_config(tmp_path))
    assert cfg.seeds == (1993,)


def test_stream_build_synthetic(tmp_path):
    cfg = parse_config(quick_config(tmp_path))
    stream = build_stream(cfg, 1993)
    assert len(stream.tasks) == 3
    assert stream.input_dim == 16


def read_results_csv(path):
    """Parse a results.csv back into (matrix, a_bar, a_final)."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    t_total = len(lines[0].split(",")) - 2
    matrix = np.full((t_total, t_total), np.nan)
    for t in range(t_total):
        cells = lines[1 + t].split(",")
        for j in range(t + 1):
            matrix[t, j] = float(cells[1 + j])
    a_bar = float(lines[1 + t_total].split(",")[-1])
    a_final = float(lines[2 + t_total].split(",")[-1])
    return matrix, a_bar, a_final


def test_run_experiment_outputs(tmp_path):
    cfg = parse_config(quick_config(tmp_path))
    out = tmp_path / "out"
    results = run_experiment(Config({**cfg.values, "out.dir": str(out)}))
    run_dir = out / "seed_1993"
    assert (run_dir / "results.csv").exists()
    assert (run_dir / "strategy.csv").exists()
    assert (run_dir / "counters.csv").exists()
    assert (run_dir / "report.json").exists()
    assert (run_dir / "checkpoint" / "stats.bin").exists()
    lines = (run_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 + 2  # header, T rows, two footer rows
    # metric recomputability from the emitted file
    matrix, a_bar, a_final = read_results_csv(run_dir / "results.csv")
    from sgds.inference import summarize
    rb, rf = summarize(matrix)
    assert abs(rb - results[0].a_bar) < 1e-9
    assert abs(rf - results[0].a_final) < 1e-9
    assert abs(a_bar - rb) < 1e-9


def test_strategy_log_completeness(tmp_path):
    cfg = parse_config(quick_config(tmp_path))
    out = tmp_path / "out"
    run_experiment(Config({**cfg.values, "out.dir": str(out)}))
    report = json.loads((out / "seed_1993" / "report.json").read_text())
    stream = build_stream(cfg, 1993)
    for row, task in zip(report["strategy_counts"], stream.tasks):
        assert row["reuse"] + row["allocate"] == len(task.classes)


def test_run_determinism_byte_identical(tmp_path):
    cfg = parse_config(quick_config(tmp_path))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(Config({**cfg.values, "out.dir": str(out1)}))
    run_experiment(Config({**cfg.values, "out.dir": str(out2)}))
    for name in ("results.csv", "strategy.csv"):
        b1 = (out1 / "seed_1993" / name).read_bytes()
        b2 = (out2 / "seed_1993" / name).read_bytes()
        assert b1 == b2


def test_multi_seed_summary(tmp_path):
    cfg = parse_config(quick_config(tmp_path, **{"run.seeds": "1,2"}))
    out = tmp_path / "out"
    run_experiment(Config({**cfg.values, "out.dir": str(out)}))
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "seed,A_bar,A_T"
    assert len(lines) == 1 + 2 + 2  # per-seed rows + mean + std
    assert (out / "seed_1").exists() and (out / "seed_2").exists()


def test_rerun_removes_seed_directories_of_another_seed_list(tmp_path,
                                                            monkeypatch):
    cfg_path, out = quick_config(tmp_path), tmp_path / "o"
    monkeypatch.setenv("SGDS_RUN_SEEDS", "1,2")
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    for name in ("seed_x", "notes"):
        (out / name).mkdir()
    (out / "seed_5").write_text("not a run\n")
    monkeypatch.delenv("SGDS_RUN_SEEDS")
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["notes", "seed_1993", "seed_5",
                                       "seed_x", "summary.csv"]
    lines = (out / "summary.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["seed", "1993"]


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_failure_writes_marker(tmp_path):
    cfg = parse_config(quick_config(tmp_path, **{"train.weight_decay": "1e200"}))
    out = tmp_path / "out"
    with pytest.raises(Exception):
        run_experiment(Config({**cfg.values, "out.dir": str(out)}))
    assert (out / "FAILED").exists()


@pytest.mark.filterwarnings("ignore:overflow")
def test_failed_rerun_leaves_no_summary_of_the_earlier_run(tmp_path,
                                                           monkeypatch):
    cfg_path, out = quick_config(tmp_path), tmp_path / "o"
    monkeypatch.setenv("SGDS_RUN_SEEDS", "1,2")
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    monkeypatch.setenv("SGDS_TRAIN_WEIGHT_DECAY", "1e200")
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert sorted(os.listdir(out)) == ["FAILED", "seed_1"]


def test_ablation_grid_rows(tmp_path):
    cfg = parse_config(quick_config(tmp_path, **{"train.epochs": 2}))
    out = tmp_path / "out"
    rows = run_ablation(Config({**cfg.values, "out.dir": str(out)}))
    assert [r["cell"] for r in rows] == ["baseline", "se_only", "ac_only", "full"]
    assert (out / "ablation.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow")
def test_failed_ablation_keeps_finished_cells(tmp_path, monkeypatch, capsys):
    # lambda only weighs the penalty, so the four grid cells run as usual
    monkeypatch.setenv("SGDS_BASELINE_PARAM_REG_LAMBDA", "1e300")
    out = tmp_path / "ab"
    assert main(["ablate", str(quick_config(tmp_path)), "--out", str(out),
                 "--param-reg"]) == 2
    assert capsys.readouterr().err.startswith("numeric failure: task 2,")
    assert (out / "FAILED").read_text() == "cell param_reg_up seed 1993 aborted\n"
    rows = (out / "ablation.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows] == ["cell", "baseline", "se_only",
                                               "ac_only", "full"]


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("command", ["run", "ablate"])
def test_good_run_removes_stale_failed_marker(tmp_path, monkeypatch, command):
    out = tmp_path / "o"
    argv = [command, str(quick_config(tmp_path)), "--out", str(out)]
    monkeypatch.setenv("SGDS_TRAIN_WEIGHT_DECAY", "1e200")
    assert main(argv) == 2
    assert (out / "FAILED").exists()
    monkeypatch.delenv("SGDS_TRAIN_WEIGHT_DECAY")
    assert main(argv) == 0
    assert not (out / "FAILED").exists()


def test_readme_config_table_lists_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        lines = f.read().splitlines()
    start = lines.index("| Key | Default | Minimum | Meaning |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1])
    assert [k for k in _SCHEMA if not any(f"`{k}`" in r for r in rows)] == []


def test_ablation_param_reg_rows(tmp_path):
    cfg = parse_config(quick_config(tmp_path, **{"train.epochs": 2}))
    rows = run_ablation(Config({**cfg.values, "out.dir": str(tmp_path / "out")}),
                        param_reg=True)
    assert [r["cell"] for r in rows[4:]] == ["param_reg_up", "param_reg_down",
                                             "param_reg_both"]


def test_chart_emitted(tmp_path):
    cfg = parse_config(quick_config(tmp_path, **{"out.chart": "true"}))
    out = tmp_path / "out"
    run_experiment(Config({**cfg.values, "out.dir": str(out)}))
    svg = (out / "seed_1993" / "chart.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_run_and_eval_roundtrip(tmp_path, capsys):
    cfg_path = quick_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert main(["eval", str(out / "seed_1993" / "checkpoint"),
                 str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "A_T=" in captured.out


def test_cli_eval_finds_the_run_seed_of_the_checkpoint(tmp_path, capsys):
    # seed 1's split does not begin with seed 2's classes, and no env var
    # names the seed: eval tries each run seed in order
    cfg_path = quick_config(tmp_path, **{"run.seeds": "1,2"})
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    a_t = capsys.readouterr().out.splitlines()[1].split("  ")[-1]
    cfg = parse_config(cfg_path)
    assert build_stream(cfg, 1).tasks[0].classes != build_stream(cfg, 2).tasks[0].classes
    assert main(["eval", str(out / "seed_2" / "checkpoint"), str(cfg_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == a_t


# overflows a finite state at scoring time: an lr of 1e300 on one-row tasks
OVERFLOWS_IN_PREDICT = {
    "model.dim": 4, "model.layers": 2, "tasks.count": 2, "dataset.groups": 1,
    "dataset.classes_per_group": 2, "dataset.train_per_class": 1,
    "dataset.test_per_class": 1, "adapter.rank": 2, "sgds.enabled": "false",
    "sgds.k": 0.25, "sgds.target_layers": "0,1", "train.epochs": 1,
    "train.batch": 1, "train.lr": 1e300, "align.samples": 0, "run.seeds": 0}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_whose_scores_overflow_exits_2_without_warnings(tmp_path, capsys):
    path = tmp_path / "q.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in OVERFLOWS_IN_PREDICT.items()))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "non-finite ensemble scores in predict" in err
    assert "RuntimeWarning" not in err


def test_shorter_rerun_leaves_no_output_of_the_longer_run(tmp_path, monkeypatch,
                                                          capsys):
    cfg_path, out = quick_config(tmp_path), tmp_path / "o"
    run_dir = out / "seed_1993"
    monkeypatch.setenv("SGDS_TASKS_COUNT", "6")
    monkeypatch.setenv("SGDS_OUT_CHART", "true")
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (run_dir / "chart.svg").exists()
    assert len(os.listdir(run_dir / "checkpoint")) == 6 + 2
    monkeypatch.delenv("SGDS_TASKS_COUNT")  # the file's tasks.count = 3
    monkeypatch.delenv("SGDS_OUT_CHART")
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(os.listdir(run_dir)) == ["checkpoint", "counters.csv",
                                           "report.json", "results.csv",
                                           "strategy.csv"]
    assert sorted(os.listdir(run_dir / "checkpoint")) == [
        "adapter_000.sgdsadp", "adapter_001.sgdsadp", "adapter_002.sgdsadp",
        "counters.csv", "stats.bin"]
    capsys.readouterr()
    assert main(["eval", str(run_dir / "checkpoint"), str(cfg_path)]) == 0
    _, _, a_final = read_results_csv(run_dir / "results.csv")
    assert capsys.readouterr().out.splitlines()[-1] == f"A_T={a_final:.4f}"


def test_cli_out_sets_out_dir(tmp_path, monkeypatch, capsys):
    cfg_path, out = quick_config(tmp_path), tmp_path / "o"
    monkeypatch.setenv("SGDS_OUT_DIR", str(tmp_path / "env"))
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "seed_1993" / "report.json").read_text())
    assert report["config"]["out.dir"] == str(out)
    assert not (tmp_path / "env").exists()
    assert main(["run", str(cfg_path), "--out", ""]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_inspect_counters(tmp_path, capsys):
    cfg_path = quick_config(tmp_path)
    out = tmp_path / "out"
    main(["run", str(cfg_path), "--out", str(out)])
    capsys.readouterr()
    assert main(["inspect-counters", str(out / "seed_1993" / "checkpoint")]) == 0
    assert capsys.readouterr().out.startswith("layer,unit,F")


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not.a.key = 1\n")
    assert main(["run", str(bad)]) == 1


BAD_VALUES = [("SGDS_TRAIN_BATCH", "0", "must be at least 1"),
              ("SGDS_TRAIN_BATCH", "-5", "must be at least 1"),
              ("SGDS_TRAIN_EPOCHS", "0", "must be at least 1"),
              ("SGDS_ALIGN_SAMPLES", "-4", "must be at least 0"),
              ("SGDS_TRAIN_LR", "nan", "must be finite"),
              ("SGDS_TRAIN_MOMENTUM", "inf", "must be finite"),
              ("SGDS_SGDS_BETA", "-inf", "must be finite"),
              # a negative rate, momentum or weight would train against the loss
              ("SGDS_TRAIN_LR", "-0.5", "train.lr must be at least 0.0, got -0.5"),
              ("SGDS_TRAIN_MOMENTUM", "-0.1",
               "train.momentum must be at least 0.0, got -0.1"),
              # at β >= 1 the velocity in v = β·v + g never decays
              ("SGDS_TRAIN_MOMENTUM", "1", "train.momentum must be below 1, got 1.0"),
              ("SGDS_TRAIN_MOMENTUM", "1.5", "train.momentum must be below 1, got 1.5"),
              ("SGDS_TRAIN_WEIGHT_DECAY", "-1e-4",
               "train.weight_decay must be at least 0.0, got -0.0001"),
              ("SGDS_BASELINE_PARAM_REG_LAMBDA", "-2",
               "baseline.param_reg.lambda must be at least 0.0, got -2.0"),
              ("SGDS_SGDS_BETA", "-0.5", "sgds.beta must be at least 0.0, got -0.5"),
              ("SGDS_SGDS_GAMMA", "-1e-300",
               "sgds.gamma must be at least 0.0, got -1e-300"),
              ("SGDS_TASKS_COUNT", "0", "tasks.count must be at least 1"),
              ("SGDS_MODEL_LAYERS", "0", "model.layers must be at least 1"),
              ("SGDS_MODEL_DIM", "0", "model.dim must be at least 1"),
              ("SGDS_ADAPTER_RANK", "0", "adapter.rank must be at least 1"),
              ("SGDS_ADAPTER_RANK", "-2", "adapter.rank must be at least 1"),
              ("SGDS_DATASET_GROUPS", "0", "dataset.groups must be at least 1"),
              ("SGDS_DATASET_CLASSES_PER_GROUP", "0",
               "dataset.classes_per_group must be at least 1"),
              ("SGDS_DATASET_TRAIN_PER_CLASS", "0",
               "dataset.train_per_class must be at least 1"),
              ("SGDS_DATASET_TEST_PER_CLASS", "-1",
               "dataset.test_per_class must be at least 0"),
              ("SGDS_SGDS_K", "0", "sgds.k must be in (0, 1], got 0.0"),
              ("SGDS_SGDS_K", "1.5", "sgds.k must be in (0, 1], got 1.5"),
              ("SGDS_ADAPTER_RANK", "9",
               "adapter.rank must be at most model.dim // 2 = 8, got 9"),
              ("SGDS_TASKS_COUNT", "4",
               "tasks.count 4 does not divide the 6 synthetic classes"),
              ("SGDS_DATASET_GROUPS", "17",
               "dim must be >= groups to orthogonalize bases"),
              ("SGDS_SGDS_K", "0.01",
               "floor(sgds.k * model.dim) must be at least 1, got 0"),
              ("SGDS_TRAIN_EPOCHS", "1",
               "need >= 2 epochs when both phases enabled"),
              ("SGDS_BASELINE_PARAM_REG_MODE", "bogus",
               "bad param_reg mode 'bogus'"),
              ("SGDS_SGDS_TARGET_LAYERS", "9", "target layer 9 out of range"),
              ("SGDS_SGDS_TARGET_LAYERS", "x",
               "bad sgds.target_layers value 'x'"),
              ("SGDS_SGDS_TARGET_LAYERS", "1,1", "target layer 1 given twice"),
              ("SGDS_RUN_SEEDS", "1,1", "run seed 1 given twice"),
              ("SGDS_DATASET_NOISE", "0", "noise_sigma must be positive"),
              ("SGDS_DATASET_KIND", "file", "unknown dataset.kind 'file'"),
              ("SGDS_DATASET_KIND", "embeddings",
               "dataset.path required for embeddings mode"),
              ("SGDS_MODEL_LAYERS", "65",
               "target layers (64,) do not fit a 64-bit layer bitmap (0..63)")]


@pytest.mark.parametrize("var,value,message", BAD_VALUES,
                         ids=[f"{var}-{value}" for var, value, _ in BAD_VALUES])
def test_cli_rejects_nonpositive_batch_and_epochs(tmp_path, monkeypatch,
                                                  capsys, var, value, message):
    monkeypatch.setenv(var, value)
    out = tmp_path / "o"
    assert main(["run", str(quick_config(tmp_path)), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("var,value,message", BAD_VALUES,
                         ids=[f"{var}-{value}" for var, value, _ in BAD_VALUES])
def test_config_checks_values_where_made(tmp_path, var, value, message):
    values = dict(parse_config(quick_config(tmp_path)).values)
    key = next(k for k in values
               if ENV_PREFIX + k.replace(".", "_").upper() == var)
    values[key] = _SCHEMA[key][0](value)
    with pytest.raises(ContractViolation) as exc:
        Config(values)
    assert message in str(exc.value)


def test_cli_rejects_model_dim_too_large_for_a_float(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setenv("SGDS_MODEL_DIM", "1" + "0" * 400)
    out = tmp_path / "o"
    assert main(["run", str(quick_config(tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: model.dim must be below 2^29, got 1{'0' * 400}\n")
    assert not out.exists()


@pytest.mark.parametrize("env,message", [
    ({"SGDS_MODEL_DIM": "1" + "0" * 30},
     "model.dim must be below 2^29, got 1" + "0" * 30),
    ({"SGDS_DATASET_GROUPS": "1" + "0" * 4000,
      "SGDS_DATASET_CLASSES_PER_GROUP": "1" + "0" * 4000, "SGDS_TASKS_COUNT": "7"},
     "dataset.groups * dataset.classes_per_group must be below 2^32")],
    ids=["dim-1e30", "classes-1e8000"])
def test_cli_rejects_sizes_past_the_embedding_format(tmp_path, monkeypatch,
                                                     capsys, env, message):
    # SGDSEMB1 bounds the dim below 2^29 and stores the class count in a u32
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    out = tmp_path / "o"
    assert main(["run", str(quick_config(tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "ablate", "eval", "gen-synthetic"])
def test_cli_rejects_config_text_that_is_not_utf8(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"# a comment\ntrain.epochs=\xff\xfe\n")
    out = tmp_path / "o"
    argv = {"run": ["run", str(cfg), "--out", str(out)],
            "ablate": ["ablate", str(cfg), "--out", str(out)],
            "eval": ["eval", str(out), str(cfg)],
            "gen-synthetic": ["gen-synthetic", str(cfg), str(out)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}:2: not UTF-8 text\n")
    assert not out.exists()


# a value a key may be given: any text, an integer of up to 401 digits (a
# power of ten reaches past the largest float), or a float spelling the
# checks must refuse
CONFIG_VALUES = st.one_of(
    st.text(max_size=12), st.integers(-10 ** 400, 10 ** 400).map(str),
    st.integers(0, 400).map(lambda e: str(10 ** e)),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5", "last", "true"]))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(
           st.binary(max_size=24),
           st.tuples(st.sampled_from(sorted(_SCHEMA)), CONFIG_VALUES).map(
               lambda kv: f"{kv[0]} = {kv[1]}".encode())), max_size=6),
       env=st.dictionaries(st.sampled_from(sorted(_SCHEMA)), CONFIG_VALUES.filter(
           lambda v: "\0" not in v), max_size=3))
def test_parse_config_gives_a_config_or_a_contract_violation(
        tmp_path_factory, lines, env):
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_bytes(b"\n".join(lines))
    with pytest.MonkeyPatch.context() as mp:
        for key, value in env.items():
            mp.setenv(ENV_PREFIX + key.replace(".", "_").upper(), value)
        try:
            cfg = parse_config(path)
        except ContractViolation:
            return
    assert isinstance(cfg, Config)


def test_ablate_checks_every_cell_before_the_first_run(tmp_path, monkeypatch,
                                                       capsys):
    calls = []
    monkeypatch.setattr(experiment, "run_single",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.setenv("SGDS_SGDS_ENABLED", "false")
    monkeypatch.setenv("SGDS_TRAIN_EPOCHS", "1")
    out = tmp_path / "o"
    assert main(["ablate", str(quick_config(tmp_path)), "--out", str(out)]) == 1
    assert "need >= 2 epochs when both phases enabled" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_one_epoch_is_allowed_with_sgds_off(tmp_path, monkeypatch):
    monkeypatch.setenv("SGDS_SGDS_ENABLED", "false")
    monkeypatch.setenv("SGDS_TRAIN_EPOCHS", "1")
    out = tmp_path / "o"
    assert main(["run", str(quick_config(tmp_path)), "--out", str(out)]) == 0
    assert (out / "seed_1993" / "results.csv").exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_empty_test_split_fails_before_any_output(tmp_path, monkeypatch,
                                                  capsys, command):
    monkeypatch.setenv("SGDS_DATASET_TEST_PER_CLASS", "0")
    out = tmp_path / "o"
    assert main([command, str(quick_config(tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: task 1 has no test samples\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_numeric_error_exit_code(tmp_path, capsys):
    # one batch per epoch: the step of epoch 2 overflows, and that batch is
    # named in the typed message, with no NumPy warning before it
    for key, value, where in [
            ("train.weight_decay", "1e200", "task 1, epoch 2, batch 1: non-finite wd_1"),
            ("train.lr", "1e200", "task 1, epoch 2, batch 1: non-finite wu_1"),
            ("train.lr", "1e300", "task 1, epoch 2, batch 1: non-finite wu_1")]:
        cfg_path = quick_config(tmp_path, **{key: value})
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"numeric failure: {where}\n"


@pytest.mark.filterwarnings("error")
def test_cli_numeric_error_names_a_non_finite_loss(tmp_path, capsys):
    # task 2's penalty against task 1's adapter overflows its first loss,
    # which the scan reaches before any gradient or parameter
    cfg_path = quick_config(tmp_path, **{
        "tasks.count": 2, "train.epochs": 2, "baseline.param_reg.mode": "both",
        "baseline.param_reg.lambda": "1e308"})
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "numeric failure: task 2, epoch 1, batch 1: non-finite loss\n")


def test_cli_gen_synthetic_round_trip(tmp_path):
    cfg_path = quick_config(tmp_path)
    out_file = tmp_path / "pool.sgdsemb"
    assert main(["gen-synthetic", str(cfg_path), str(out_file)]) == 0
    from sgds.data import load_embeddings
    x, y, nc = load_embeddings(out_file)
    assert nc == 6
    assert x.shape == (6 * 30, 16)


def test_cli_gen_synthetic_without_test_split(tmp_path, monkeypatch):
    monkeypatch.setenv("SGDS_DATASET_TEST_PER_CLASS", "0")
    out_file = tmp_path / "pool.sgdsemb"
    assert main(["gen-synthetic", str(quick_config(tmp_path)),
                 str(out_file)]) == 0
    from sgds.data import load_embeddings
    assert load_embeddings(out_file)[0].shape == (6 * 20, 16)


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A quick config and the checkpoint directory its run saved."""
    tmp = tmp_path_factory.mktemp("saved")
    cfg_path = quick_config(tmp)
    assert main(["run", str(cfg_path), "--out", str(tmp / "out")]) == 0
    return cfg_path, tmp / "out" / "seed_1993" / "checkpoint"


@pytest.mark.parametrize("name,size,offset", [
    ("adapter_000.sgdsadp", 4, 0),
    ("adapter_000.sgdsadp", 20, 8),
    ("adapter_000.sgdsadp", 40, 32),
    ("adapter_001.sgdsadp", 32 + 8 * 64 + 8, 32 + 8 * 64),
    ("adapter_002.sgdsadp", -1, 32 + 8 * 64),
    ("stats.bin", 20, 8),
    ("stats.bin", 40, 37),
    ("stats.bin", 37 + 4 + 8 * 16 + 3, 37 + 4 + 8 * 16),
    ("stats.bin", -8, 37 + 5 * (4 + 24 * 16) + 4 + 16 * 16)])
def test_cli_eval_rejects_truncated_checkpoint(saved_run, tmp_path, capsys,
                                               name, size, offset):
    cfg_path, ckpt = saved_run
    cut = tmp_path / "ckpt"
    shutil.copytree(ckpt, cut)
    blob = (cut / name).read_bytes()
    (cut / name).write_bytes(blob[:size])
    assert main(["eval", str(cut), str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert name in err and f"(byte offset {offset})" in err


def test_cli_eval_rejects_checkpoint_of_another_backbone(saved_run, monkeypatch,
                                                         capsys):
    cfg_path, ckpt = saved_run
    monkeypatch.setenv("SGDS_MODEL_LAYERS", "3")
    assert main(["eval", str(ckpt), str(cfg_path)]) == 1
    assert "adapter for 2 blocks" in capsys.readouterr().err


def test_cli_eval_rejects_checkpoint_without_adapters(saved_run, tmp_path,
                                                      capsys):
    cfg_path, ckpt = saved_run
    cut = tmp_path / "ckpt"
    shutil.copytree(ckpt, cut)
    for name in os.listdir(cut):
        if name.endswith(".sgdsadp"):
            os.remove(cut / name)
    assert main(["eval", str(cut), str(cfg_path)]) == 1
    assert "no adapter_*.sgdsadp file" in capsys.readouterr().err


def test_cli_eval_rejects_missing_middle_adapter(saved_run, tmp_path, capsys):
    cfg_path, ckpt = saved_run
    cut = tmp_path / "ckpt"
    shutil.copytree(ckpt, cut)
    os.remove(cut / "adapter_001.sgdsadp")
    assert main(["eval", str(cut), str(cfg_path)]) == 1
    assert ("adapter_002.sgdsadp: adapter of task 2, expected task 1"
            in capsys.readouterr().err)


def test_cli_eval_rejects_checkpoint_of_another_split(saved_run, monkeypatch,
                                                     capsys):
    cfg_path, ckpt = saved_run
    monkeypatch.setenv("SGDS_TASKS_SEED", "7")
    assert main(["eval", str(ckpt), str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "checkpoint classes" in err and "first 3 tasks" in err


@pytest.mark.parametrize("k", [math.nan, math.inf, 1.5, 0.0])
def test_cli_eval_rejects_bad_k_in_checkpoint(saved_run, tmp_path, capsys, k):
    cfg_path, ckpt = saved_run
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    blob = bytearray((bad / "stats.bin").read_bytes())
    # header: magic, version, class count, dim, layer bitmap, then k
    assert struct.unpack_from("<d", blob, 28) == (0.6,)
    struct.pack_into("<d", blob, 28, k)
    (bad / "stats.bin").write_bytes(bytes(blob))
    assert main(["eval", str(bad), str(cfg_path)]) == 1
    assert (capsys.readouterr().err
            == f"error: sparsity ratio k must be in (0, 1], got {k}\n")


def test_cli_eval_rejects_checkpoint_without_target_layers(saved_run, tmp_path,
                                                           capsys):
    # task 1 of the saved run, its stats.bin and adapter both with layer
    # bitmap 0: no run writes this, and it would score the bare backbone
    cfg_path, ckpt = saved_run
    bad = tmp_path / "ckpt"
    bad.mkdir()
    stats = bytearray((ckpt / "stats.bin").read_bytes())
    # header: magic, version, class count, dim, then the layer bitmap
    assert struct.unpack_from("<IQ", stats, 16) == (16, 1 << 1)
    struct.pack_into("<IIQ", stats, 12, 2, 16, 0)
    # a 37-byte header, then per class its id and three rows of 16 floats
    (bad / "stats.bin").write_bytes(bytes(stats[:37 + 2 * (4 + 3 * 16 * 8)]))
    adapter = bytearray((ckpt / "adapter_000.sgdsadp").read_bytes()[:32])
    struct.pack_into("<Q", adapter, 24, 0)  # the header's last field
    (bad / "adapter_000.sgdsadp").write_bytes(bytes(adapter))
    assert main(["eval", str(bad), str(cfg_path)]) == 1
    assert capsys.readouterr() == (
        "", "error: no target layer: a state needs one for its adapters "
        "and masks\n")


@pytest.mark.parametrize("rank", [0, 9])
def test_cli_eval_rejects_adapter_rank_outside_the_config_range(
        saved_run, tmp_path, capsys, rank):
    # each adapter rewritten at a rank no Config allows (1..dim // 2 = 8),
    # its one layer's W_down and W_up zeros of that rank
    cfg_path, ckpt = saved_run
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    for path in sorted(bad.glob("adapter_*.sgdsadp")):
        header = bytearray(path.read_bytes()[:32])
        assert struct.unpack_from("<IIQ", header, 16) == (16, 4, 1 << 1)
        struct.pack_into("<I", header, 20, rank)
        path.write_bytes(bytes(header) + bytes(2 * 16 * rank * 8))
    assert main(["eval", str(bad), str(cfg_path)]) == 1
    assert capsys.readouterr() == (
        "", "error: adapter_000.sgdsadp: adapter rank must be in [1, 8], "
        f"got {rank} (byte offset 20)\n")


# stats.bin: a 37-byte header, then per class its id and three rows of 16
# floats (mean, variance, classifier row); an adapter file: a 32-byte header,
# then W_down (16 x 4) and W_up (4 x 16) of layer 1
@pytest.mark.parametrize("name,values,message", [
    ("stats.bin", {37 + 4 + 32 * 8 + 3 * 8: math.nan,
                   37 + (4 + 48 * 8) + 4: math.inf},
     "stats.bin: non-finite classifier row of class 1 (byte offset 321)"),
    ("adapter_000.sgdsadp", {32 + 64 * 8 + 5 * 8: math.inf},
     "adapter_000.sgdsadp: non-finite W_up of layer 1 (byte offset 584)")])
@pytest.mark.filterwarnings("error")
def test_cli_eval_rejects_non_finite_checkpoint_value(saved_run, tmp_path,
                                                      capsys, name, values,
                                                      message):
    cfg_path, ckpt = saved_run
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    blob = bytearray((bad / name).read_bytes())
    for offset, value in values.items():
        struct.pack_into("<d", blob, offset, value)
    (bad / name).write_bytes(bytes(blob))
    assert main(["eval", str(bad), str(cfg_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def patched_masking_byte(ckpt, tmp_path, value):
    """A copy of ``ckpt`` whose stats.bin masking byte is ``value``."""
    bad = tmp_path / "ckpt"
    shutil.copytree(ckpt, bad)
    blob = bytearray((bad / "stats.bin").read_bytes())
    # header: magic, version, class count, dim, layer bitmap, k, then the byte
    assert blob[36] == 1
    blob[36] = value
    (bad / "stats.bin").write_bytes(bytes(blob))
    return bad


@pytest.mark.parametrize("value", [2, 7, 255])
def test_cli_eval_rejects_bad_masking_byte(saved_run, tmp_path, capsys, value):
    cfg_path, ckpt = saved_run
    bad = patched_masking_byte(ckpt, tmp_path, value)
    assert main(["eval", str(bad), str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: stats.bin: masking byte must be 0 or 1, got {value} "
        "(byte offset 36)\n")


@pytest.mark.parametrize("value", [0, 1])
def test_masking_byte_0_and_1_load(saved_run, tmp_path, capsys, value):
    from sgds.checkpoint import load_state
    from sgds.model import FrozenBackbone
    cfg_path, ckpt = saved_run
    ok = patched_masking_byte(ckpt, tmp_path, value)
    assert load_state(ok, FrozenBackbone.create(2, 16)).masked is bool(value)
    assert main(["eval", str(ok), str(cfg_path)]) == 0


def test_cli_rejects_malformed_embedding_file(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.sgdsemb"
    bad.write_bytes(b"garbage")
    monkeypatch.setenv("SGDS_DATASET_KIND", "embeddings")
    monkeypatch.setenv("SGDS_DATASET_PATH", str(bad))
    assert main(["run", str(quick_config(tmp_path)),
                 "--out", str(tmp_path / "o")]) == 1
    assert "bad magic (byte offset 0)" in capsys.readouterr().err


def test_cli_rejects_non_finite_embedding(tmp_path, monkeypatch, capsys):
    from sgds.data import write_embeddings
    x = np.random.default_rng(0).normal(size=(60, 16)).astype(np.float32)
    x[37, 5] = np.nan
    path = tmp_path / "nan.sgdsemb"
    write_embeddings(path, x, np.repeat(np.arange(6), 10), 6)
    monkeypatch.setenv("SGDS_DATASET_KIND", "embeddings")
    monkeypatch.setenv("SGDS_DATASET_PATH", str(path))
    monkeypatch.setenv("SGDS_DATASET_TEST_PER_CLASS", "2")
    assert main(["run", str(quick_config(tmp_path)),
                 "--out", str(tmp_path / "o")]) == 1
    record = 4 + 16 * 4
    assert capsys.readouterr().err == (
        "error: nan.sgdsemb: non-finite feature in sample 37 "
        f"(byte offset {20 + 37 * record})\n")


def test_cli_rejects_embedding_file_with_no_class(tmp_path, monkeypatch,
                                                  capsys):
    # 0 samples of 0 classes: a header with nothing to split into tasks
    path = tmp_path / "empty.sgdsemb"
    path.write_bytes(b"SGDSEMB1" + struct.pack("<III", 0, 16, 0))
    monkeypatch.setenv("SGDS_DATASET_KIND", "embeddings")
    monkeypatch.setenv("SGDS_DATASET_PATH", str(path))
    out = tmp_path / "o"
    assert main(["run", str(quick_config(tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: empty.sgdsemb: num_classes must be at least 1, got 0 "
        "(byte offset 16)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("env,message", [
    ({"SGDS_DATASET_PATH": "missing.sgdsemb"}, "No such file or directory"),
    ({"SGDS_MODEL_DIM": "32"}, "embedding dim does not match model.dim"),
    ({"SGDS_TASKS_COUNT": "4"}, "num_classes must be divisible by num_tasks"),
    ({"SGDS_DATASET_TEST_PER_CLASS": "0"}, "task 1 has no test samples")],
    ids=["missing-path", "dim-mismatch", "indivisible-classes", "no-test-split"])
def test_cli_embedding_errors_precede_output(tmp_path, monkeypatch, capsys,
                                            command, env, message):
    from sgds.data import write_embeddings
    x = np.random.default_rng(0).normal(size=(60, 16)).astype(np.float32)
    write_embeddings(tmp_path / "pool.sgdsemb", x, np.repeat(np.arange(6), 10), 6)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SGDS_DATASET_KIND", "embeddings")
    monkeypatch.setenv("SGDS_DATASET_PATH", "pool.sgdsemb")
    monkeypatch.setenv("SGDS_DATASET_TEST_PER_CLASS", "2")
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    out = tmp_path / "o"
    assert main([command, str(quick_config(tmp_path)), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["run", "quick.cfg", "--out", "a_file"], "File exists"),
    (["eval", "a_file"], "Not a directory"),
    (["inspect-counters", "a_file"], "Not a directory"),
    (["run", "."], "Is a directory")],
    ids=["run-out-file", "eval-file", "inspect-counters-file", "run-directory"])
def test_cli_os_path_errors_exit_1(tmp_path, monkeypatch, capsys, argv,
                                   message):
    quick_config(tmp_path)
    (tmp_path / "a_file").write_text("not a directory\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_checkpoint_state_round_trip(tmp_path):
    from sgds.checkpoint import load_state, save_state
    from sgds.model import FrozenBackbone
    cfg = parse_config(quick_config(tmp_path))
    res = run_single(cfg, 1993, stream=build_stream(cfg, 1993))
    ck = tmp_path / "ck"
    save_state(str(ck), res.state)
    backbone = FrozenBackbone.create(cfg["model.layers"], cfg["model.dim"])
    loaded = load_state(str(ck), backbone)
    assert loaded.class_ids == res.state.class_ids
    np.testing.assert_allclose(loaded.classifier, res.state.classifier, atol=0)
    assert len(loaded.adapters) == len(res.state.adapters)
    for a, b in zip(loaded.adapters, res.state.adapters):
        np.testing.assert_array_equal(flat(a), flat(b))
    # the reloaded state predicts identically
    from sgds.inference import predict
    stream = build_stream(cfg, 1993)
    x = stream.tasks[0].test_x
    np.testing.assert_array_equal(predict(x, loaded), predict(x, res.state))
