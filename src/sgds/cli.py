"""Command-line entry point.

Exit codes: 0 success, 1 input error (a ContractViolation or an OSError),
2 numeric failure.
Any config key can be overridden with an environment variable named
SGDS_<KEY> where dots become underscores (e.g. SGDS_TRAIN_EPOCHS=5).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .checkpoint import load_state
from .data import generate_class_pool, write_embeddings
from .experiment import (build_stream, parse_config, run_ablation,
                         run_experiment)
from .inference import evaluate_row
from .model import FrozenBackbone
from .numerics import ContractViolation, NumericError


def _cmd_run(args) -> int:
    results = run_experiment(parse_config(args.config, args.overrides))
    for res in results:
        print(f"seed {res.seed}: A_bar={res.a_bar:.4f}  A_T={res.a_final:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    rows = run_ablation(parse_config(args.config, args.overrides),
                        param_reg=args.param_reg, layer_sweep=args.layer_sweep)
    for r in rows:
        print(f"{r['cell']:>14}: A_bar={r['a_bar_mean']:.4f}  "
              f"A_T={r['a_T_mean']:.4f}")
    return 0


def _cmd_eval(args) -> int:
    cfg = parse_config(args.config)
    backbone = FrozenBackbone.create(cfg["model.layers"], cfg["model.dim"])
    state = load_state(args.checkpoint, backbone)
    stream = build_stream(cfg, cfg.seeds[0])
    tasks = stream.tasks[: len(state.adapters)]
    classes = [c for t in tasks for c in t.classes]
    if state.class_ids != classes:
        raise ContractViolation(
            f"checkpoint classes {state.class_ids} are not the classes "
            f"{classes} of the stream's first {len(state.adapters)} tasks")
    sets = [(t.test_x, t.test_y) for t in tasks]
    accs = evaluate_row(state, sets)
    for j, acc in enumerate(accs, 1):
        print(f"task {j}: {acc:.4f}")
    print(f"A_T={np.mean(accs):.4f}")
    return 0


def _cmd_inspect_counters(args) -> int:
    import os
    path = os.path.join(args.checkpoint, "counters.csv")
    with open(path) as f:
        sys.stdout.write(f.read())
    return 0


def _cmd_gen_synthetic(args) -> int:
    spec = parse_config(args.config).synthetic_spec()
    train, test = generate_class_pool(spec)
    # per class: train samples first, then the test split
    xs, ys = [], []
    for c in range(spec.num_classes):
        xs.extend([train[c], test[c]])
        ys.append(np.full(len(train[c]) + len(test[c]), c, dtype=np.uint32))
    write_embeddings(args.out, np.concatenate(xs), np.concatenate(ys),
                     spec.num_classes)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgds", description="continual-learning experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    # --out X is the config override out.dir = X, applied after SGDS_OUT_DIR
    out = dict(dest="overrides", type=lambda d: {"out.dir": d}, help="set out.dir")

    p = sub.add_parser("run", help="train and evaluate all configured seeds")
    p.add_argument("config", nargs="?", default=None,
                   help="key=value config file (defaults apply if omitted)")
    p.add_argument("--out", **out)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="run the SE/AC ablation grid")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--out", **out)
    p.add_argument("--param-reg", action="store_true",
                   help="also run the up/down/both penalty baselines")
    p.add_argument("--layer-sweep", action="store_true",
                   help="also sweep the target layer placement")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("config", nargs="?", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("inspect-counters", help="print a checkpoint's counters")
    p.add_argument("checkpoint")
    p.set_defaults(func=_cmd_inspect_counters)

    p = sub.add_parser("gen-synthetic", help="write the synthetic set as SGDSEMB1")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("out")
    p.set_defaults(func=_cmd_gen_synthetic)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
