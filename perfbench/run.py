"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``./src``.
One process, one caller, no threads of its own (BLAS keeps whatever its
environment gives it; the variables are recorded).  The last line of
standard output is the JSON result; the full record, with provenance and
output hashes, goes to ``perfbench/out/``.  Exit code 2 means the checkout
holds no program to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import stats  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (DEFAULT_SEED, LAYER_TARGETS,  # noqa: E402
                                 TIMING_TARGETS, WORKLOADS, ProgramMissing,
                                 Workload, import_program, load_goldens,
                                 sha256_dir)

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
SETUP_REPEATS = {"train-sgds": 9, "train-preg-all": 9, "eval-ckpt": 3}
IMPORT_PROBES = 15
# the host speed is sampled between operations and between the program's
# top-level calls, but no sooner than this after the last sample
SAMPLE_GAP_S = 0.3
# times import_program in a fresh interpreter; argv: perfbench's parent, root
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "from perfbench.workloads import import_program; "
                "t0 = time.perf_counter(); import_program(sys.argv[2]); "
                "print(time.perf_counter() - t0)")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer metrics: span name -> stats reported for it
LAYER_STATS = (
    ("rng.stream_rng", ("calls", "self_s")),
    ("masking.sparsify_and_record", ("calls", "self_s")),
    ("masking.ActivationCounters.record", ("calls", "self_s")),
    ("masking.top_k_mask", ("calls", "self_s")),
    ("masking.dispatch_probability", ("calls", "self_s")),
    ("masking.relation_distribution", ("self_s",)),
    ("training.build_batch_tape", ("self_s",)),
    ("numerics.backward", ("calls", "self_s")),
    ("numerics.sgd_step", ("self_s",)),
    ("training.align_old_prototypes", ("self_s",)),
    ("training.fit_class_gaussians", ("self_s",)),
    ("inference.predict", ("self_s",)),
    ("inference.embed", ("calls",)),
    ("model.extract", ("calls", "self_s")),
    ("model.block_forward", ("calls", "self_s")),
    ("model.merge_universal", ("calls", "self_s")),
    ("checkpoint.load_state", ("self_s",)),
    ("checkpoint.save_state", ("self_s",)),
    ("data.generate_synthetic", ("self_s",)),
)
SETUP_LAYERS = ("checkpoint.save_state", "data.generate_synthetic")


def provenance(root: str, seed: int) -> dict:
    import numpy as np
    info = {"seed": seed, "git_commit": git_commit(root),
            "src_sha256": sha256_dir(os.path.join(root, "src", "sgds"),
                                     suffix=".py"),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_env": {v: os.environ.get(v, "unset") for v in BLAS_ENV}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        info["blas"] = {"name": blas.get("name"), "version": blas.get("version"),
                        "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_times(root: str, n: int, speed: HostSpeed) -> list[tuple]:
    """Import time of sgds (numpy included) in ``n`` fresh interpreters, in turn.

    Each entry is (seconds measured in the child, start, end of the child in
    this process's clock); the host speed is sampled before every child.
    """
    bench_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = []
    for _ in range(n):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, bench_parent,
                               root], cwd=root, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append((float(proc.stdout), t0, time.perf_counter()))
    return out


def timed(fn, *args):
    """(start, end, result) of one call."""
    t0 = time.perf_counter()
    out = fn(*args)
    return t0, time.perf_counter(), out


def spans_of(tracer: Tracer, run_ids, name: str) -> list[int]:
    """Indices of the spans named ``name`` recorded during ``run_ids``."""
    runs = {tracer.run_ids.index(r) for r in run_ids}
    idx = tracer.names.index(name)
    return [i for i in range(len(tracer.start))
            if tracer.name[i] == idx and tracer.run[i] in runs]


def end_to_end(w: Workload, tracer: Tracer, setup_runs, op_runs, imports,
               setups, ops, scale) -> tuple[dict, dict]:
    """End-to-end metrics; ``scale(t0, t1)`` gives the seconds of an interval.

    ``imports`` holds (seconds measured in the child, t0, t1); ``setups`` and
    ``ops`` hold (t0, t1).  ``HostSpeed.scale`` gives reference seconds,
    ``HostSpeed.wall`` wall seconds.
    """
    def span_s(i):
        return scale(tracer.start[i], tracer.end[i])

    def rate(run_ids, name):
        """Median over runs of work done (the span annotations) ÷ time in the spans.

        Each run's rate pools all its calls, so a slowdown of the late, larger
        tasks of a run moves it as much as their share of the run's time.
        """
        rates = []
        for r in run_ids:
            spans = spans_of(tracer, [r], name)
            rates.append(sum(tracer.info[i] for i in spans)
                         / sum(span_s(i) for i in spans))
        return statistics.median(rates)

    import_s = [s * scale(t0, t1) / (t1 - t0) for s, t0, t1 in imports]
    setup_s = [scale(t0, t1) for t0, t1 in setups]
    op_s = [scale(t0, t1) for t0, t1 in ops]
    calls = [span_s(i) for i in spans_of(tracer, op_runs, "inference.predict")]
    tail = stats.tail_percentile(len(calls))
    metrics = {
        "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        "run_s": statistics.median(op_s),
        # eval-ckpt trains only while it sets up
        "train_samples_per_s": rate(setup_runs if w.is_eval else op_runs,
                                    "training.train_task"),
        "eval_samples_per_s": rate(op_runs, "inference.evaluate_row"),
        "predict_samples_per_s": rate(op_runs, "inference.predict"),
        "predict_call_p50_ms": 1e3 * stats.percentile(calls, 50),
        "predict_call_tail_ms": 1e3 * stats.percentile(calls, tail or 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"import_probes_s": import_s, "setup_repeats_s": setup_s,
             "op_s": op_s, "ops_timed": len(op_s),
             "predict_calls": len(calls), "predict_call_tail_pct": tail,
             "predict_call_s": calls,
             "train_task_s": [[span_s(i) for i in
                               spans_of(tracer, [r], "training.train_task")]
                              for r in (setup_runs if w.is_eval else op_runs)]}
    return metrics, extra


def per_layer(tracer: Tracer, setup_runs, op_runs, scale) -> tuple[dict, bool]:
    """Per-layer metrics; a span's self time counts at the rate ``scale`` gives it."""
    self_t = [t * scale(a, b) / (b - a) if b > a else t
              for t, a, b in zip(tracer.self_times(), tracer.start, tracer.end)]
    groups = tracer.spans_by_run()
    name_of = tracer.names

    def summarize(run_ids):
        rows = []
        for r in run_ids:
            calls, self_s = {}, {}
            for i in groups[r]:
                n = name_of[tracer.name[i]]
                calls[n] = calls.get(n, 0) + 1
                self_s[n] = self_s.get(n, 0.0) + self_t[i]
            rows.append((calls, self_s, groups[r]))
        return rows

    op_rows, setup_rows = summarize(op_runs), summarize(setup_runs)
    metrics = {}
    for name, kinds in LAYER_STATS:
        rows = setup_rows if name in SETUP_LAYERS else op_rows
        if "calls" in kinds:  # a count, so the median is one run's count
            metrics[f"{name}.calls"] = statistics.median_low(
                [row[0].get(name, 0) for row in rows])
        if "self_s" in kinds:
            metrics[f"{name}.self_s"] = statistics.median(
                [row[1].get(name, 0.0) for row in rows])

    def derived(fn):
        vals = [v for v in (fn(row[2]) for row in op_rows) if v is not None]
        return statistics.median(vals) if vals else 0.0

    def named(spans, name):
        idx = name_of.index(name)
        return [i for i in spans if tracer.name[i] == idx]

    def tape_nodes(spans):
        nodes = [tracer.info[i] for i in named(spans, "numerics.backward")]
        return sum(nodes) / len(nodes) if nodes else None

    def prefix_frac(spans):
        blocks = set(named(spans, "model.block_forward"))
        if not blocks:
            return None
        prefix = 0
        children: dict[int, list[int]] = {}
        for i in blocks:
            children.setdefault(tracer.parent[i], []).append(i)
        for p, kids in children.items():
            first_target = tracer.info.get(p, 0)
            prefix += sum(pos < first_target for pos, _ in enumerate(sorted(kids)))
        return prefix / len(blocks)

    def distinct_frac(spans):
        sets = [tracer.info[i] for i in named(spans, "model.merge_universal")]
        return len(set(sets)) / len(sets) if sets else None

    metrics["numerics.tape_nodes"] = derived(tape_nodes)
    metrics["model.block_forward.prefix_frac"] = derived(prefix_frac)
    metrics["model.merge_universal.distinct_frac"] = derived(distinct_frac)
    counts_repeat = all(op_rows[0][0] == row[0] for row in op_rows)
    return metrics, counts_repeat


def run(args, root: str, overrides=None, goldens=None, out_dir=None) -> dict:
    """Set up, warm up, then run closed-loop operations for ``args.seconds``.

    ``overrides`` (extra config keys), ``goldens`` and ``out_dir`` replace the
    workload's defaults; tests use them to run a small, deliberately wrong
    case in a directory of their own.
    """
    t0 = time.perf_counter()
    import_program(root)
    first_import_s = time.perf_counter() - t0
    speed = HostSpeed()
    # the first import may compile bytecode; set-up counts warm imports only
    imports = import_times(root, IMPORT_PROBES, speed) if not args.trace else []
    goldens = load_goldens() if goldens is None else goldens
    golden = goldens.get(args.workload, {}).get(str(args.seed))
    out_dir = out_dir or os.path.join(root, "perfbench", "out")
    w = Workload(args.workload, args.seed,
                 os.path.join(out_dir, "work", args.workload),
                 overrides=overrides, golden=golden)
    timing = Tracer(TIMING_TARGETS,
                    before_top=lambda: speed.sample_after(SAMPLE_GAP_S))
    layers = Tracer(LAYER_TARGETS,
                    before_top=lambda: speed.sample_after(SAMPLE_GAP_S))
    setup_tracer = layers if args.trace else timing
    failures: list[str] = []
    attempted = 0

    def attempt(label, fn):
        nonlocal attempted
        attempted += 1
        try:
            bad = fn()
        except Exception as exc:  # an operation that raises counts as failed
            bad = [f"exception {type(exc).__name__}: {exc}"]
        if bad:
            failures.append(f"{label}: {', '.join(map(str, bad))}")

    setups, setup_runs = [], []
    for i in range(SETUP_REPEATS[args.workload]):
        setup_runs.append(f"setup-{i}")
        setup_tracer.begin_run(setup_runs[-1])
        speed.sample()
        with setup_tracer:
            t0, t1, s = timed(w.setup)
        setups.append((t0, t1))
        if w.is_eval:
            attempt(setup_runs[-1], lambda: w.check_setup(s))

    def op(tracer, run_id):
        speed.sample_after(SAMPLE_GAP_S)
        tracer.begin_run(run_id)
        with tracer:
            t0, t1, out = timed(w.run, s)
        attempt(run_id, lambda: w.check(s, w.observe(s, out)))
        return t0, t1

    # the window opens with one warm-up operation, checked but not in the stats
    start = time.perf_counter()
    warmup = op(timing, "warmup")
    ops, traced, op_runs, traced_runs = [], [], [], []
    while True:
        k = len(ops) + len(traced)
        if args.trace and k % 2:
            traced_runs.append(f"op-{k}")
            traced.append(op(layers, traced_runs[-1]))
        else:
            op_runs.append(f"op-{k}")
            ops.append(op(timing, op_runs[-1]))
        if (time.perf_counter() - start >= args.seconds
                and (traced or not args.trace)):
            break
    speed.sample()  # closes the last operation's interval

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "why": WORKLOADS[args.workload][0],
              "pinned": golden is not None, "warmup_s": warmup[1] - warmup[0],
              "first_import_s": first_import_s,
              "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted, "failures": failures,
              "outputs": w.reference,
              "waiting": "none: one process, one closed-loop caller, no queues",
              "host_kernel_s": speed.seconds,
              "provenance": provenance(root, args.seed)}
    if args.trace:
        metrics, counts_repeat = per_layer(layers, setup_runs, traced_runs,
                                           speed.scale)
        metrics["trace.overhead_s"] = (
            statistics.median(speed.scale(t0, t1) for t0, t1 in traced)
            - statistics.median(speed.scale(t0, t1) for t0, t1 in ops))
        record.update(traced_ops=len(traced), untraced_ops=len(ops),
                      call_counts_repeat=counts_repeat,
                      spans=len(layers.start))
        layers.save(os.path.join(out_dir, f"spans-{args.workload}.npz"))
    else:
        metrics, extra = end_to_end(w, timing, setup_runs, op_runs, imports,
                                    setups, ops, speed.scale)
        record.update(extra)
        record["wall_metrics"], wall = end_to_end(
            w, timing, setup_runs, op_runs, imports, setups, ops, speed.wall)
        record["wall"] = {k: wall[k] for k in ("import_probes_s", "setup_repeats_s",
                                               "op_s", "predict_call_s")}
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    try:
        record = run(args, root)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    metrics = {n: {"value": record["metrics"][n], "unit": units[n]}
               for n in units}
    path = os.path.join(root, "perfbench", "out", f"result-{args.workload}"
                        f"-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for key in ("workload", "seed", "pinned", "attempted", "failed",
                "failed_frac", "waiting"):
        print(f"{key}: {record[key]}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    if not args.trace:
        print(f"predict_call_tail_ms is p{record['predict_call_tail_pct']} "
              f"of {record['predict_calls']} calls; run_s is the median of "
              f"{record['ops_timed']} operations")
        print("times are in reference seconds (perfbench/hostspeed.py); "
              f"in wall seconds: {json.dumps(record['wall_metrics'])}")
    for n, m in metrics.items():
        print(f"{n}: {m['value']!r} {m['unit']}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"record: {path}")
    print(json.dumps({"correct": not record["failures"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
