"""Record the outputs every workload must reproduce, per seed, in goldens.json.

    python3 perfbench/pin.py --seeds 1-10 1993

Run it only on a commit whose outputs are known good: a later run whose
outputs differ from these counts as failed.  Existing seeds are kept unless
pinned again.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import (GOLDENS_PATH, WORKLOADS,  # noqa: E402
                                 Workload, import_program, load_goldens)


def pin(seed: int, workdir: str) -> dict:
    out = {}
    for name in WORKLOADS:
        w = Workload(name, seed, os.path.join(workdir, name))
        s = w.setup()
        out[name] = s.observed if w.is_eval else w.observe(s, w.run(s))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", nargs="+", required=True,
                   help="seeds or inclusive ranges such as 1-10")
    args = p.parse_args(argv)
    seeds = []
    for part in args.seeds:
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    import_program(os.getcwd())
    goldens = load_goldens()
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        for seed in seeds:
            for name, fields in pin(seed, workdir).items():
                goldens.setdefault(name, {})[str(seed)] = fields
                shown = {k: v for k, v in fields.items()
                         if k in ("A_bar", "A_T", "accuracy")}
                print(f"seed {seed} {name}: {shown}", flush=True)
    for name in goldens:
        goldens[name] = dict(sorted(goldens[name].items(), key=lambda kv: int(kv[0])))
    with open(GOLDENS_PATH, "w") as f:
        json.dump(goldens, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
