"""Regenerate digests.json, the stored sha256 of every op's report.

    python3 perfbench/make_digests.py

Runs the ops of every workload for seeds 0..SEEDS-1 in this process, each
at --threads 1, checks each report against the in-tree oracles and records
its digest under the op's key.  Run it only on a commit whose reports are
known to be right: run.py treats these digests as the truth.
"""

import dataclasses
import hashlib
import json
import os
import sys

import workloads
from worker import DIGESTS, ROOT, WORK, oracle_check, sieve_params

SEEDS = 16


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from unitring import cli

    work = os.path.join(WORK, "digests")
    os.makedirs(work, exist_ok=True)
    digests = {}
    for name in workloads.NAMES:
        for seed in range(SEEDS):
            wl = workloads.build(name, seed)
            paths = {}
            for op in wl.ops + wl.untimed_ops:
                paths[op] = os.path.join(work, f"op{len(paths)}.out")
                if op.key in digests and op.command != "tower":
                    continue
                single = dataclasses.replace(op, threads=1)
                rc = cli.main(single.argv(paths[op], paths.get(op.tower, "")))
                with open(paths[op], "rb") as fh:
                    data = fh.read()
                params = None
                if op.command in ("density", "count"):
                    params = sieve_params(op.field, op.order, op.eta, op.exclude)
                error = f"exit status {rc}" if rc != 0 else oracle_check(op, data.decode(), params)
                if error is not None:
                    sys.exit(f"{name} seed {seed}: {op.key}: {error}")
                digests[op.key] = hashlib.sha256(data).hexdigest()
                print(f"{name} seed {seed}: {op.key}", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
