"""Benchmark of the unitring CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): sieve-sqrt5, count-quadratic, cubic-sharded.

Load model: a batch tool with one client in a closed loop.  Each pass is a
fresh interpreter (worker.py) that sets up, runs the workload's ops one
after another through `unitring.cli.main` and checks every report.
A --trace 0 run first samples set-up time in a few extra interpreters
that only set up, then makes at least two passes and repeats them while
the next one is expected to end within --seconds of the run's start;
figures are medians over the passes.

Host speed.  On a shared host the speed of one core drifts by a quarter
and more within seconds and over minutes, and CPU time drifts with it,
so raw times of runs made minutes apart spread wider than any useful
bound.  Every pass therefore times a short fixed loop that uses no
unitring code (worker.probe_s) right after set-up and, from a timer,
every 50 ms while its ops run (about 2% of their time).  The times
reported are scaled to a host on which that loop takes PROBE_REF_S:
each op's time is multiplied by PROBE_REF_S over the mean probe time
during the op, each set-up time by PROBE_REF_S over the mean probe time
right after it.  The raw figures and each pass's scale (scaled over raw
wall time) are printed as comment lines and kept in the result file.

--trace 0 prints the end-to-end metrics: wall_s, cpu_s (ops, including
pool workers) and setup_s (process start to first op), all three scaled
to the reference host speed, then peak_rss_mb and interval_rel_width.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: calls and time of each layer's public functions, each layer's
self time, counters, and the tracing overhead (scaled traced wall time
less scaled untraced wall time).  Span times are raw and include the
probes that fall inside them.

Every op's report must match its stored digest (digests.json) or, for
inputs without one, the in-tree oracles, and must be the same bytes in
every pass, traced or not; an op that exits non-zero or fails its check
counts in "failed", and failed_ops_share is printed as a comment line
(it is 0 on a correct program, so it is no bounded metric).  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The full result,
with the machine it ran on, goes to .perfbench_work/ in the checkout.

Exits with status 2, printing no result, when the unitring sources are
not in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import workloads
from worker import HERE, ROOT, WORK

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7
# Untraced passes of a --trace 0 run even when a third would not end
# within --seconds.
MIN_PASSES = 2
# Seconds worker.probe_s takes on the reference host: about the fastest
# a 2-core Xeon host of this benchmark ran it.  Times are scaled to it.
PROBE_REF_S = 0.00075
# A run must end within 180 s; each worker gets what is left of this.
RUN_LIMIT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("interval_rel_width", "ratio"),
)

LAYERS = ("cli", "density", "fpoly", "geometry", "field", "ideal", "intfactor", "order", "tower")


def _calls(span):
    return lambda tr: tr["calls"].get(span, 0)


def _secs(span):
    return lambda tr: tr["total_s"].get(span, 0.0)


def _counter(key):
    return lambda tr: tr["counters"].get(key, 0)


def _ratio(num, den):
    return lambda tr: num(tr) / den(tr) if den(tr) else 0.0


# (metric, unit, span whose hook it needs, value from one traced pass)
TRACED = (
    ("density.euler_s", "s", "density.euler_density", _secs("density.euler_density")),
    ("density.local_factor_calls", "count", "density.local_factor", _calls("density.local_factor")),
    ("density.local_factor_s", "s", "density.local_factor", _secs("density.local_factor")),
    ("fpoly.roots_in_fq_calls", "count", "fpoly.roots_in_fq", _calls("fpoly.roots_in_fq")),
    ("fpoly.roots_in_fq_s", "s", "fpoly.roots_in_fq", _secs("fpoly.roots_in_fq")),
    ("density.conductor_sum_s", "s", "density.conductor_sum", _secs("density.conductor_sum")),
    ("density.interval_den_bits", "bits", "density.euler_density",
     lambda tr: tr["euler"][1] if tr["euler"] else 0),
    ("density.poly_eval_s", "s", "density.poly_eval", _secs("density.poly_eval")),
    ("intfactor.is_prime_calls", "count", "intfactor.is_prime", _calls("intfactor.is_prime")),
    ("intfactor.is_prime_s", "s", "intfactor.is_prime", _secs("intfactor.is_prime")),
    ("intfactor.power_free_calls", "count", "intfactor.power_free", _calls("intfactor.power_free")),
    ("intfactor.power_free_s", "s", "intfactor.power_free", _secs("intfactor.power_free")),
    ("intfactor.factor_calls", "count", "intfactor.factor", _calls("intfactor.factor")),
    ("intfactor.factor_s", "s", "intfactor.factor", _secs("intfactor.factor")),
    ("ideal.split_prime_calls", "count", "ideal.split_prime", _calls("ideal.split_prime")),
    ("ideal.split_prime_s", "s", "ideal.split_prime", _secs("ideal.split_prime")),
    ("ideal.split_prime_hit_ratio", "ratio", "ideal.split_prime",
     _ratio(_counter("ideal.split_prime.hits"), _calls("ideal.split_prime"))),
    ("ideal.mfree_calls", "count", "ideal.mfree", _calls("ideal.mfree")),
    ("ideal.mfree_s", "s", "ideal.mfree", _secs("ideal.mfree")),
    ("ideal.valuation_calls", "count", "ideal.valuation", _calls("ideal.valuation")),
    ("geometry.enumerate_s", "s", "geometry.enumerate", _secs("geometry.enumerate")),
    ("geometry.candidates", "count", "geometry.prefilter", _calls("geometry.prefilter")),
    ("geometry.region_points", "count", "geometry.enumerate", _counter("geometry.enumerate.yields")),
    ("geometry.candidates_per_point", "ratio", "geometry.prefilter",
     _ratio(_calls("geometry.prefilter"), _counter("geometry.enumerate.yields"))),
    ("geometry.prefilter_s", "s", "geometry.prefilter", _secs("geometry.prefilter")),
    ("geometry.exact_decisions", "count", "geometry.exact", _calls("geometry.exact")),
    ("geometry.exact_s", "s", "geometry.exact", _secs("geometry.exact")),
    ("field.norm_calls", "count", "field.norm", _calls("field.norm")),
    ("field.norm_s", "s", "field.norm", _secs("field.norm")),
    ("cli.pool_starts", "count", "cli.pool", _counter("cli.pool.starts")),
    ("tower.build_s", "s", "tower.build", _secs("tower.build")),
    ("tower.candidates_tried", "count", "tower.candidates", _counter("tower.candidates.yields")),
    ("tower.verify_s", "s", "tower.verify", _secs("tower.verify")),
    ("trace.spans", "count", None, lambda tr: tr["spans"]),
) + tuple(
    (f"{layer}.self_s", "s", None, lambda tr, layer=layer: tr["self_s"].get(layer, 0.0))
    for layer in LAYERS
)

SETUP_PARTS = ("setup.import_s", "setup.prime_table_s", "setup.params_s")


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, deadline, *flags, tag="pass"):
    """Run worker.py once; returns its result with setup_s filled in.

    The worker runs in its own session, so that a worker overrunning
    `deadline`, or outliving an interrupted run, is killed together with
    its pool processes.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--tag", tag, *flags]
    env = {k: v for k, v in os.environ.items() if k != "UNITRING_THREADS"}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - started, 1))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    sys.stderr.write(stderr)
    if proc.returncode != 0 or not stdout.strip():
        raise WorkerError(f"worker exited with status {proc.returncode}")
    result = json.loads(stdout.splitlines()[-1])
    result["setup_s"] = result["setup_end"] - started
    return result


def machine():
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "limits": [
            "no system-wide tracing: spans come from wrappers in the benchmark's own "
            "processes around calls into unitring's modules",
            "shared host: other tenants' load moves wall and CPU time",
        ],
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def check_passes(passes):
    """(attempted, failed, errors): every op must pass its check, and each
    op's report must be the same bytes in every pass."""
    attempted = failed = 0
    errors = []
    first = passes[0]["ops"] + passes[0]["untimed_ops"]
    for k, p in enumerate(passes):
        for i, v in enumerate(p["ops"] + p["untimed_ops"]):
            attempted += 1
            error = v["error"]
            if error is None and v["sha256"] != first[i]["sha256"]:
                error = "report differs between passes"
            if error is not None:
                failed += 1
                errors.append(f"pass {k} op {i} ({v['key']}): {error}")
    widths = {p.get("interval_rel_width") for p in passes}
    if len(widths) != 1 or None in widths:
        errors.append(f"interval_rel_width differs between passes or is missing: {widths}")
    return attempted, failed, errors


def scaled(result, key):
    """Sum over the timed ops of result[key] (per-op times), each scaled by
    PROBE_REF_S over the mean probe time during the op.  An op too short to
    be probed takes the mean probe time of the whole pass."""
    probes = result["op_probe_s"]
    every = [t for op in probes for t in op]
    total = 0.0
    for t, op in zip(result[key], probes):
        during = op or every
        total += t * PROBE_REF_S * len(during) / sum(during)
    return total


def end_to_end(untraced, setups):
    """(metrics, notes); times are scaled to the reference host speed.

    `setups` holds the results of the set-up probes and of the passes.
    """
    scales = [scaled(p, "op_wall_s") / p["wall_s"] for p in untraced]
    values = {
        "wall_s": median(scaled(p, "op_wall_s") for p in untraced),
        "cpu_s": median(scaled(p, "op_cpu_s") for p in untraced),
        "setup_s": median(r["setup_s"] * PROBE_REF_S / r["setup_probe_s"] for r in setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
        "interval_rel_width": untraced[0].get("interval_rel_width"),
    }
    notes = [
        "raw, unscaled: wall_s {} s, cpu_s {} s, setup_s {} s".format(
            median(p["wall_s"] for p in untraced), median(p["cpu_s"] for p in untraced),
            median(r["setup_s"] for r in setups)),
        "host scale per pass (scaled over raw wall_s): "
        + " ".join(f"{k:.3f}" for k in scales),
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, notes


def _merge(records):
    """Sum per-op trace records into one, in the shape TRACED reads; the
    interval figures come from the widest truncation."""
    out = {"calls": {}, "total_s": {}, "self_s": {}, "counters": {}, "spans": 0}
    for rec in records:
        for key in ("calls", "total_s", "self_s", "counters"):
            for k, v in rec[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["spans"] += rec["spans"]
    out["euler"] = max((rec["euler"] for rec in records if rec["euler"]), default=None)
    return out


def per_layer(untraced, traced, n_ops, threads):
    """(metrics, notes), medians over the traced passes.

    The figures cover the timed ops only: spans of untimed ops and of the
    checks after them are left out.
    """
    missing = {span: hook for hook, span in traced[0].get("missing_hooks", [])}
    timed = [str(k) for k in range(n_ops)]
    whole = [_merge([p["trace"][k] for k in timed if k in p["trace"]]) for p in traced]
    out, notes = {}, []
    for name, unit, span, fn in TRACED:
        value = None
        if span in missing:
            notes.append(f"{name}: hook {missing[span]} not found")
        else:
            value = median(fn(tr) for tr in whole)
        out[name] = {"value": value, "unit": unit}
    if "cli.pool" in missing and threads > 1:
        notes.append("pool workers are untraced: layer figures leave out their work")
    wall = median(p["wall_s"] for p in untraced)
    cpu = median(p["cpu_s"] for p in untraced)
    out["cli.parallel_efficiency"] = {"value": cpu / (threads * wall), "unit": "ratio"}
    for name in SETUP_PARTS:
        out[name] = {"value": median(p[name] for p in untraced), "unit": "s"}
    overhead = (median(scaled(p, "op_wall_s") for p in traced)
                - median(scaled(p, "op_wall_s") for p in untraced))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # A terminated run unwinds, so that spawn() kills the worker it waits on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "unitring", "cli.py")):
        sys.stderr.write(f"perfbench: no unitring sources under {ROOT}/src\n")
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    wl = workloads.build(args.workload, args.seed)
    untraced, traced, setups = [], [], []
    try:
        if not args.trace:
            for k in range(SETUP_PROBES):
                setups.append(spawn(wl.name, args.seed, deadline, "--setup-only",
                                    tag=f"probe{k}"))
        loop_start = time.monotonic()
        while True:
            tracing = bool(args.trace) and len(traced) < len(untraced)
            flags = ("--trace",) if tracing else ()
            tag = f"pass{len(untraced) + len(traced)}"
            result = spawn(wl.name, args.seed, deadline, *flags, tag=tag)
            (traced if tracing else untraced).append(result)
            if not tracing:
                setups.append(result)
            if args.trace and not traced:
                continue
            if any(v["error"] for v in result["ops"] + result["untimed_ops"]):
                break  # repeating a failing pass measures nothing
            if not args.trace and len(untraced) < MIN_PASSES:
                continue
            now = time.monotonic()
            per_pass = (now - loop_start) / (len(untraced) + len(traced))
            if now + per_pass - start > args.seconds:
                break
    except (WorkerError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1

    attempted, failed, errors = check_passes(untraced + traced)
    if args.trace:
        metrics, notes = per_layer(untraced, traced, len(wl.ops), wl.threads)
    else:
        metrics, notes = end_to_end(untraced, setups)
    full = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "ops": [op.key for op in wl.ops],
        "passes": {"untraced": len(untraced), "traced": len(traced), "setup_samples": len(setups)},
        "checked_by": sorted({v["checked_by"] for p in untraced + traced
                              for v in p["ops"] + p["untimed_ops"] if v["checked_by"]}),
        "backend": untraced[0].get("backend"),
        "machine": machine(),
        "errors": errors,
        "notes": notes,
        "metrics": metrics,
        "samples": {
            "wall_s": [p["wall_s"] for p in untraced],
            "traced_wall_s": [p["wall_s"] for p in traced],
            "cpu_s": [p["cpu_s"] for p in untraced],
            "setup_s": [r["setup_s"] for r in setups],
            "host_scale": [scaled(p, "op_wall_s") / p["wall_s"] for p in untraced],
        },
    }
    with open(os.path.join(WORK, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2)

    for line in errors + notes:
        print(f"# {line}")
    print(f"# failed_ops_share {failed / attempted} ({failed} of {attempted} ops)")
    print(f"# {wl.name} seed={args.seed} passes={full['passes']} checked_by={full['checked_by']}")
    print(f"# machine {json.dumps(full['machine'])} backend={full['backend']}")
    for name, m in metrics.items():
        print(f"{name}\t{m['value']}\t{m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
