"""One pass of a workload in a fresh interpreter.

Sets up as a CLI user pays for it (import, prime table, field specs and
sieve parameters), runs the workload's ops one after another through
`unitring.cli.main`, each writing its report to a file, then checks every
report outside the timed region: against its stored sha256 digest when
digests.json has one, otherwise against the in-tree oracles.  So that
run.py can tell how fast the host ran, it times a short fixed loop that
uses no unitring code (probe_s) right after set-up and every
PROBE_PERIOD_S while the ops run; op times include these probes, about 2%
of them.  Prints one JSON object with timings, resource use and verdicts.

    python3 perfbench/worker.py --workload NAME --seed N
        [--trace] [--setup-only] [--tag TAG]

Reports and spans go to WORK, .perfbench_work/ in the checkout.

run.py starts this script; it is not meant to be called directly.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from time import perf_counter, thread_time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
ORACLE_IDEAL_NORM = 50
PROBE_PERIOD_S = 0.05
SETUP_PROBE_LOOPS = 100


def sieve_params(field_src, order_name, eta, exclude):
    """DensityParams of one sieve, built the way the CLI builds them."""
    from unitring.density import DensityParams, SievePolynomial
    from unitring.fieldspec import load_field_spec
    from unitring.ideal import split_prime

    spec = load_field_spec(field_src)
    field = spec.field
    order = spec.order_by_name(order_name)
    poly = SievePolynomial.x_squared_minus(4 * field.element([int(c) for c in eta.split(",")]))
    excluded = {pid for p in exclude.split(",") if p for pid in split_prime(field, int(p))}
    excluded |= {pid for pid, _ in order.conductor().factor()}
    return DensityParams(order=order, poly=poly, m=2,
                         excluded=tuple(sorted(excluded, key=lambda q: q.sort_key())))


def probe_s():
    """CPU time of a fixed loop of about a millisecond of small-int, tuple
    and dict work.  It uses no unitring code, so only the speed of the
    host moves it, never a change to the program.  CPU time leaves out
    waiting for a core, which pool workers of the op may hold."""
    t = thread_time()
    acc, seen = 0, {}
    for i in range(1, 3000):
        pair = (i * 7919 % 1009, i & 15)
        seen[pair[1]] = seen.get(pair[1], 0) + pair[0]
        acc = (acc * 31 + pair[0] * i) % 1000003
    return thread_time() - t


class HostSampler:
    """Times probe_s() every PROBE_PERIOD_S of wall time while it is active.

    The probes run from a SIGALRM handler in this process, between the
    bytecodes of whatever op is running, so they see the host's speed
    during the op.  Pool workers forked by an op inherit no timer.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(probe_s())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def cpu_seconds():
    """User+sys CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb():
    """The larger peak resident set of this process and of its children."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def report_rows(text):
    """Data rows of a density or count report, as lists of columns."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("x\tN"))
    return [line.split("\t") for line in lines[start + 1:]]


def interval_rel_width(text):
    """(D_hi - D_lo) / D_lo of a density report."""
    row = report_rows(text)[0]
    lo, hi = Fraction(row[3]), Fraction(row[4])
    return float((hi - lo) / lo)


def oracle_check(op, text, params):
    """Compare a report with the in-tree oracles; returns an error or None."""
    from unitring.density import empirical_count_oracle, root_count, root_count_bruteforce
    from unitring.geometry import RegionBox
    from unitring.ideal import iter_ideals

    if op.command == "tower":
        doc = json.loads(text)
        if doc["eta"] != [int(c) for c in op.eta.split(",")]:
            return "tower eta differs from the request"
        if doc["final_index"] != 1 or not all(doc["verification"].values()):
            return "tower does not verify"
        return None
    if op.command == "verify":
        lines = text.splitlines()
        if lines[0] != "check\tpassed" or not all(ln.endswith("\tTrue") for ln in lines[1:]):
            return "verify reports a failed check"
        return None
    rows = report_rows(text)
    if [int(r[0]) for r in rows] != list(op.boxes):
        return "report boxes differ from the request"
    box = RegionBox.cube(params.field.signature, op.boxes[0])
    if int(rows[0][1]) != empirical_count_oracle(params, box):
        return f"count at x={op.boxes[0]} differs from empirical_count_oracle"
    if op.command == "density":
        lo, hi = Fraction(rows[0][3]), Fraction(rows[0][4])
        if not 0 < lo <= hi:
            return "density interval is empty or not positive"
        for ideal in iter_ideals(params.field, ORACLE_IDEAL_NORM):
            if root_count(params.poly, ideal) != root_count_bruteforce(params.poly, ideal):
                return f"root_count differs from root_count_bruteforce at {ideal!r}"
    return None


def run_op(cli, op, out, tower_path, tracer, op_id):
    """Exit status of one op: an int, or a string naming what it raised."""
    argv = op.argv(out, tower_path)
    try:
        if tracer is not None:
            return tracer.run_op(op_id, cli.main, argv)
        return cli.main(argv)
    except SystemExit as e:
        return e.code
    except Exception as e:  # an op that raises is a failed op, not a crash
        traceback.print_exc()
        return f"{type(e).__name__}: {e}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tag", default="pass")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = workloads.build(args.workload, args.seed)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = perf_counter()
    from unitring import cli, intfactor
    t1 = perf_counter()
    intfactor.primes()
    t2 = perf_counter()
    params = {sieve: sieve_params(*sieve) for sieve in wl.sieves}
    t3 = perf_counter()
    out = {"setup_end": time.monotonic(), "setup.import_s": t1 - t0,
           "setup.prime_table_s": t2 - t1, "setup.params_s": t3 - t2,
           "backend": getattr(sys.modules.get("unitring.kernel"), "BACKEND", None)}
    out["setup_probe_s"] = sum(probe_s() for _ in range(SETUP_PROBE_LOOPS)) / SETUP_PROBE_LOOPS
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install(WORK)
        out["missing_hooks"] = tracer.missing

    ops = wl.ops + wl.untimed_ops
    paths = [os.path.join(WORK, f"{args.tag}-op{i}.out") for i in range(len(ops))]
    rcs = []

    def run(i):
        op = ops[i]
        tower_path = paths[ops.index(op.tower)] if op.tower else ""
        rcs.append(run_op(cli, op, paths[i], tower_path, tracer, i))

    # Per timed op: wall and CPU time, and the probe times during it.
    wall, cpu, probes = [], [], []
    with HostSampler() as sampler:
        for i in range(len(wl.ops)):
            k = len(sampler.samples)
            c, w = cpu_seconds(), perf_counter()
            run(i)
            wall.append(perf_counter() - w)
            cpu.append(cpu_seconds() - c)
            probes.append(sampler.samples[k:])
    out.update(wall_s=sum(wall), cpu_s=sum(cpu), op_wall_s=wall, op_cpu_s=cpu,
               op_probe_s=probes)
    out["peak_rss_mb"] = peak_rss_mb()
    for i in range(len(wl.ops), len(ops)):
        run(i)

    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    verdicts = []
    for op, path, rc in zip(ops, paths, rcs):
        verdict = {"key": op.key, "rc": rc, "error": None, "sha256": None, "checked_by": None}
        if rc != 0:
            verdict["error"] = f"exit status {rc}"
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            verdict["sha256"] = hashlib.sha256(data).hexdigest()
            expected = digests.get(op.key)
            if expected is not None:
                verdict["checked_by"] = "digest"
                if verdict["sha256"] != expected:
                    verdict["error"] = "report differs from its stored digest"
            else:
                verdict["checked_by"] = "oracle"
                sieve = (op.field, op.order, op.eta, op.exclude)
                try:
                    verdict["error"] = oracle_check(op, data.decode(), params.get(sieve))
                except (ValueError, KeyError, IndexError, StopIteration) as e:
                    verdict["error"] = f"malformed report: {e!r}"
        verdicts.append(verdict)
    out["ops"] = verdicts[:len(wl.ops)]
    out["untimed_ops"] = verdicts[len(wl.ops):]
    iv = verdicts[ops.index(wl.interval_op)]
    if iv["error"] is None:
        with open(paths[ops.index(wl.interval_op)], encoding="utf-8") as fh:
            out["interval_rel_width"] = interval_rel_width(fh.read())

    if tracer is not None:
        tracer.absorb_pool_workers()
        out["trace"] = tracer.summary()
        tracer.dump(os.path.join(WORK, f"{args.tag}.spans"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
