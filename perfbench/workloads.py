"""The benchmark's workloads and the seeded inputs of their operations.

Every workload is a list of `unitring` CLI operations (ops) run one after
another in one fresh interpreter.  The seed picks eta from a short
admissible list per field and scales each box schedule by a common factor
near 1; seed 0 gives the canonical ops.  The same seed always gives the
same ops.
"""

import random
from dataclasses import dataclass

CUBIC_SPEC = "perfbench/cubic_23.json"

# Non-square etas for which X^2 - 4 eta passes DensityParams (m = 2).  The
# Z[sqrt5] list holds units of that order, as the tower op needs.
ETAS = {
    "q_sqrt5": ("0,1", "0,-1", "-1,1", "1,-1"),
    "Z[sqrt5]": ("1,2", "-1,-2", "-3,2", "3,-2"),
    "q_i": ("1,1", "1,-1", "-1,1", "-1,-1"),
    "cubic-23": ("0,1,0", "0,-1,0", "-1,0,1", "1,0,-1"),
}

# Half-width of the box scale factor.  Counting time is linear in the box
# volume, so the scale adds to the spread of wall time across seeds; 3%
# keeps that small next to the machine's own noise.  Cubic volumes snap to
# whole sides, which 3% never moves, so there the seed picks only eta.
BOX_SCALE = 0.03


@dataclass(frozen=True)
class Op:
    """One CLI invocation; `tower` names the tower op a verify op reads."""

    command: str
    field: str = ""
    order: str = ""
    eta: str = ""
    exclude: str = ""
    boxes: tuple = ()
    truncation: int = 0
    threads: int = 1
    tower: "Op" = None

    def argv(self, out, tower_path=""):
        """CLI arguments; `out` is the report path, `tower_path` the tower JSON."""
        if self.command == "verify":
            return ["verify", "--tower", tower_path, "--out", out]
        args = [self.command, "--field", self.field]
        if self.order:
            args += ["--order", self.order]
        args.append(f"--eta={self.eta}")  # one token: an eta may start with "-"
        if self.command == "tower":
            return args + ["--out", out]
        if self.exclude:
            args += ["--exclude", self.exclude]
        args += ["--boxes", ",".join(map(str, self.boxes))]
        if self.command == "density":
            args += ["--truncation", str(self.truncation)]
        return args + ["--threads", str(self.threads), "--out", out]

    @property
    def key(self):
        """Digest key: the arguments that determine the report bytes.

        Thread count and paths are left out, because reports are
        byte-identical across --threads values.
        """
        if self.command == "verify":
            return f"verify --tower <{self.tower.key}>"
        args = self.argv("-")
        if "--threads" in args:
            i = args.index("--threads")
            del args[i:i + 2]
        return " ".join(args[:-2])


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple          # timed, in order
    interval_op: Op     # the density op whose interval is reported

    @property
    def untimed_ops(self):
        return () if self.interval_op in self.ops else (self.interval_op,)

    @property
    def threads(self):
        return max(op.threads for op in self.ops)

    @property
    def sieves(self):
        """(field, order, eta, exclude) of every sieve the workload runs."""
        out = []
        for op in self.ops + self.untimed_ops:
            if op.command in ("density", "count"):
                sieve = (op.field, op.order, op.eta, op.exclude)
                if sieve not in out:
                    out.append(sieve)
        return out


def _pick(rng, seed, choices):
    return choices[0] if seed == 0 else rng.choice(choices)


def _scale(rng, seed, boxes, degree=2):
    """Scale a box schedule by one factor; volumes of a degree-3 field
    snap to the nearest perfect cube so that the box sides stay rational."""
    s = 1.0 if seed == 0 else rng.uniform(1 - BOX_SCALE, 1 + BOX_SCALE)
    if degree == 3:
        return tuple(round((x * s) ** (1 / 3)) ** 3 for x in boxes)
    return tuple(round(x * s) for x in boxes)


def _sieve_sqrt5(rng, seed):
    """The paper's pipeline on Q(sqrt5): Euler local factors dominate, plus
    counting, the order/conductor/exclusion paths and the unit tower."""
    eta_max = _pick(rng, seed, ETAS["q_sqrt5"])
    eta_ord = _pick(rng, seed, ETAS["Z[sqrt5]"])
    main = Op("density", "q_sqrt5", eta=eta_max,
              boxes=_scale(rng, seed, (100, 1000, 10000)), truncation=10000)
    order = Op("density", "q_sqrt5", "Z[sqrt5]", eta_ord, exclude="2",
               boxes=_scale(rng, seed, (1000, 10000, 40000)), truncation=1000)
    tower = Op("tower", "q_sqrt5", "Z[sqrt5]", eta_ord)
    verify = Op("verify", tower=tower)
    return (main, order, tower, verify), main


def _count_quadratic(rng, seed):
    """Counting only: Q(sqrt5) is bound by trial division and the real
    prefilter, Q(i) by norms and valuations in its disk region."""
    eta5 = _pick(rng, seed, ETAS["q_sqrt5"])
    eta_i = _pick(rng, seed, ETAS["q_i"])
    ops = (
        Op("count", "q_sqrt5", eta=eta5, boxes=_scale(rng, seed, (100, 1000, 10000, 100000))),
        Op("count", "q_i", eta=eta_i, boxes=_scale(rng, seed, (100, 1000, 10000))),
    )
    # The workload runs no Euler product, but run.py reports every
    # end-to-end metric on every workload; its interval comes from one
    # untimed density op on the same Q(sqrt5) sieve with a single tiny box.
    return ops, Op("density", "q_sqrt5", eta=eta5, boxes=(1,), truncation=1000)


def _cubic_sharded(rng, seed):
    """3-D enumeration with a complex pair, Euler factors at residue degree
    2-3, and the only sharded op."""
    op = Op("density", CUBIC_SPEC, eta=_pick(rng, seed, ETAS["cubic-23"]),
            boxes=_scale(rng, seed, (1000, 8000, 27000), degree=3),
            truncation=1000, threads=2)
    return (op,), op


_FACTORIES = {
    "sieve-sqrt5": _sieve_sqrt5,
    "count-quadratic": _count_quadratic,
    "cubic-sharded": _cubic_sharded,
}

NAMES = tuple(_FACTORIES)


def build(name, seed):
    """The workload `name` with the inputs chosen by `seed`."""
    ops, interval_op = _FACTORIES[name](random.Random(seed), seed)
    return Workload(name, ops, interval_op)
