"""Span tracing for the benchmark's traced run.

`install()` replaces public functions of `unitring` modules with wrappers
that record one span per call: name, start, end, parent span and the op
it belongs to.  A function is replaced wherever a `unitring` module binds
it, so `from .ideal import split_prime` in density.py is traced too.  A
hook whose target is missing (renamed or deleted) is skipped and listed
in `missing`; the metrics that need it come out as None.

Spans stay in typed arrays in memory; `dump()` writes them when the run
ends.  Pool workers of `unitring.cli` get their own tracer through the
pool initializer and write their spans to the work directory on exit.

Only worker.py imports this module, and only for a traced run.
"""

import functools
import importlib
import json
import os
import sys
from array import array
from glob import glob
from time import perf_counter

# (module, attribute, span name, kind).  The span name's prefix is the
# layer whose self time the span counts towards.
HOOKS = (
    ("unitring.cli", "_count_shard", "cli.count_shard", "call"),
    ("unitring.cli", "load_field_spec", "field.load_spec", "call"),
    ("unitring.cli", "euler_density", "density.euler_density", "euler"),
    ("unitring.density", "conductor_sum", "density.conductor_sum", "call"),
    ("unitring.density", "count_roots_prime_power", "density.local_factor", "call"),
    ("unitring.density", "empirical_count", "density.empirical_count", "call"),
    ("unitring.density", "SievePolynomial.__call__", "density.poly_eval", "call"),
    ("unitring.fpoly", "roots_in_fq", "fpoly.roots_in_fq", "call"),
    ("unitring.fpoly", "factor_mod_p", "fpoly.factor_mod_p", "call"),
    ("unitring.intfactor", "is_prime", "intfactor.is_prime", "call"),
    ("unitring.intfactor", "is_power_free", "intfactor.power_free", "call"),
    ("unitring.intfactor", "factor", "intfactor.factor", "call"),
    ("unitring.ideal", "split_prime", "ideal.split_prime", "split_prime"),
    ("unitring.ideal", "element_is_mfree", "ideal.mfree", "call"),
    ("unitring.ideal", "element_valuation", "ideal.valuation", "call"),
    ("unitring.geometry", "enumerate_region", "geometry.enumerate", "generator"),
    ("unitring.geometry", "FloatRegionFilter.test", "geometry.prefilter", "call"),
    ("unitring.geometry", "in_region", "geometry.exact", "call"),
    ("unitring.field", "NumberField.norm", "field.norm", "call"),
    ("unitring.order", "SubOrder.conductor", "order.conductor", "call"),
    ("unitring.order", "SubOrder.contract", "order.contract", "call"),
    ("unitring.order", "SubOrder.adjoin", "order.adjoin", "call"),
    ("unitring.cli", "build_tower", "tower.build", "call"),
    ("unitring.tower", "candidate_elements", "tower.candidates", "generator"),
    ("unitring.cli", "verify_unit_generation", "tower.verify", "call"),
    ("unitring.cli", "ProcessPoolExecutor", "cli.pool", "pool"),
)

OP_SPAN = "cli.op"
_FIELDS = ("name", "parent", "op", "start", "end")


class Tracer:
    """Span and counter store of one process."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.names = [OP_SPAN]
        self.counters = {}
        self.euler = {}
        self.missing = []
        self.op_id = -1
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters.clear()

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def count(self, key, k=1, op_id=None):
        per_op = self.counters.setdefault(self.op_id if op_id is None else op_id, {})
        per_op[key] = per_op.get(key, 0) + k

    # -- ops -----------------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run one op under its own span; spans inside it share `op_id`."""
        self.op_id = op_id
        i = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(i)
            self.op_id = -1

    # -- wrappers ------------------------------------------------------------

    def wrap_call(self, fn, name, observe=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_generator(self, fn, name):
        """One span per resume, so the consumer's time is not counted."""
        nid = self._name_id(name)
        yields = name + ".yields"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.count(yields)
                yield item

        return traced

    def wrap_split_prime(self, fn, name):
        traced = self.wrap_call(fn, name)
        seen = {}

        @functools.wraps(fn)
        def split_prime(field, p):
            key = (id(field), p)
            if key in seen:
                self.count(name + ".hits")
            else:
                seen[key] = field  # keeps the id from being reused
            return traced(field, p)

        return split_prime

    def wrap_euler(self, fn, name):
        """Also keep, per op, the denominator size of the widest-truncation
        interval as [truncation, bits]."""

        def observe(args, report):
            widest = self.euler.get(self.op_id)
            if widest is None or args[1] >= widest[0]:
                self.euler[self.op_id] = [args[1], report.d_lower.denominator.bit_length()]

        return self.wrap_call(fn, name, observe)

    def wrap_pool(self, cls, name):
        """Count pools and give each pool worker a tracer of its own."""

        def make_pool(*args, **kwargs):
            self.count(name + ".starts")
            if "initializer" not in kwargs:
                kwargs["initializer"] = _start_pool_worker
                kwargs["initargs"] = (self.work_dir, self.op_id)
            return cls(*args, **kwargs)

        return make_pool

    # -- installation --------------------------------------------------------

    def install(self):
        makers = {
            "call": self.wrap_call,
            "generator": self.wrap_generator,
            "split_prime": self.wrap_split_prime,
            "euler": self.wrap_euler,
            "pool": self.wrap_pool,
        }
        for module_name, attr, name, kind in HOOKS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append((f"{module_name}.{attr}", name))
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append((f"{module_name}.{attr}", name))
                continue
            wrapper = makers[kind](original, name)
            setattr(owner, leaf, wrapper)
            if not path:
                _rebind(original, wrapper)

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "counters": self.counters,
                  "fields": _FIELDS, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field in _FIELDS:
                getattr(self, field).tofile(fh)

    def absorb(self, path):
        """Append the spans a pool worker dumped; they keep their op id but
        get no parent, because their time passed in another process."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            cols = {}
            for field, code in zip(_FIELDS, "iiidd"):
                cols[field] = array(code)
                cols[field].fromfile(fh, n)
        base = len(self.start)
        remap = [self._name_id(nm) for nm in header["names"]]
        self.name.extend(remap[k] for k in cols["name"])
        self.parent.extend(p + base if p >= 0 else -1 for p in cols["parent"])
        self.op.extend(cols["op"])
        self.start.extend(cols["start"])
        self.end.extend(cols["end"])
        for op_id, counts in header["counters"].items():
            for key, k in counts.items():
                self.count(key, k, int(op_id))

    def absorb_pool_workers(self):
        for path in sorted(glob(os.path.join(self.work_dir, "poolworker-*.spans"))):
            self.absorb(path)
            os.remove(path)

    def summary(self):
        """Per op id: calls and total time per span name, self time per
        layer, and the counters."""
        names = self.names
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        ops = {}
        for i, nid in enumerate(self.name):
            op_id = self.op[i]
            if op_id not in ops:
                ops[op_id] = {"calls": {}, "total_s": {}, "self_s": {}, "spans": 0,
                              "counters": self.counters.get(op_id, {}),
                              "euler": self.euler.get(op_id)}
            rec = ops[op_id]
            nm = names[nid]
            layer = nm.split(".", 1)[0]
            rec["spans"] += 1
            rec["calls"][nm] = rec["calls"].get(nm, 0) + 1
            rec["total_s"][nm] = rec["total_s"].get(nm, 0.0) + dur[i]
            rec["self_s"][layer] = rec["self_s"].get(layer, 0.0) + dur[i] - child[i]
        return ops


def _rebind(original, wrapper):
    """Point every `unitring` module-level alias of `original` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("unitring") and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


_TRACER = None


def install(work_dir):
    global _TRACER
    _TRACER = Tracer(work_dir)
    _TRACER.install()
    return _TRACER


def _start_pool_worker(work_dir, op_id):
    """Pool initializer: a fresh span store that is written at exit."""
    from multiprocessing.util import Finalize

    tracer = _TRACER if _TRACER is not None else install(work_dir)
    tracer.reset()
    tracer.op_id = op_id
    path = os.path.join(work_dir, f"poolworker-{os.getpid()}.spans")
    Finalize(tracer, tracer.dump, args=(path,), exitpriority=10)
