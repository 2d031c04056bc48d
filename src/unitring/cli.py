"""Batch front door: config parsing, experiment orchestration, reports.

Exit codes:
  0  success
  1  a tower or verify check failed
  2  hypothesis violation
  3  search or cap exhaustion: tower search bound, residue cap, rho
     factorization budget, a primality claim beyond the proven range, or
     a decision undecided at the MAX_BITS precision cap
  4  configuration error: bad argument (argparse usage errors included),
     field spec, tower file or --out path, or an input the sieve rejects
     (reducible quadratic, m below the admissible threshold, coefficients
     outside the order, a non-prime --exclude, truncation too small, a box
     volume with no rational side, a non-squarefree belcher -d)
  5  internal error: any other exception, a fault of the program
Exits 2-5 print one JSON line {"error", "message"} to stderr, never a
traceback or a usage text; an internal error names the exception's type
and the innermost frame that raised it.  Reports are deterministic:
exact rationals print as p/q, reals as fixed 12-digit decimals, and
outputs are byte-identical across runs and thread counts.
"""

import argparse
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .density import (
    DensityParams,
    HypothesisError,
    SieveInputError,
    SievePolynomial,
    empirical_count,
    euler_density,
    with_conductor_support,
)
from .field import is_square_in_field
from .fieldspec import FieldSpecError, load_field_spec, parse_rational
from .geometry import RegionBox
from .ideal import NonMonogenicError, ResidueCapError, split_prime
from .intervals import fmt_decimal_down, fmt_decimal_up
from .intfactor import FactorizationTimeout, PrimalityUnproven, is_prime
from .rootiso import PrecisionError
from .tower import (
    SearchExhausted,
    Tower,
    belcher_criterion,
    build_tower,
    verify_unit_generation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_HYPOTHESIS = 2
EXIT_EXHAUSTED = 3
EXIT_CONFIG = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


def _parse_coords(text, n):
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"bad coordinate vector {text!r}")
    if len(coords) != n:
        raise ConfigError(f"expected {n} coordinates, got {len(coords)}")
    return coords


def _parse_boxes(text):
    try:
        xs = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad box schedule {text!r}")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ConfigError("box schedule must be strictly increasing")
    if any(x < 1 for x in xs):
        raise ConfigError("box volumes must be at least 1")
    return xs


def _excluded_primes(field, text):
    if not text or text == "none":
        return ()
    out = []
    for part in text.split(","):
        try:
            p = int(part)
        except ValueError:
            raise ConfigError(f"bad rational prime {part!r}")
        if not is_prime(p):
            raise ConfigError(f"--exclude: {p} is not a prime")
        out.extend(split_prime(field, p))
    return tuple(out)


def _emit(out_path, text):
    data = text.encode("utf-8")
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(data)
        except OSError as e:
            raise ConfigError(f"cannot write --out {out_path!r}: {e}") from None
    else:
        sys.stdout.buffer.write(data)


def _diag(kind, message):
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)}) + "\n")


# -- sharded counting ----------------------------------------------------------


def _count_shard(payload):
    args, shard = payload
    _, params, _, boxes = _sieve_setup(args)
    return empirical_count(params, boxes, shard=shard)


def _counts_for_boxes(args, params, boxes):
    """One count per box, from one pass over the nested boxes; with
    --threads above 1, one pool whose shards each count every box."""
    threads = args.threads
    if threads <= 1:
        return empirical_count(params, boxes)
    payloads = [(args, (i, threads)) for i in range(threads)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        shard_counts = list(pool.map(_count_shard, payloads))
    return [sum(per_box) for per_box in zip(*shard_counts)]


# -- subcommands ---------------------------------------------------------------


def _sieve_setup(args):
    """Field spec, sieve parameters, box volumes and boxes of density/count;
    pool workers rebuild theirs from the same arguments."""
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    spec = load_field_spec(args.field)
    field = spec.field
    order = spec.order_by_name(args.order)
    eta = field.element(_parse_coords(args.eta, field.degree))
    poly = SievePolynomial.x_squared_minus(4 * eta)
    xs = _parse_boxes(args.boxes)
    try:
        boxes = [RegionBox.cube(field.signature, x) for x in xs]
    except ValueError as e:
        raise ConfigError(f"--boxes {args.boxes}: {e}") from None
    excluded = with_conductor_support(order, _excluded_primes(field, args.exclude))
    params = DensityParams(order=order, poly=poly, excluded=excluded, m=args.m)
    return spec, params, xs, boxes


def cmd_density(args):
    spec, params, xs, boxes = _sieve_setup(args)
    try:
        report = euler_density(params, args.truncation)
    except SieveInputError as e:
        raise ConfigError(f"--truncation {args.truncation}: {e}") from None
    counts = _counts_for_boxes(args, params, boxes)
    d_lo = fmt_decimal_down(report.d_lower)
    d_hi = fmt_decimal_up(report.d_upper)
    lines = [
        "# unitring density report",
        f"# field={spec.name}\torder={args.order or 'maximal'}\teta={args.eta}\tm={args.m}",
        f"# excluded={args.exclude or 'none'}\ttruncation={args.truncation}",
        f"# conductor_sum={report.conductor_sum}\texcluded_product={report.excluded_product}",
        "# exponents\tl={}\tc={}\teps={}\tu={}".format(*report.exponent_data),
        "x\tN\tN_over_x\tD_lo\tD_hi\trel_err",
    ]
    mid = report.d_mid
    for x, n in zip(xs, counts):
        ratio = Fraction(n, x)
        rel = abs(ratio - mid) / mid if mid else Fraction(0)
        lines.append(
            f"{x}\t{n}\t{fmt_decimal_down(ratio)}\t{d_lo}\t{d_hi}\t{fmt_decimal_down(rel)}"
        )
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_count(args):
    spec, params, xs, boxes = _sieve_setup(args)
    counts = _counts_for_boxes(args, params, boxes)
    lines = [
        "# unitring count report",
        f"# field={spec.name}\torder={args.order or 'maximal'}\teta={args.eta}\tm={args.m}",
        f"# excluded={args.exclude or 'none'}",
        "x\tN\tN_over_x",
    ]
    for x, n in zip(xs, counts):
        lines.append(f"{x}\t{n}\t{fmt_decimal_down(Fraction(n, x))}")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _tower_to_json(spec_name, tower):
    return {
        "field": spec_name,
        "min_poly": list(tower.field.min_poly),
        "integral_basis": [[str(x) for x in row] for row in tower.field.basis],
        "start_order": [list(r) for r in tower.start_order.basis_hnf],
        "eta": list(tower.eta.coords),
        "steps": [
            {
                "omega": list(st.omega.coords),
                "disc_hnf": [list(r) for r in st.disc_ideal.hnf],
                "disc_norm": st.disc_element_norm,
            }
            for st in tower.steps
        ],
        "final_index": tower.final_index,
        "compositum_sets": [sorted(s) for s in tower.compositum_sets],
    }


def cmd_tower(args):
    spec = load_field_spec(args.field)
    field = spec.field
    if args.order:
        start = spec.order_by_name(args.order)
    elif spec.units:
        from .tower import unit_order

        start = unit_order(field, spec.units)
    else:
        raise ConfigError("no start order and no units declared in the field spec")
    if args.eta:
        eta = field.element(_parse_coords(args.eta, field.degree))
    elif spec.units:
        eta = _default_eta(field, spec.units)
    else:
        raise ConfigError("no eta given and no units declared")
    tower = build_tower(field, start_order=start, eta=eta, search_bound=args.search_bound)
    verification = verify_unit_generation(tower)
    doc = dict(_tower_to_json(spec.name, tower), verification=verification.as_dict())
    _emit(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if verification.all_passed() else EXIT_CHECK_FAILED


def _default_eta(field, units):
    """First declared unit that is not a square, else its cube."""
    for u in units:
        if not is_square_in_field(u):
            return u
        cube = u * u * u
        if not is_square_in_field(cube):
            return cube
    raise ConfigError("every declared unit is a square; give --eta explicitly")


def cmd_belcher(args):
    if args.d is not None:
        try:
            value = belcher_criterion(args.d)
        except ValueError as e:
            raise ConfigError(f"-d {args.d}: {e}") from None
        _emit(args.out, f"d\tgenerated_by_units\n{args.d}\t{value}\n")
        return EXIT_OK
    bound = args.table
    from .intfactor import is_squarefree_int

    lines = ["d\tgenerated_by_units"]
    for d in range(-bound, bound + 1):
        if d in (0, 1) or not is_squarefree_int(d):
            continue
        lines.append(f"{d}\t{belcher_criterion(d)}")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


_TOWER_KEYS = ("min_poly", "start_order", "eta", "steps", "final_index", "compositum_sets")
_STEP_KEYS = ("omega", "disc_hnf", "disc_norm")


def _read_tower(path):
    """The serialized tower document; ConfigError if unreadable or incomplete."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read tower file: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("tower file must hold a JSON object")
    steps = doc.get("steps", [])
    if not isinstance(steps, list) or not all(isinstance(st, dict) for st in steps):
        raise ConfigError("tower file steps must be a list of JSON objects")
    missing = [k for k in _TOWER_KEYS if k not in doc]
    for i, st in enumerate(steps):
        missing += [f"steps[{i}].{k}" for k in _STEP_KEYS if k not in st]
    if missing:
        raise ConfigError(f"tower file lacks {', '.join(missing)}")
    return doc


def cmd_verify(args):
    """Rebuild the tower's start, which refuses an eta outside the start
    order or a square eta as build_tower does; replay the file's omegas on
    that order and eta, compare every result the file states with the
    replay, then run the five checks."""
    doc = _read_tower(args.tower)
    from .field import NumberField, int_rows
    from .order import SubOrder

    try:
        basis = None
        if "integral_basis" in doc:
            basis = [[parse_rational(x) for x in row] for row in doc["integral_basis"]]
        field = NumberField(doc["min_poly"], integral_basis=basis)
        tower = Tower(field, SubOrder(field, int_rows(doc["start_order"])),
                      field.element(doc["eta"]))
        omegas = [field.element(st["omega"]) for st in doc["steps"]]
    except HypothesisError as e:
        _diag("verify", e)
        return EXIT_CHECK_FAILED
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"tower file: {e}") from None
    for omega in omegas:
        try:
            tower.extend(omega)
        except ValueError as e:
            _diag("verify", f"stored step does not certify: {e}")
            return EXIT_CHECK_FAILED
    replay = _tower_to_json(None, tower)
    stated = [(f"steps[{i}].{k}", st[k], rst[k])
              for i, (st, rst) in enumerate(zip(doc["steps"], replay["steps"]))
              for k in ("disc_hnf", "disc_norm")]
    stated += [(k, doc[k], replay[k]) for k in ("final_index", "compositum_sets")]
    for name, got, want in stated:
        if got != want:
            _diag("verify", f"stated {name} {got} differs from the replayed {want}")
            return EXIT_CHECK_FAILED
    verification = verify_unit_generation(tower)
    result = verification.as_dict()
    lines = ["check\tpassed"]
    for key in sorted(result):
        lines.append(f"{key}\t{result[key]}")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if verification.all_passed() else EXIT_CHECK_FAILED


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors raise ConfigError instead of exiting 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _ArgumentParser(
        prog="unitring",
        description="m-free value sieves over orders and unit-generated towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", required=True,
                       help="field spec path or bundled name (q_sqrt5, q_sqrt2, q_i)")
        p.add_argument("--order", default="", help="named order from the spec, or 'maximal'")
        p.add_argument("--eta", required=True, help="coordinates of eta, comma separated")
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--exclude", default="",
                       help="rational primes whose ideal factors are excluded, comma separated")
        p.add_argument("--boxes", default="100,1000,10000",
                       help="strictly increasing volumes x, comma separated")
        p.add_argument("--threads", type=int, default=1, help="worker processes")
        p.add_argument("--out", default="", help="output path (default stdout)")

    p_density = sub.add_parser("density", help="Euler product density and empirical counts")
    common(p_density)
    p_density.add_argument("--truncation", type=int, default=10**4)
    p_density.set_defaults(func=cmd_density)

    p_count = sub.add_parser("count", help="empirical sieve counts only")
    common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_tower = sub.add_parser("tower", help="build and verify the unit tower")
    p_tower.add_argument("--field", required=True)
    p_tower.add_argument("--order", default="", help="explicit start order name")
    p_tower.add_argument("--eta", default="", help="coordinates of the unit eta")
    p_tower.add_argument("--search-bound", type=int, default=2000)
    p_tower.add_argument("--out", default="")
    p_tower.set_defaults(func=cmd_tower)

    p_belcher = sub.add_parser("belcher", help="quadratic unit-generation criterion")
    p_belcher.add_argument("-d", type=int, default=None)
    p_belcher.add_argument("--table", type=int, default=100)
    p_belcher.add_argument("--out", default="")
    p_belcher.set_defaults(func=cmd_belcher)

    p_verify = sub.add_parser("verify", help="re-verify a serialized tower")
    p_verify.add_argument("--tower", required=True)
    p_verify.add_argument("--out", default="")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except HypothesisError as e:
        _diag("hypothesis", e)
        return EXIT_HYPOTHESIS
    except (SearchExhausted, ResidueCapError, NonMonogenicError,
            FactorizationTimeout, PrimalityUnproven, PrecisionError) as e:
        _diag("exhausted", e)
        return EXIT_EXHAUSTED
    except (ConfigError, FieldSpecError, SieveInputError) as e:
        _diag("config", e)
        return EXIT_CONFIG
    except Exception as e:
        where = traceback.extract_tb(e.__traceback__)[-1]
        _diag("internal", f"{type(e).__name__} in {where.name} "
                          f"({os.path.basename(where.filename)}:{where.lineno}): {e}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
