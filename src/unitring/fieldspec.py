"""Field specification files: JSON with integer/rational entries.

Keys: min_poly (integer coefficients, constant first), integral_basis
(rows of rationals as ints or "p/q" strings; optional, power basis by
default), units (coordinate vectors of known units; optional), orders
(named suborder bases as coordinate rows).  Three demo fields ship with
the package and resolve by name: q_sqrt5, q_sqrt2, q_i.  The tower file
of `unitring verify` is read through the same JSON reader and loader.
An unreadable file, one that is not UTF-8 or not JSON, and any malformed
entry raise ConfigError, the one configuration error of the CLI (exit 4).
"""

import json
from fractions import Fraction
from importlib import resources

from .field import NumberField, exact_int
from .order import SubOrder


class ConfigError(ValueError):
    """A bad argument, field spec, tower file or output path: exit 4."""


BUNDLED = ("q_sqrt5", "q_sqrt2", "q_i")


def read_json(path, what):
    """The JSON document in the file at path; ConfigError naming what when
    the file cannot be read, is not UTF-8 or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {what}: {e}") from None


def parse_rational(x):
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad rational {x!r}") from None
    raise ValueError(f"expected integer or 'p/q' string, got {x!r}")


def _rows(x, what, read=exact_int):
    """The list of lists x as tuples of its entries read by read, exact
    ints by default; ConfigError naming what for any other shape or entry."""
    if not isinstance(x, list) or not all(isinstance(row, list) for row in x):
        raise ConfigError(f"{what} must be a list of lists")
    try:
        return [tuple(read(c) for c in row) for row in x]
    except ValueError as e:
        raise ConfigError(f"{what}: {e}") from None


class FieldSpec:
    """A loaded field plus its named suborders and declared units."""

    def __init__(self, field, units, orders, name):
        self.field = field
        self.units = units
        self.orders = orders
        self.name = name

    def order_by_name(self, name):
        if name in ("maximal", "O_K", ""):
            return SubOrder.maximal(self.field)
        if name not in self.orders:
            raise ConfigError(
                f"unknown order {name!r}; available: {sorted(self.orders)} or 'maximal'"
            )
        return self.orders[name]


def load_field_spec(source):
    """Load from a path, a bundled name, or a parsed dictionary."""
    if isinstance(source, dict):
        data = source
    elif source in BUNDLED:
        data = json.loads(resources.files("unitring.data").joinpath(f"{source}.json").read_text())
    else:
        data = read_json(source, f"field spec {source!r} (bundled names: {', '.join(BUNDLED)})")
    if not isinstance(data, dict):
        raise ConfigError("a field spec must be a JSON object")
    min_poly = data.get("min_poly")
    if not isinstance(min_poly, list):
        raise ConfigError("missing min_poly or not a list")
    basis = None
    if data.get("integral_basis") is not None:
        basis = _rows(data["integral_basis"], "integral_basis", parse_rational)
    name = data.get("name", "K")
    try:
        field = NumberField(min_poly, integral_basis=basis, name=name)
    except ValueError as e:
        raise ConfigError(str(e))
    units = []
    for coords in _rows(data.get("units", []), "units"):
        try:
            u = field.element(coords)
        except ValueError as e:
            raise ConfigError(f"declared unit {coords}: {e}") from None
        if not u.is_unit():
            raise ConfigError(f"declared unit {coords} has norm {u.norm()}")
        units.append(u)
    order_rows = data.get("orders", {})
    if not isinstance(order_rows, dict):
        raise ConfigError("orders must map names to basis rows")
    orders = {}
    for oname, rows in order_rows.items():
        rows = _rows(rows, f"order {oname!r}")
        try:
            orders[oname] = SubOrder(field, rows)
        except ValueError as e:
            raise ConfigError(f"order {oname!r}: {e}")
    return FieldSpec(field, units, orders, name)
