"""Field specification files: JSON with integer/rational entries.

Keys: min_poly (integer coefficients, constant first), integral_basis
(rows of rationals as ints or "p/q" strings; optional, power basis by
default), units (coordinate vectors of known units; optional), orders
(named suborder bases as coordinate rows).  Three demo fields ship with
the package and resolve by name: q_sqrt5, q_sqrt2, q_i.
"""

import json
from fractions import Fraction
from importlib import resources

from .field import NumberField, int_rows
from .order import SubOrder


class FieldSpecError(ValueError):
    """Malformed or unresolvable field specification."""


BUNDLED = ("q_sqrt5", "q_sqrt2", "q_i")


def parse_rational(x):
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise FieldSpecError(f"bad rational {x!r}") from None
    raise FieldSpecError(f"expected integer or 'p/q' string, got {x!r}")


def _rows(x, what):
    """x if it is a list of lists, else FieldSpecError."""
    if not isinstance(x, list) or not all(isinstance(row, list) for row in x):
        raise FieldSpecError(f"{what} must be a list of lists")
    return x


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
            raise FieldSpecError(
                f"unknown order {name!r}; available: {sorted(self.orders)} or 'maximal'"
            )
        return self.orders[name]


def load_field_spec(source):
    """Load from a path, a bundled name, or a parsed dictionary."""
    if isinstance(source, dict):
        data = source
    elif source in BUNDLED:
        text = resources.files("unitring.data").joinpath(f"{source}.json").read_text()
        data = json.loads(text)
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise FieldSpecError(
                f"cannot read field spec {source!r} (bundled names: {', '.join(BUNDLED)}): {e}"
            )
        except json.JSONDecodeError as e:
            raise FieldSpecError(f"malformed JSON in {source!r}: {e}")
    if not isinstance(data, dict):
        raise FieldSpecError("a field spec must be a JSON object")
    min_poly = data.get("min_poly")
    if not isinstance(min_poly, list):
        raise FieldSpecError("missing min_poly or not a list")
    basis = None
    if data.get("integral_basis") is not None:
        basis = [[parse_rational(x) for x in row]
                 for row in _rows(data["integral_basis"], "integral_basis")]
    name = data.get("name", "K")
    try:
        field = NumberField(min_poly, integral_basis=basis, name=name)
    except ValueError as e:
        raise FieldSpecError(str(e))
    units = []
    for coords in _rows(data.get("units", []), "units"):
        try:
            u = field.element(coords)
        except ValueError as e:
            raise FieldSpecError(f"declared unit {coords}: {e}") from None
        if abs(u.norm()) != 1:
            raise FieldSpecError(f"declared unit {coords} has norm {u.norm()}")
        units.append(u)
    order_rows = data.get("orders", {})
    if not isinstance(order_rows, dict):
        raise FieldSpecError("orders must map names to basis rows")
    orders = {}
    for oname, rows in order_rows.items():
        try:
            orders[oname] = SubOrder(field, int_rows(rows))
        except ValueError as e:
            raise FieldSpecError(f"order {oname!r}: {e}")
    return FieldSpec(field, units, orders, name)
