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

from .field import NumberField
from .order import SubOrder


class FieldSpecError(ValueError):
    """Malformed or unresolvable field specification."""


BUNDLED = ("q_sqrt5", "q_sqrt2", "q_i")


def _parse_rational(x):
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise FieldSpecError(f"bad rational {x!r}") from None
    raise FieldSpecError(f"expected integer or 'p/q' string, got {x!r}")


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
    try:
        min_poly = [int(c) for c in data["min_poly"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FieldSpecError(f"bad or missing min_poly: {e}")
    basis = None
    if data.get("integral_basis") is not None:
        basis = [[_parse_rational(x) for x in row] for row in data["integral_basis"]]
    name = data.get("name", "K")
    try:
        field = NumberField(min_poly, integral_basis=basis, name=name)
    except ValueError as e:
        raise FieldSpecError(str(e))
    units = []
    for coords in data.get("units", []):
        try:
            u = field.element(coords)
        except (TypeError, ValueError) as e:
            raise FieldSpecError(f"declared unit {coords}: {e}") from None
        if abs(u.norm()) != 1:
            raise FieldSpecError(f"declared unit {coords} has norm {u.norm()}")
        units.append(u)
    orders = {}
    for oname, rows in data.get("orders", {}).items():
        try:
            orders[oname] = SubOrder(field, [tuple(int(x) for x in r) for r in rows])
        except ValueError as e:
            raise FieldSpecError(f"order {oname!r}: {e}")
    return FieldSpec(field, units, orders, name)
