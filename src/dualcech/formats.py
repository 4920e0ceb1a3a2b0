"""JSON input parsing and report serialization.

Input documents are tagged unions on the "kind" field; the shapes are
published in schemas/input.v1.schema.json.  Rational matrix entries travel
as strings like "2/3" (or plain integers) so nothing is ever rounded.
Validation failures raise SchemaError carrying a JSON pointer to the
offending field.

Reports are plain dictionaries rendered with sorted keys, so identical
inputs always produce byte-identical JSON.  ``render_report`` writes
exactly the bytes of ``json.dumps(report, sort_keys=True, indent=2)`` and
a newline, and raises ``TypeError`` where that would, but walks the report
itself: ``indent`` sends ``json.dumps`` to its pure-Python encoder, which
costs a generator step per token, while the writer joins whole lists of
ints at once and escapes strings with ``json``'s C routine.

Modules load on first use.  At module level this file imports only
``errors`` and ``exactla``, which every parse needs; each ``parse_*``
reads the layer that builds its result off the package, which imports
it the first time it is named (see ``cli``).  A process that parses one
kind of document loads that kind's modules only: a local model never
loads the presheaf, SNC, bicomplex or toric layers.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Mapping

import dualcech

from .errors import SchemaError
from .exactla import RationalMatrix, as_fraction

if TYPE_CHECKING:
    from . import bicomplex, localmodel, presheaf, simplicial, snc, toric
    from .simplicial import Simplex

SCHEMA_VERSION = 1


def _get(doc: Mapping, key: str, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise SchemaError(f"{path}/{key}", "missing required field")
        return default
    return doc[key]


def _int(value, path, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}")
    return value


def _list(value, path) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array")
    return value


def _obj(value, path) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object")
    return value


def _str(value, path) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, "expected a string")
    return value


def _bool(value, path) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, "expected a boolean")
    return value


# the plain ASCII "p/q" form, read with two int calls; every other string
# goes through Fraction's own parser, which accepts more
_RATIO = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")


def _ratio(value, path) -> tuple[int, int]:
    """A rational entry as its numerator and positive denominator in lowest terms."""
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(path, "rational entries must be integers or 'p/q' strings")
    try:
        if type(value) is str and (ratio := _RATIO.fullmatch(value)):
            n, d = int(ratio[1]), int(ratio[2])
            g = gcd(n, d)
            return n // g, d // g
        x = as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad rational entry: {exc}") from None
    return x.numerator, x.denominator


def _rational(value, path) -> Fraction:
    return Fraction(*_ratio(value, path))


def _matrix(value, path, rows=None, cols=None) -> RationalMatrix:
    """A dense JSON matrix, parsed in one pass to integer numerators over one denominator.

    A plain ``int`` is a numerator over 1 as it stands, and a zero is no
    entry; every other entry goes through ``_ratio``, an ASCII "p/q" as two
    ints.  Each row's nonzero numerators are kept as one row, by column,
    the layout a matrix stores.  The denominator is the lcm of the reduced
    denominators: every numerator is multiplied by it in place, and then
    the entries that had a denominator, found through their row, are
    divided by theirs.  The parse makes the constructor's checks itself:
    the shape against ``rows`` and ``cols``, every index in bounds, every
    entry coerced and the numerators in lowest terms over the lcm; so the
    rows are wrapped with ``RationalMatrix._of``.
    """
    data = _list(value, path)
    num = {}
    dens = []  # (row's numerators, column, denominator) for the denominators other than 1
    width = None
    for i, row in enumerate(data):
        row = _list(row, f"{path}/{i}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}/{i}", "ragged matrix rows")
        nums = {}
        for j, x in enumerate(row):
            if type(x) is not int:  # bool is no int here, and _ratio refuses it
                x, d = _ratio(x, f"{path}/{i}/{j}")
                if d != 1:
                    dens.append((nums, j, d))
            if x:
                nums[j] = x
        if nums:
            num[i] = nums
    if cols is not None and width is not None and width != cols:
        raise SchemaError(path, f"expected {cols} columns, got {width}")
    if cols is None:
        cols = width if width is not None else 0
    if rows is not None and len(data) != rows:
        raise SchemaError(path, f"expected {rows} rows, got {len(data)}")
    den = lcm(*(d for _, _, d in dens))
    if den != 1:
        for nums in num.values():
            for j, v in nums.items():
                nums[j] = v * den
        for nums, j, d in dens:
            nums[j] //= d
    return RationalMatrix._of(len(data), cols, num, den)


def _vertex_tuple(value, path) -> Simplex:
    items = _list(value, path)
    return tuple(_int(x, f"{path}/{i}") for i, x in enumerate(items))


def _parse_simplex_key(key: str, path: str) -> Simplex:
    try:
        return tuple(int(part) for part in key.split(","))
    except ValueError:
        raise SchemaError(path, f"bad simplex key {key!r}, expected e.g. '0,2'") from None


def parse_complex(doc: Mapping, path: str = "") -> simplicial.SimplicialComplex:
    simplicial = dualcech.simplicial
    vertex_count = _int(_get(doc, "vertex_count", path), f"{path}/vertex_count", minimum=0)
    facets = _list(_get(doc, "facets", path), f"{path}/facets")
    parsed = [_vertex_tuple(f, f"{path}/facets/{i}") for i, f in enumerate(facets)]
    return simplicial.from_facets(vertex_count, parsed)


def parse_presheaf_data(
    doc: Mapping, base: simplicial.SimplicialComplex, path: str
) -> presheaf.Presheaf:
    presheaf = dualcech.presheaf
    dims_doc = _obj(_get(doc, "dims", path), f"{path}/dims")
    dims = {}
    for key, value in dims_doc.items():
        s = _parse_simplex_key(key, f"{path}/dims/{key}")
        dims[s] = _int(value, f"{path}/dims/{key}", minimum=0)
    spec = _get(doc, "restrictions", path, required=False, default=[])
    restrictions = {}
    if spec in ("identity", "zero"):
        for sigma, tau in base.face_pairs:
            if dims.get(sigma, 0) and dims.get(tau, 0):
                if spec == "zero":
                    restrictions[(sigma, tau)] = RationalMatrix.zeros(dims[tau], dims[sigma])
                    continue
                if dims[sigma] != dims[tau]:
                    raise SchemaError(
                        f"{path}/restrictions",
                        f"'identity' needs equal dims, got {dims[sigma]} -> {dims[tau]}",
                    )
                restrictions[(sigma, tau)] = RationalMatrix.identity(dims[tau])
    else:
        for i, item in enumerate(_list(spec, f"{path}/restrictions")):
            item = _obj(item, f"{path}/restrictions/{i}")
            sigma = _vertex_tuple(_get(item, "from", f"{path}/restrictions/{i}"), f"{path}/restrictions/{i}/from")
            tau = _vertex_tuple(_get(item, "to", f"{path}/restrictions/{i}"), f"{path}/restrictions/{i}/to")
            matrix = _matrix(
                _get(item, "matrix", f"{path}/restrictions/{i}"),
                f"{path}/restrictions/{i}/matrix",
                rows=dims.get(tau, 0),
                cols=dims.get(sigma, 0),
            )
            restrictions[(sigma, tau)] = matrix
    return presheaf.make_presheaf(base, dims, restrictions)


def parse_presheaf(doc: Mapping, path: str = "") -> presheaf.Presheaf:
    base = parse_complex(_obj(_get(doc, "complex", path), f"{path}/complex"), f"{path}/complex")
    return parse_presheaf_data(doc, base, path)


def _parse_restriction_field(value, path):
    if value is None:
        return None
    if value in ("zero", "constant"):
        return value
    value = _obj(value, path)
    matrices_doc = _obj(_get(value, "matrices", path), f"{path}/matrices")
    out = {}
    for key, mat in matrices_doc.items():
        face = _parse_simplex_key(key, f"{path}/matrices/{key}")
        out[face] = _matrix(mat, f"{path}/matrices/{key}")
    return out


def parse_divisor(doc: Mapping, path: str = "") -> snc.SncDivisor:
    snc = dualcech.snc
    comps_doc = _list(_get(doc, "components", path), f"{path}/components")
    components = []
    for i, c in enumerate(comps_doc):
        c = _obj(c, f"{path}/components/{i}")
        components.append(
            snc.Component(
                _str(_get(c, "name", f"{path}/components/{i}"), f"{path}/components/{i}/name"),
                _int(_get(c, "dim", f"{path}/components/{i}"), f"{path}/components/{i}/dim", minimum=0),
            )
        )
    mults_doc = _get(doc, "multiplicities", path, required=False)
    multiplicities = None
    if mults_doc is not None:
        multiplicities = [
            _int(m, f"{path}/multiplicities/{i}", minimum=1)
            for i, m in enumerate(_list(mults_doc, f"{path}/multiplicities"))
        ]
    strata = [
        _vertex_tuple(t, f"{path}/strata/{i}")
        for i, t in enumerate(_list(_get(doc, "strata", path), f"{path}/strata"))
    ]
    tables = {}
    for i, row in enumerate(_list(_get(doc, "tables", path, required=False, default=[]), f"{path}/tables")):
        row_path = f"{path}/tables/{i}"
        row = _obj(row, row_path)
        t = _vertex_tuple(_get(row, "tuple", row_path), f"{row_path}/tuple")
        flavor = _get(row, "flavor", row_path, required=False, default=snc.SHEAF)
        if flavor not in (snc.SHEAF, snc.DERHAM):
            raise SchemaError(f"{row_path}/flavor", "expected 'sheaf' or 'derham'")
        r = _int(_get(row, "r", row_path, required=False, default=0), f"{row_path}/r", minimum=0)
        q = _int(_get(row, "q", row_path), f"{row_path}/q", minimum=0)
        dim = _int(_get(row, "dim", row_path), f"{row_path}/dim", minimum=0)
        restriction = _parse_restriction_field(
            _get(row, "restriction", row_path, required=False), f"{row_path}/restriction"
        )
        key = (t, flavor, r, q)
        if key in tables:
            raise SchemaError(row_path, f"duplicate table row for {key}")
        tables[key] = snc.TableEntry(dim, restriction)
    irreducible = _get(doc, "irreducible", path, required=False, default=True)
    return snc.make_snc_divisor(
        components,
        strata,
        tables,
        multiplicities=multiplicities,
        irreducible=_bool(irreducible, f"{path}/irreducible"),
    )


def parse_rational_check(doc: Mapping, divisor: snc.SncDivisor, path: str):
    snc = dualcech.snc
    section = _obj(doc, path)
    claimed = _bool(_get(section, "claimed_rational", path), f"{path}/claimed_rational")
    delta = snc.dual_complex(divisor)
    sections_presheaf = parse_presheaf_data(section, delta, path)
    unit_doc = _obj(_get(section, "unit", path), f"{path}/unit")
    unit = {}
    for key, vec in unit_doc.items():
        s = _parse_simplex_key(key, f"{path}/unit/{key}")
        unit[s] = [_rational(x, f"{path}/unit/{key}/{i}") for i, x in enumerate(_list(vec, f"{path}/unit/{key}"))]
    return claimed, sections_presheaf, unit


def parse_fan(doc: Mapping, path: str = "") -> tuple[toric.Fan, list[int]]:
    toric = dualcech.toric
    n = _int(_get(doc, "n", path), f"{path}/n", minimum=0)
    rays = [
        [_int(x, f"{path}/rays/{i}/{j}") for j, x in enumerate(_list(ray, f"{path}/rays/{i}"))]
        for i, ray in enumerate(_list(_get(doc, "rays", path), f"{path}/rays"))
    ]
    cones = [
        [_int(x, f"{path}/cones/{i}/{j}", minimum=0) for j, x in enumerate(_list(cone, f"{path}/cones/{i}"))]
        for i, cone in enumerate(_list(_get(doc, "cones", path), f"{path}/cones"))
    ]
    fan = toric.make_fan(n, rays, cones)
    selected_doc = _get(doc, "selected_rays", path, required=False)
    if selected_doc is None:
        selected = list(range(len(fan.rays)))
    else:
        selected = [
            _int(x, f"{path}/selected_rays/{i}", minimum=0)
            for i, x in enumerate(_list(selected_doc, f"{path}/selected_rays"))
        ]
    return fan, selected


def parse_localmodel(doc: Mapping, path: str = "") -> localmodel.LocalModelSpec:
    localmodel = dualcech.localmodel
    n = _int(_get(doc, "n", path), f"{path}/n", minimum=1)
    components = [
        _int(x, f"{path}/components/{i}", minimum=1)
        for i, x in enumerate(_list(_get(doc, "components", path), f"{path}/components"))
    ]
    multiplicities = [
        _int(x, f"{path}/multiplicities/{i}", minimum=1)
        for i, x in enumerate(_list(_get(doc, "multiplicities", path), f"{path}/multiplicities"))
    ]
    bound = _get(doc, "degree_bound", path, required=False)
    if bound is not None:
        bound = _int(bound, f"{path}/degree_bound", minimum=0)
    return localmodel.make_local_model(n, components, multiplicities, bound)


def parse_bicomplex(doc: Mapping, path: str = "") -> bicomplex.Bicomplex:
    bicomplex = dualcech.bicomplex
    dims_doc = _list(_get(doc, "dims", path), f"{path}/dims")
    dims = {}
    for q, row in enumerate(dims_doc):
        for p, d in enumerate(_list(row, f"{path}/dims/{q}")):
            dims[(p, q)] = _int(d, f"{path}/dims/{q}/{p}", minimum=0)
    if not dims:
        raise SchemaError(f"{path}/dims", "bicomplex needs at least one cell")

    def parse_maps(field):
        out = {}
        for i, item in enumerate(_list(_get(doc, field, path, required=False, default=[]), f"{path}/{field}")):
            item_path = f"{path}/{field}/{i}"
            item = _obj(item, item_path)
            p = _int(_get(item, "p", item_path), f"{item_path}/p", minimum=0)
            q = _int(_get(item, "q", item_path), f"{item_path}/q", minimum=0)
            out[(p, q)] = _matrix(_get(item, "matrix", item_path), f"{item_path}/matrix")
        return out

    return bicomplex.make_bicomplex(dims, parse_maps("horizontal"), parse_maps("vertical"))


PARSERS = {
    "complex": parse_complex,
    "divisor": parse_divisor,
    "fan": parse_fan,
    "localmodel": parse_localmodel,
    "presheaf": parse_presheaf,
    "bicomplex": parse_bicomplex,
}
KINDS = tuple(PARSERS)


def parse_document(doc: Mapping):
    """A loaded document parsed by the parser of its kind.

    Dispatching here rather than through ``PARSERS`` in the caller keeps
    each parse one call of a module-level name, which the span tracer of
    ``perfbench/spans.py`` wraps.
    """
    return PARSERS[doc["kind"]](doc)


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and an int past Python's digit limit are ValueErrors
        raise SchemaError("", f"not valid JSON: {exc}") from None
    doc = _obj(doc, "")
    kind = _str(_get(doc, "kind", ""), "/kind")
    if kind not in KINDS:
        raise SchemaError("/kind", f"unknown document kind {kind!r}, expected one of {KINDS}")
    return doc


def render_report(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte, without its pure-Python encoder."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


_string = json.encoder.encode_basestring_ascii


def _write(value, indent: str, out: list[str]) -> None:
    """Append ``value`` as JSON to ``out``, with ``indent`` (a newline and spaces) before its closing bracket.

    ``json.dumps`` with ``indent=2`` writes each member of a nonempty
    container on its own line, two spaces deeper, separated by commas, and
    a dict's members as ``"key": value`` in sorted order of its items.  A
    key that is no string is written as ``json.dumps`` writes it as a value
    (``true``, ``null``, a number), within quotes, and a key of another type
    raises ``TypeError``, as there.  A plain int, ``true``, ``false`` and
    ``null`` are written directly, a list of plain ints in one join, a
    string by ``json``'s own C escaper, and any other leaf by ``json.dumps``,
    which raises ``TypeError`` on a value JSON cannot hold.
    """
    if isinstance(value, str):
        out.append(_string(value))
    elif type(value) is int:
        out.append(str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                key = json.dumps(key)
            out.append(lead + _string(key) + ": ")
            _write(item, inner, out)
            lead = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(x) is int for x in value):
            out.append("[" + inner + ("," + inner).join(map(str, value)) + indent + "]")
            return
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write(item, inner, out)
            lead = "," + inner
        out.append(indent + "]")
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    else:
        out.append(json.dumps(value))
