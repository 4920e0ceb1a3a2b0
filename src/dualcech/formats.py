"""JSON input parsing and report serialization.

Input documents are tagged unions on the "kind" field; the shapes are
published in schemas/input.v1.schema.json.  Rational matrix entries travel
as strings like "2/3" (or plain integers) so nothing is ever rounded.
Validation failures raise SchemaError carrying a JSON pointer to the
offending field.

Every field is read through one reader, ``_at(doc, key, path, read,
*args)``: it looks ``key`` up, refuses a missing required field, and
hands the value to a typed reader (``_int``, ``_str``, ``_matrix``, a
``parse_*``, ...) at the pointer ``path/key``.  Four collection readers
compose with it: ``_each`` reads an array and names item i ``path/i``,
``_entries`` reads an array of keyed entries, a presheaf's
``restrictions``, a divisor's ``tables`` or a bicomplex's maps, into a
dict, ``_keyed`` reads a simplex-keyed object such as ``dims``, ``unit``
or ``matrices``, and ``_ints`` reads an array of integers in one loop.
``_entries`` and ``_keyed`` refuse a second entry for one key at its own
pointer rather than let it replace the first, and ``load_document``
refuses a key written twice in one JSON object, of which ``json`` would
keep the last.  Every other object has fixed keys, and its reader takes it
through ``_record``, which refuses a key outside them at ``path/key``, as
the schema's ``additionalProperties: false`` does (the schema leaves a presheaf's
``restrictions`` open; ``formats`` holds their items to their three keys
all the same).  A top-level document's keys include ``kind`` and
``schema_version`` (``_ENVELOPE``).  Only the readers form pointers.  A
missing optional field takes its default; a ``null`` one is refused like
any other value of the wrong type, as the schema refuses it.  A ``schema_version``, where present, must be 1.

Reports are plain dictionaries rendered as one line with sorted keys, so
identical inputs always produce byte-identical JSON; ``python3 -m
json.tool`` indents one for reading.

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

SCHEMA_VERSION = 1

_REQUIRED = object()


def _at(doc: Mapping, key: str, path: str, read, *args, default=_REQUIRED):
    """``doc[key]`` read by ``read(value, path/key, *args)``; a missing field is ``default``, or refused without one."""
    if key in doc:
        return read(doc[key], f"{path}/{key}", *args)
    if default is _REQUIRED:
        raise SchemaError(f"{path}/{key}", "missing required field")
    return default


def _each(value, path, read, *args) -> list:
    """An array, item i read by ``read`` at ``path/i``."""
    return [read(item, f"{path}/{i}", *args) for i, item in enumerate(_list(value, path))]


def _entries(value, path, read, *args) -> dict:
    """An array of entries, item i read by ``read`` at ``path/i`` as a (key, value) pair; a repeated key is refused at its item."""
    out = {}
    for i, item in enumerate(_list(value, path)):
        key, entry = read(item, f"{path}/{i}", *args)
        if key in out:
            raise SchemaError(f"{path}/{i}", f"duplicate entry for {key}")
        out[key] = entry
    return out


def _keyed(value, path, read, *args) -> dict:
    """An object keyed by simplices such as "0,2", each value read by ``read`` at its key's pointer.

    Two keys that name one simplex, such as "0,1" and "0, 1", are refused
    at the second.
    """
    out = {}
    for key, item in _obj(value, path).items():
        at = f"{path}/{key}"
        try:
            simplex = tuple(int(part) for part in key.split(","))
        except ValueError:
            raise SchemaError(at, f"bad simplex key {key!r}, expected e.g. '0,2'") from None
        if simplex in out:
            raise SchemaError(at, f"duplicate entry for {simplex}")
        out[simplex] = read(item, at, *args)
    return out


def _ints(value, path, minimum=None) -> tuple[int, ...]:
    """An array of integers as a tuple, each checked as ``_int`` checks it, in one loop."""
    items = _list(value, path)
    for i, x in enumerate(items):
        if type(x) is not int or minimum is not None and x < minimum:
            _int(x, f"{path}/{i}", minimum)  # raises, unless x is an int subclass in range
    return tuple(items)


def _int(value, path, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}")
    return value


def _typed(kind: type, name: str):
    """A reader that returns a value of type ``kind`` as it is and refuses any other as "expected <name>"."""

    def read(value, path):
        if not isinstance(value, kind):
            raise SchemaError(path, f"expected {name}")
        return value

    return read


_list, _obj = _typed(list, "an array"), _typed(dict, "an object")
_str, _bool = _typed(str, "a string"), _typed(bool, "a boolean")


def _record(value, path, keys: frozenset) -> dict:
    """An object whose keys all lie in ``keys``; its first other key is refused as an unknown field."""
    value = _obj(value, path)
    if not value.keys() <= keys:
        unknown = next(key for key in value if key not in keys)
        raise SchemaError(f"{path}/{unknown}", "unknown field")
    return value


# the keys of each fixed-key object, as the schema lists its properties
_ENVELOPE = frozenset({"kind", "schema_version"})
_COMPLEX = frozenset({"vertex_count", "facets"})
_RESTRICTION = frozenset({"from", "to", "matrix"})
_PRESHEAF = _ENVELOPE | {"complex", "dims", "restrictions"}
_COMPONENT = frozenset({"name", "dim"})
_MATRICES = frozenset({"matrices"})
_TABLE_ROW = frozenset({"tuple", "flavor", "r", "q", "dim", "restriction"})
_DIVISOR = _ENVELOPE | {"components", "multiplicities", "strata", "tables", "irreducible", "rational_check"}
_RATIONAL_CHECK = frozenset({"claimed_rational", "dims", "restrictions", "unit"})
_FAN = _ENVELOPE | {"n", "rays", "cones", "selected_rays"}
_LOCALMODEL = _ENVELOPE | {"n", "components", "multiplicities", "degree_bound"}
_PLACED_MATRIX = frozenset({"p", "q", "matrix"})
_BICOMPLEX = _ENVELOPE | {"dims", "horizontal", "vertical"}


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


def parse_complex(doc: Mapping, path: str = "", keys=_ENVELOPE | _COMPLEX) -> simplicial.SimplicialComplex:
    """A ``complex`` document, or with ``keys`` = ``_COMPLEX`` a presheaf's ``complex`` object."""
    doc = _record(doc, path, keys)
    vertex_count = _at(doc, "vertex_count", path, _int, 0)
    return dualcech.simplicial.from_facets(vertex_count, _at(doc, "facets", path, _each, _ints))


def _restriction(item, path, dims) -> tuple:
    item = _record(item, path, _RESTRICTION)
    sigma = _at(item, "from", path, _ints)
    tau = _at(item, "to", path, _ints)
    return (sigma, tau), _at(item, "matrix", path, _matrix, dims.get(tau, 0), dims.get(sigma, 0))


def _restrictions(spec, path, base, dims) -> dict:
    if spec not in ("identity", "zero"):
        return _entries(spec, path, _restriction, dims)
    restrictions = {}
    for sigma, tau in base.face_pairs:
        if dims.get(sigma, 0) and dims.get(tau, 0):
            if spec == "zero":
                restrictions[(sigma, tau)] = RationalMatrix.zeros(dims[tau], dims[sigma])
                continue
            if dims[sigma] != dims[tau]:
                raise SchemaError(path, f"'identity' needs equal dims, got {dims[sigma]} -> {dims[tau]}")
            restrictions[(sigma, tau)] = RationalMatrix.identity(dims[tau])
    return restrictions


def parse_presheaf_data(doc: Mapping, base: simplicial.SimplicialComplex, path: str) -> presheaf.Presheaf:
    presheaf = dualcech.presheaf
    dims = _at(doc, "dims", path, _keyed, _int, 0)
    restrictions = _at(doc, "restrictions", path, _restrictions, base, dims, default={})
    return presheaf.make_presheaf(base, dims, restrictions)


def parse_presheaf(doc: Mapping, path: str = "") -> presheaf.Presheaf:
    doc = _record(doc, path, _PRESHEAF)
    return parse_presheaf_data(doc, _at(doc, "complex", path, parse_complex, _COMPLEX), path)


def _component(item, path) -> snc.Component:
    item = _record(item, path, _COMPONENT)
    return dualcech.snc.Component(_at(item, "name", path, _str), _at(item, "dim", path, _int, 0))


def _flavor(value, path) -> str:
    if value not in (dualcech.snc.SHEAF, dualcech.snc.DERHAM):
        raise SchemaError(path, "expected 'sheaf' or 'derham'")
    return value


def _restriction_field(value, path):
    if value in ("zero", "constant"):
        return value
    return _at(_record(value, path, _MATRICES), "matrices", path, _keyed, _matrix)


def _table_row(row, path) -> tuple:
    """One row of a divisor's ``tables`` as its key (tuple, flavor, r, q) and its entry."""
    snc = dualcech.snc
    row = _record(row, path, _TABLE_ROW)
    t = _at(row, "tuple", path, _ints)
    flavor = _at(row, "flavor", path, _flavor, default=snc.SHEAF)
    r = _at(row, "r", path, _int, 0, default=0)
    q = _at(row, "q", path, _int, 0)
    dim = _at(row, "dim", path, _int, 0)
    restriction = _at(row, "restriction", path, _restriction_field, default=None)
    return (t, flavor, r, q), snc.TableEntry(dim, restriction)


def parse_divisor(doc: Mapping, path: str = "") -> snc.SncDivisor:
    snc = dualcech.snc
    doc = _record(doc, path, _DIVISOR)
    components = _at(doc, "components", path, _each, _component)
    multiplicities = _at(doc, "multiplicities", path, _ints, 1, default=None)
    strata = _at(doc, "strata", path, _each, _ints)
    tables = _at(doc, "tables", path, _entries, _table_row, default=None)
    irreducible = _at(doc, "irreducible", path, _bool, default=True)
    return snc.make_snc_divisor(components, strata, tables, multiplicities=multiplicities, irreducible=irreducible)


def parse_rational_check(doc: Mapping, divisor: snc.SncDivisor, path: str):
    snc = dualcech.snc
    section = _record(doc, path, _RATIONAL_CHECK)
    claimed = _at(section, "claimed_rational", path, _bool)
    delta = snc.dual_complex(divisor)
    sections_presheaf = parse_presheaf_data(section, delta, path)
    return claimed, sections_presheaf, _at(section, "unit", path, _keyed, _each, _rational)


def parse_fan(doc: Mapping, path: str = "") -> tuple[toric.Fan, list[int]]:
    toric = dualcech.toric
    doc = _record(doc, path, _FAN)
    n = _at(doc, "n", path, _int, 0)
    rays = _at(doc, "rays", path, _each, _ints)
    fan = toric.make_fan(n, rays, _at(doc, "cones", path, _each, _ints, 0))
    selected = _at(doc, "selected_rays", path, _ints, 0, default=None)
    return fan, list(range(len(fan.rays)) if selected is None else selected)


def parse_localmodel(doc: Mapping, path: str = "") -> localmodel.LocalModelSpec:
    localmodel = dualcech.localmodel
    doc = _record(doc, path, _LOCALMODEL)
    n = _at(doc, "n", path, _int, 1)
    components = _at(doc, "components", path, _ints, 1)
    multiplicities = _at(doc, "multiplicities", path, _ints, 1)
    bound = _at(doc, "degree_bound", path, _int, 0, default=None)
    return localmodel.make_local_model(n, components, multiplicities, bound)


def _placed_matrix(item, path) -> tuple:
    item = _record(item, path, _PLACED_MATRIX)
    return (_at(item, "p", path, _int, 0), _at(item, "q", path, _int, 0)), _at(item, "matrix", path, _matrix)


def parse_bicomplex(doc: Mapping, path: str = "") -> bicomplex.Bicomplex:
    bicomplex = dualcech.bicomplex
    doc = _record(doc, path, _BICOMPLEX)
    rows = _at(doc, "dims", path, _each, _ints, 0)
    dims = {(p, q): d for q, row in enumerate(rows) for p, d in enumerate(row)}
    if not dims:
        raise SchemaError(f"{path}/dims", "bicomplex needs at least one cell")
    horizontal = _at(doc, "horizontal", path, _entries, _placed_matrix, default=None)
    vertical = _at(doc, "vertical", path, _entries, _placed_matrix, default=None)
    return bicomplex.make_bicomplex(dims, horizontal, vertical)


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


def _kind(value, path) -> str:
    kind = _str(value, path)
    if kind not in KINDS:
        raise SchemaError(path, f"unknown document kind {kind!r}, expected one of {KINDS}")
    return kind


def _version(value, path) -> int:
    if _int(value, path) != SCHEMA_VERSION:
        raise SchemaError(path, f"unsupported schema version {value}, expected {SCHEMA_VERSION}")
    return value


def _object(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key given twice is refused, where ``json`` keeps the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise SchemaError("", f"duplicate key {key!r} in one object")
    return obj


# one decoder for every document: ``json.loads`` with a hook builds a new one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and an int past Python's digit limit are ValueErrors
        raise SchemaError("", f"not valid JSON: {exc}") from None
    doc = _obj(doc, "")
    _at(doc, "kind", "", _kind)
    _at(doc, "schema_version", "", _version, default=None)
    return doc


def render_report(report: dict) -> str:
    """``report`` as one line of JSON with sorted keys, by the standard library's C encoder."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
