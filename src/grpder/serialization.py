"""JSON schemas for groups, elements, endomorphisms and derivations.

Group JSON:        {"order": n, "table": [[int, ...], ...], "labels": [...]?}
Element JSON:      {"ring": "Z"|"Q"|"Fp", "p": int?, "coeffs": [...]} where a
                   coefficient is an int or a reduced "num/den" string.
Endomorphism JSON: {"images": [element, ...]} with one image per basis element.
Derivation JSON:   same shape as endomorphism JSON.

Round trips are bit-exact: integers stay plain JSON integers and rationals
serialize reduced with positive denominator. A coefficient list of plain
ints is decoded in one scan that coerces only its nonzero entries, and a
unit vector is the group's shared basis element; any other list is read
by ``parse_scalar``, entry by entry.

Groups and endomorphisms are validated once per distinct document: a
document whose canonical JSON text was decoded before gives the same
validated object again (see :func:`_decoded`).
"""

from __future__ import annotations

import json

from .derivations import DerivationMap
from .group_ring import GroupRingElement, RingEndomorphism, _from_ints, endo_from_images
from .groups import FiniteGroup, make_from_table
from .rings import Ring, parse_scalar, ring_from_token
from .util import _LruCache

_GROUPS = _LruCache()
_ENDOS = _LruCache()


def _decoded(cache: _LruCache, scope: tuple, data, cells: int | None, decode):
    """``decode()``, or the object it returned before for the same ``scope`` and JSON text.

    The key is the text ``json.dumps(data, sort_keys=True)``, not the
    Python value: ``True == 1 == 1.0`` hash alike, while validation accepts
    only ``1``. (A sha256 of the text would need ``hashlib``, whose import
    loads OpenSSL and costs a server more memory than the cache holds.)
    The cache stores the object only once ``decode`` returns, so an invalid
    document is rejected again every time. ``cells`` None, or data that is
    not JSON, decodes without the cache.
    """
    if cells is None or not cache.fits(cells):
        return decode()
    try:
        text = json.dumps(data, sort_keys=True)
    except (TypeError, ValueError):
        return decode()
    key = (*scope, text)
    value = cache.get(key)
    if value is None:
        value = decode()
        # The key text counts one cell per 8 characters, the size of a table slot.
        cache.put(key, value, cells + len(text) // 8)
    return value


def dumps_canonical(data) -> str:
    """Stable JSON encoding used for every file this package writes.

    The text is byte for byte ``json.dumps(data, indent=2, sort_keys=True)``
    plus a newline. CPython encodes in C only without ``indent``, so plain
    documents are written by :func:`_indented`, which joins the reprs of a
    list of plain ints (a basis coefficient vector) and hands any other list
    of scalars to the compact C encoder in one call. Anything else is left
    to ``json.dumps`` itself.
    """
    try:
        return _indented(data, "\n") + "\n"
    except (_NotPlain, TypeError, ValueError, RecursionError):
        # Other types, non-str keys, cycles, values json rejects: the reference decides.
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


class _NotPlain(Exception):
    """A value whose type is not exactly one that :func:`_indented` writes."""


_encode_str = json.encoder.encode_basestring_ascii
_compact = json.JSONEncoder(separators=(",", ":")).encode
_CONTAINERS = (dict, list, tuple)
_LEAVES = (float, bool, type(None))
_INT = {int}


def _indented(v, nl: str) -> str:
    """``v`` as ``json.dumps(indent=2, sort_keys=True)`` writes it, ``nl`` being its line start."""
    t = type(v)
    if t is str:
        return _encode_str(v)
    if t is int:
        return int.__repr__(v)
    if t in _LEAVES:
        return _compact(v)
    if t not in _CONTAINERS:
        raise _NotPlain
    if not v:
        return "{}" if t is dict else "[]"
    inner = nl + "  "
    sep = "," + inner
    if t is dict:
        parts = []
        for k in sorted(v):
            if type(k) is not str:
                raise _NotPlain
            parts.append(_encode_str(k) + ": " + _indented(v[k], inner))
        return "{" + inner + sep.join(parts) + nl + "}"
    if set(map(type, v)) == _INT:
        return "[" + inner + sep.join(map(int.__repr__, v)) + nl + "]"
    if type(v[0]) not in _CONTAINERS:
        # Split the compact text at its commas only when each one separates
        # two items: no string holds a comma and no item is a container.
        s = _compact(v)
        if s.count(",") == len(v) - 1 and (
            ('"' not in s and s.find("[", 1) < 0 and "{" not in s)
            or all(type(x) is str or type(x) is int for x in v)
        ):
            return "[" + inner + s[1:-1].replace(",", sep) + nl + "]"
    return "[" + inner + sep.join([_indented(x, inner) for x in v]) + nl + "]"


def group_to_json(group: FiniteGroup) -> dict:
    data = {"order": group.order, "table": [list(row) for row in group.table]}
    if group.labels is not None:
        data["labels"] = list(group.labels)
    return data


def group_from_json(data: dict) -> FiniteGroup:
    if "table" not in data:
        raise ValueError("group JSON must contain a 'table'")
    table = data["table"]
    order = data.get("order")
    if order is not None and (type(order) is not int or order != len(table)):
        raise ValueError("declared order must be an integer equal to the table size")
    cells = len(table) ** 2 if isinstance(table, list) else None
    return _decoded(_GROUPS, (), data, cells, lambda: make_from_table(table, labels=data.get("labels")))


def ring_to_json_fields(ring: Ring) -> dict:
    if ring.token.startswith("F"):
        return {"ring": "Fp", "p": ring.characteristic}
    return {"ring": ring.token}


def element_to_json(element: GroupRingElement) -> dict:
    data = ring_to_json_fields(element.ring)
    data["coeffs"] = element.ring.coeffs_to_json(element.coeffs)
    return data


def element_from_json(group: FiniteGroup, data: dict, expected_ring: Ring | None = None) -> GroupRingElement:
    ring = ring_from_token(data["ring"], data.get("p"))
    if expected_ring is not None and ring != expected_ring:
        raise ValueError(f"element ring {ring} does not match expected {expected_ring}")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list):
        raise ValueError("coefficients must be a list")
    if len(coeffs) != group.order:
        raise ValueError("coefficient count does not match group order")
    if set(map(type, coeffs)) == _INT:
        return _from_ints(group, ring, coeffs)
    # parse_scalar returns ring.coerce of each value, so the constructor need not coerce again.
    return GroupRingElement(group, ring, [parse_scalar(ring, v) for v in coeffs], _normalized=True)


def endo_to_json(endo: RingEndomorphism) -> dict:
    return {"images": [element_to_json(img) for img in endo.images]}


def _images_error(data) -> str | None:
    """What makes ``data`` no images document, named by its field, or None.

    Called only once decoding has raised KeyError or TypeError, so that a
    valid document pays for no checks.
    """
    if not isinstance(data, dict):
        return f"document must be an object with an 'images' list, got {type(data).__name__}"
    if "images" not in data:
        return "document has no 'images' field"
    images = data["images"]
    if not isinstance(images, list):
        return f"'images' must be a list, got {type(images).__name__}"
    for i, item in enumerate(images):
        if not isinstance(item, dict):
            return f"image {i} must be an object, got {type(item).__name__}"
        for field in ("ring", "coeffs"):
            if field not in item:
                return f"image {i} has no '{field}' field"
    return None


def _decode_images(data, decode):
    """``decode()``, with a KeyError or TypeError of a malformed document turned into a ValueError naming the field."""
    try:
        return decode()
    except (KeyError, TypeError) as exc:
        message = _images_error(data)
        if message is None:
            raise
        raise ValueError(message) from exc


def endo_from_json(group: FiniteGroup, data: dict, expected_ring: Ring | None = None) -> RingEndomorphism:
    def decode():
        return endo_from_images(element_from_json(group, item, expected_ring) for item in data["images"])

    # The group is keyed by identity; the endomorphism holds it, so its id
    # is not reused while the entry lives. Cells: the images and the table.
    return _decoded(_ENDOS, (id(group), expected_ring), data, 2 * group.order**2, lambda: _decode_images(data, decode))


def derivation_to_json(delta: DerivationMap) -> dict:
    return {"images": [element_to_json(img) for img in delta.images]}


def derivation_images_from_json(group: FiniteGroup, data: dict, expected_ring: Ring | None = None) -> list[GroupRingElement]:
    """Parse candidate derivation images, one per basis element; Leibniz validation happens separately."""
    images = _decode_images(data, lambda: [element_from_json(group, item, expected_ring) for item in data["images"]])
    if len(images) != group.order:
        raise ValueError(f"need one image per group basis element, got {len(images)} for order {group.order}")
    return images
