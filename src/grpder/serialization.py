"""JSON schemas for groups, elements, endomorphisms and derivations.

Group JSON:        {"order": n, "table": [[int, ...], ...], "labels": [...]?}
Element JSON:      {"ring": "Z"|"Q"|"Fp", "p": int?, "coeffs": [...]} where a
                   coefficient is an int or a reduced "num/den" string.
Endomorphism JSON: {"images": [element, ...]} with one image per basis element.
Derivation JSON:   same shape as endomorphism JSON.

Round trips are bit-exact: integers stay plain JSON integers and rationals
serialize reduced with positive denominator.
"""

from __future__ import annotations

import json

from .derivations import DerivationMap
from .group_ring import GroupRingElement, RingEndomorphism, endo_from_images
from .groups import FiniteGroup, make_from_table
from .rings import Ring, parse_scalar, ring_from_token


def dumps_canonical(data) -> str:
    """Stable JSON encoding used for every file this package writes."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def group_to_json(group: FiniteGroup) -> dict:
    data = {"order": group.order, "table": [list(row) for row in group.table]}
    if group.labels is not None:
        data["labels"] = list(group.labels)
    return data


def group_from_json(data: dict, name: str | None = None) -> FiniteGroup:
    if "table" not in data:
        raise ValueError("group JSON must contain a 'table'")
    table = data["table"]
    order = data.get("order")
    if order is not None and (type(order) is not int or order != len(table)):
        raise ValueError("declared order must be an integer equal to the table size")
    return make_from_table(table, labels=data.get("labels"), name=name)


def ring_to_json_fields(ring: Ring) -> dict:
    if ring.token.startswith("F"):
        return {"ring": "Fp", "p": ring.characteristic}
    return {"ring": ring.token}


def element_to_json(element: GroupRingElement) -> dict:
    data = ring_to_json_fields(element.ring)
    data["coeffs"] = [element.ring.scalar_to_json(v) for v in element.coeffs]
    return data


def element_from_json(group: FiniteGroup, data: dict, expected_ring: Ring | None = None) -> GroupRingElement:
    ring = ring_from_token(data["ring"], data.get("p"))
    if expected_ring is not None and ring != expected_ring:
        raise ValueError(f"element ring {ring} does not match expected {expected_ring}")
    coeffs = data["coeffs"]
    if len(coeffs) != group.order:
        raise ValueError("coefficient count does not match group order")
    return GroupRingElement(group, ring, [parse_scalar(ring, v) for v in coeffs])


def endo_to_json(endo: RingEndomorphism) -> dict:
    return {"images": [element_to_json(img) for img in endo.images]}


def endo_from_json(group: FiniteGroup, data: dict, expected_ring: Ring | None = None) -> RingEndomorphism:
    images = [
        element_from_json(group, item, expected_ring) for item in data["images"]
    ]
    return endo_from_images(images)


def derivation_to_json(delta: DerivationMap) -> dict:
    return {"images": [element_to_json(img) for img in delta.images]}


def derivation_images_from_json(group: FiniteGroup, data: dict, expected_ring: Ring | None = None) -> list[GroupRingElement]:
    """Parse candidate derivation images; Leibniz validation happens separately."""
    return [element_from_json(group, item, expected_ring) for item in data["images"]]
