"""Span tracing of grpder's layers, installed from outside the package.

The tracer wraps public entry points at the names the package resolves them
through (a module attribute that other modules call, or a class attribute),
so the library runs unmodified. Each call records a span: name, start, end,
parent span and request id; spans stay in memory until :meth:`Tracer.dump`.

Two methods run thousands of times per request, ``LinearSystem.add_row`` and
``GroupRingElement.__mul__``. Storing a span for each would take hundreds of
megabytes per run, so their calls are aggregated per parent span (count,
seconds, and for ``add_row`` the rank gained) instead. Their time still
counts as child time of the parent, so self times stay exact.

A layer is a module of the request path. ``rings`` is called per scalar and
a wrapper would cost more than the call, so it is not traced.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("groups", "group_ring", "linalg", "derivations", "constructions", "serialization")


def _targets(gp):
    """(owner, attribute, span name, kind) for every traced entry point."""
    g, gr, la, de, co, se = (
        gp.groups, gp.group_ring, gp.linalg, gp.derivations, gp.constructions, gp.serialization,
    )
    span = "span"
    return [
        # groups
        (g.FiniteGroup, "validate", "groups.validate", span),
        (g, "standard_group", "groups.standard_group", span),
        (se, "make_from_table", "groups.make_from_table", span),
        (co, "direct_product", "groups.direct_product", span),
        (co, "center", "groups.center", span),
        (co, "conjugacy_classes", "groups.conjugacy_classes", span),
        (gr, "conjugacy_classes", "groups.conjugacy_classes", span),
        # group_ring
        (gr.GroupRingElement, "__mul__", "group_ring.mul", "leaf"),
        (gr, "identity_endo", "group_ring.identity_endo", span),
        (co, "identity_endo", "group_ring.identity_endo", span),
        (se, "endo_from_images", "group_ring.endo_from_images", span),
        (co, "endo_from_group_map", "group_ring.endo_from_group_map", span),
        (gr, "is_central_endo", "group_ring.is_central_endo", span),
        (gr, "center_basis", "group_ring.center_basis", span),
        (gr.RingEndomorphism, "apply", "group_ring.RingEndomorphism.apply", span),
        # linalg
        (la.LinearSystem, "add_row", "linalg.add_row", "add_row"),
        (la.LinearSystem, "kernel_basis", "linalg.kernel_basis", span),
        (la.LinearSystem, "span_basis", "linalg.span_basis", span),
        (la.LinearSystem, "particular_solution", "linalg.particular_solution", span),
        (de, "integer_solve", "linalg.integer_solve", span),
        (la, "smith_normal_form", "linalg.smith_normal_form", "snf"),
        # derivations
        (de, "is_derivation", "derivations.is_derivation", span),
        (co, "is_derivation", "derivations.is_derivation", span),
        (de, "derivation_from_images", "derivations.derivation_from_images", span),
        (de, "derivation_space", "derivations.derivation_space", span),
        (de, "inner_space", "derivations.inner_space", span),
        (de, "inner_derivation", "derivations.inner_derivation", span),
        (co, "inner_derivation", "derivations.inner_derivation", span),
        (de, "inner_witness", "derivations.inner_witness", span),
        (de, "inner_witness_integer", "derivations.inner_witness_integer", span),
        (de, "gcd_criterion", "derivations.gcd_criterion", span),
        # constructions
        (co, "build_truncation", "constructions.build_truncation", span),
        (co, "class_preserving_check", "constructions.class_preserving_check", span),
        (co, "inner_witness_with_support", "constructions.inner_witness_with_support", span),
        # serialization
        (se, "group_from_json", "serialization.group_from_json", span),
        (se, "endo_from_json", "serialization.endo_from_json", span),
        (se, "derivation_images_from_json", "serialization.derivation_images_from_json", span),
        (se, "element_to_json", "serialization.element_to_json", span),
        (se, "derivation_to_json", "serialization.derivation_to_json", span),
        (se, "dumps_canonical", "serialization.dumps_canonical", span),
    ]


# Per-layer metrics read as the inclusive time of the outermost span among
# the listed names (a nested span of the same group is not counted twice).
INCLUSIVE = {
    "linalg.rref_s": ("linalg.kernel_basis", "linalg.span_basis", "linalg.particular_solution"),
    "linalg.snf_s": ("linalg.smith_normal_form",),
    "derivations.is_derivation_s": ("derivations.is_derivation",),
    "derivations.inner_space_s": ("derivations.inner_space",),
    "group_ring.endo_validate_s": ("group_ring.endo_from_images", "group_ring.endo_from_group_map"),
    "group_ring.is_central_endo_s": ("group_ring.is_central_endo",),
    "groups.validate_s": ("groups.validate",),
    "groups.direct_product_s": ("groups.direct_product",),
    "serialization.decode_s": (
        "serialization.group_from_json",
        "serialization.endo_from_json",
        "serialization.derivation_images_from_json",
    ),
    "serialization.encode_s": (
        "serialization.element_to_json",
        "serialization.derivation_to_json",
        "serialization.dumps_canonical",
    ),
    "constructions.build_truncation_s": ("constructions.build_truncation",),
    "constructions.support_witness_s": ("constructions.inner_witness_with_support",),
}

# Per-layer metrics read as the self time of the listed spans.
SELF = {
    "derivations.leibniz_assembly_s": ("derivations.derivation_space",),
    "derivations.witness_rows_s": ("derivations.inner_witness", "constructions.inner_witness_with_support"),
    "derivations.integer_columns_s": ("derivations.inner_witness_integer",),
    "derivations.gcd_criterion_s": ("derivations.gcd_criterion",),
}


class Tracer:
    def __init__(self, grpder_package) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # Span i is (name id, start, end, parent span or -1, request id).
        self.spans: list[tuple | None] = []
        # (parent span, leaf name id) -> [calls, seconds, rank gained]
        self.leaves: dict[tuple[int, int], list] = {}
        self.snf_cells = 0
        self.stack = [-1]
        self.request = -1
        self.requests = 0
        self.patches = []
        for owner, attr, name, kind in _targets(grpder_package):
            original = getattr(owner, attr)
            make = getattr(self, f"_wrap_{kind}")
            self.patches.append((owner, attr, original, make(name, original)))

    def _nid(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def install(self) -> None:
        for owner, attr, _original, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self.patches:
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap_span(self, name, fn):
        nid = self._nid(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (nid, start, end, parent, self.request)

        return traced

    def _wrap_snf(self, name, fn):
        inner = self._wrap_span(name, fn)

        def traced(matrix, *args, **kwargs):
            self.snf_cells += matrix.rows * matrix.cols
            return inner(matrix, *args, **kwargs)

        return traced

    def _leaf(self, nid, seconds, gained):
        key = (self.stack[-1], nid)
        rec = self.leaves.get(key)
        if rec is None:
            self.leaves[key] = [1, seconds, gained]
        else:
            rec[0] += 1
            rec[1] += seconds
            rec[2] += gained

    def _wrap_leaf(self, name, fn):
        nid = self._nid(name)

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(nid, perf_counter() - start, 0)

        return traced

    def _wrap_add_row(self, name, fn):
        # add_row is split by field; the rank gained per call measures how
        # many of the rows added were useful.
        q_id = self._nid(name + "[Q]")
        fp_id = self._nid(name + "[Fp]")

        def traced(system, *args, **kwargs):
            before = system.rank
            start = perf_counter()
            try:
                return fn(system, *args, **kwargs)
            finally:
                seconds = perf_counter() - start
                self._leaf(fp_id if system.ring.characteristic else q_id, seconds, system.rank - before)

        return traced

    def root(self, fn):
        """Wrap one request handler: its span is the parent of all others."""
        inner = self._wrap_span("request", fn)

        def traced(*args, **kwargs):
            self.request = self.requests
            self.requests += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.request = -1

        return traced

    # -- results ---------------------------------------------------------------

    def _child_seconds(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (parent, _nid), (_calls, seconds, _gain) in self.leaves.items():
            if parent >= 0:
                child[parent] += seconds
        return child

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every traced request."""
        names, spans = self.names, self.spans
        child = self._child_seconds()
        by_name_self = defaultdict(float)
        by_name_calls = defaultdict(int)
        for sid, (nid, start, end, _parent, _req) in enumerate(spans):
            by_name_self[names[nid]] += end - start - child[sid]
            by_name_calls[names[nid]] += 1
        leaf_totals = defaultdict(lambda: [0, 0.0, 0])
        for (_parent, nid), (calls, seconds, gained) in self.leaves.items():
            rec = leaf_totals[names[nid]]
            rec[0] += calls
            rec[1] += seconds
            rec[2] += gained
            by_name_self[names[nid]] += seconds
            by_name_calls[names[nid]] += calls

        totals: dict[str, float] = {}
        for metric, members in INCLUSIVE.items():
            ids = {self.name_ids[m] for m in members if m in self.name_ids}
            totals[metric] = sum(
                (
                    end - start
                    for nid, start, end, parent, _req in spans
                    if nid in ids and not self._has_ancestor_in(parent, ids)
                ),
                0.0,
            )
        for metric, members in SELF.items():
            totals[metric] = sum(by_name_self[m] for m in members)
        add_q, add_fp = leaf_totals["linalg.add_row[Q]"], leaf_totals["linalg.add_row[Fp]"]
        mul = leaf_totals["group_ring.mul"]
        rows = add_q[0] + add_fp[0]
        totals.update(
            {
                "linalg.add_row_q_s": add_q[1],
                "linalg.add_row_fp_s": add_fp[1],
                "linalg.add_row_calls": rows,
                "linalg.snf_calls": by_name_calls["linalg.smith_normal_form"],
                "linalg.snf_cells": self.snf_cells,
                "derivations.is_derivation_calls": by_name_calls["derivations.is_derivation"],
                "group_ring.mul_calls": mul[0],
                "group_ring.mul_s": mul[1],
            }
        )
        for layer in LAYERS:
            prefix = layer + "."
            totals[f"{layer}.self_s"] = sum((v for k, v in by_name_self.items() if k.startswith(prefix)), 0.0)
            totals[f"{layer}.calls"] = sum(v for k, v in by_name_calls.items() if k.startswith(prefix))
        totals["derivations.validations_per_request"] = (
            totals["derivations.is_derivation_calls"] / max(self.requests, 1)
        )
        totals["linalg.rank_gain_ratio"] = (add_q[2] + add_fp[2]) / rows if rows else 0.0
        return totals

    def _has_ancestor_in(self, sid: int, ids: set[int]) -> bool:
        spans = self.spans
        while sid >= 0:
            nid, _s, _e, parent, _r = spans[sid]
            if nid in ids:
                return True
            sid = parent
        return False

    def dump(self, path) -> None:
        """Write every span and leaf aggregate as one JSON document."""
        doc = {
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "leaves": [[parent, nid, *rec] for (parent, nid), rec in self.leaves.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
