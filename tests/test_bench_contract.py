"""The names and request shapes the benchmark in ``perfbench/`` relies on.

``perfbench/tracer.py`` wraps 40 grpder entry points by module attribute
and ``perfbench/server.py`` serves requests through the public API. This
file loads both (neither needs numpy) so that a rename or removal in
``src/`` that would break the benchmark fails here first. It also pins the
number of Leibniz validations each request makes.
"""

import json
import sys
from pathlib import Path

import pytest

import grpder
import grpder.serialization
from grpder import GroupRingElement, identity_endo, inner_derivation, standard_group
from grpder.rings import ZZ
from grpder.serialization import derivation_to_json, group_to_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import server
        import tracer

        yield server, tracer
    finally:
        sys.path.remove(str(PERFBENCH))


def _requests():
    s3 = standard_group("S3")
    ident = identity_endo(s3, ZZ)
    delta = inner_derivation(GroupRingElement(s3, ZZ, [0, 1, 0, 2, 0, -1]), ident, ident)
    return {
        "h1": {
            "op": "h1", "group": group_to_json(standard_group("C2")),
            "field": "Q", "sigma": "id", "tau": "id",
        },
        # The characteristic divides the order: the Schreier relators, not
        # the separable fast path, serve this one.
        "h1-char2": {
            "op": "h1", "group": group_to_json(standard_group("C2")),
            "field": "F2", "sigma": "id", "tau": "id",
        },
        "inner-check": {
            "op": "inner-check", "ring": "Z", "group": group_to_json(s3),
            "sigma": "id", "tau": "id", "delta": derivation_to_json(delta),
        },
        "counterexample": {"op": "counterexample", "base": "Q8", "n": 2, "sigma_by": "i"},
    }


def test_tracer_resolves_every_target(perfbench_modules):
    _server, tracer = perfbench_modules
    assert len(tracer.Tracer(grpder).patches) == 40


@pytest.mark.parametrize(
    "op, validations",
    # The derivation read from a request is validated once, by its
    # constructor; the tower map and the h1 bases are derivations by
    # construction.
    [("h1", 0), ("h1-char2", 0), ("inner-check", 1), ("counterexample", 0)],
)
def test_server_serves_each_op(perfbench_modules, op, validations):
    server, tracer = perfbench_modules
    handle = server.make_handlers(grpder)
    doc = _requests()[op]
    answer = json.loads(handle(json.dumps(doc)))
    if op == "h1":
        assert answer["h1"] == 0
    elif op == "h1-char2":
        assert answer["h1"] == 2
    elif op == "inner-check":
        assert answer["inner"] is True and answer["agreement"] is True
    else:
        assert answer["witness_full"] is not None
        assert answer["restricted_support_feasible"] is False

    traced = tracer.Tracer(grpder)
    traced_handle = traced.root(handle)
    traced.install()
    try:
        assert json.loads(traced_handle(json.dumps(doc))) == answer
    finally:
        traced.uninstall()
    metrics = traced.metrics()
    assert metrics["derivations.is_derivation_calls"] == validations
    # Every h1 request spans its inner rows once, through inner_space.
    assert (metrics["derivations.inner_space_s"] > 0) == op.startswith("h1")
