"""The serving process: answers grpder requests one at a time.

run.py starts it as ``python3 server.py <src dir> <trace file>``. Each request
is the JSON document a CLI user would pass as files, and each handler calls
the same public functions as the matching CLI handler (``grpder h1``,
``grpder inner-check --ring Z``, ``grpder counterexample``). Functions are
looked up through their modules at call time, so that the tracer's wrappers
see every call.

Protocol, one JSON object per line:

    stdin  {"requests": [text, ...], "traced": bool}
    stdout {"results": [[latency s, response text or null, error or null, probe s, start s], ...]}
    stdin  {"finish": true}
    stdout {"peak_rss_kb": int, "layers": {...} or null, "traced_requests": int}
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


_PROBE_TABLE = {k: 0 for k in range(256)}


def probe() -> None:
    """Fixed pure-Python work, about 1 ms, allocating no container objects.

    Timed before every request: run.py scales request latencies by the
    probe times to a reference machine speed (see NOTES.md). It creates no
    objects the cyclic garbage collector tracks, so it neither triggers nor
    pays for collections of the requests' garbage.
    """
    table = _PROBE_TABLE
    for i in range(4000):
        k = (i * 7919) & 255
        table[k] = (table[k] + i * k) % 1000003


def peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space.

    ``VmHWM`` is reset by exec; ``ru_maxrss`` is not, so it would also count
    the parent's memory at the time of the fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _group_summary(group) -> dict:
    data = {"order": group.order}
    if group.name:
        data["name"] = group.name
    return data


def _ring_fields(ring) -> dict:
    if ring.token.startswith("F"):
        return {"ring": "Fp", "p": ring.characteristic}
    return {"ring": ring.token}


def make_handlers(gp):
    se, de, gr, co = gp.serialization, gp.derivations, gp.group_ring, gp.constructions

    def load_endo(spec, group, ring):
        if spec == "id":
            return gr.identity_endo(group, ring)
        return se.endo_from_json(group, spec, ring)

    def h1(doc):
        group = se.group_from_json(doc["group"])
        ring = gp.rings.ring_from_token(doc["field"])
        if not ring.is_field:
            raise ValueError("field must be Q or F<prime>")
        sigma = load_endo(doc["sigma"], group, ring)
        tau = load_endo(doc["tau"], group, ring)
        space = de.derivation_space(sigma, tau)
        data = {
            "group": _group_summary(group),
            **_ring_fields(ring),
            "derivation_dim": len(space.basis),
            "inner_dim": len(space.inner_basis),
            "h1": space.h1_dimension,
            "sigma_central": gr.is_central_endo(sigma),
            "tau_central": gr.is_central_endo(tau),
            "basis": [se.derivation_to_json(d) for d in space.basis],
        }
        return se.dumps_canonical(data)

    def inner_check(doc):
        group = se.group_from_json(doc["group"])
        ring = gp.rings.ring_from_token(doc["ring"])
        if ring != gp.rings.ZZ:
            raise ValueError("inner-check requests are served over Z")
        sigma = load_endo(doc["sigma"], group, ring)
        tau = load_endo(doc["tau"], group, ring)
        images = se.derivation_images_from_json(group, doc["delta"], ring)
        delta = de.derivation_from_images(images, sigma, tau)
        witness = de.inner_witness_integer(delta, sigma, tau)
        by_gcd = de.gcd_criterion(delta, sigma, tau)
        data = {
            "group": _group_summary(group),
            **_ring_fields(ring),
            "witness": se.element_to_json(witness) if witness is not None else None,
            "inner": witness is not None,
            "gcd_criterion": by_gcd,
            "agreement": by_gcd == (witness is not None),
        }
        return se.dumps_canonical(data)

    def counterexample(doc):
        base = gp.groups.standard_group(doc["base"])
        level = doc["n"]
        conjugator = base.index_of_label(doc["sigma_by"])
        inv = base.inverse(conjugator)
        conj_map = [base.table[base.table[inv][h]][conjugator] for h in range(base.order)]
        bundle = co.build_truncation(base, conj_map, level)
        witness = de.inner_witness(bundle.delta, bundle.sigma, bundle.tau)
        data = {
            "base": doc["base"],
            "n": level,
            "sigma_by": base.label(conjugator),
            "order": bundle.group.order,
            "delta_valid": True,
            "witness_full": se.element_to_json(witness) if witness is not None else None,
        }
        if level >= 2:
            restricted = co.inner_witness_with_support(
                bundle.delta, bundle.sigma, bundle.tau, bundle.embedded_indices(level - 1)
            )
            data["restricted_support_feasible"] = restricted is not None
        return se.dumps_canonical(data)

    ops = {"h1": h1, "inner-check": inner_check, "counterexample": counterexample}

    def handle(text: str) -> str:
        doc = json.loads(text)
        return ops[doc["op"]](doc)

    return handle


def main() -> int:
    src, trace_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import grpder
    import grpder.serialization  # not imported by the package itself
    from tracer import Tracer

    handle = make_handlers(grpder)
    tracer = None
    traced_handle = None
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("finish"):
            layers = None
            if tracer is not None:
                layers = tracer.metrics()
                tracer.dump(trace_path)
            reply = {
                "peak_rss_kb": peak_rss_kb(),
                "layers": layers,
                "traced_requests": tracer.requests if tracer else 0,
            }
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
            return 0
        serve = handle
        if msg["traced"]:
            if tracer is None:
                tracer = Tracer(grpder)
                traced_handle = tracer.root(handle)
            tracer.install()
            serve = traced_handle
        results = []
        for text in msg["requests"]:
            p0 = perf_counter()
            probe()
            t0 = perf_counter()
            response = error = None
            try:
                response = serve(text)
            except Exception as exc:  # a failed request is counted; serving goes on
                error = f"{type(exc).__name__}: {exc}"
            results.append((perf_counter() - t0, response, error, t0 - p0, t0))
        if tracer is not None:
            tracer.uninstall()
        sys.stdout.write(json.dumps({"results": results}) + "\n")
        sys.stdout.flush()
    return 1


if __name__ == "__main__":
    sys.exit(main())
