"""grpder benchmark: serve generated requests and report end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload h1-sweep --seed 1 --seconds 20 --trace 0

One client sends requests one at a time (a closed loop) to one serving
process with one thread. With ``--trace 0`` the run serves whole rounds of
requests until at least ``--seconds`` of serving and the workload's minimum
request count are reached, then prints the end-to-end metrics; timings are
scaled to a reference machine speed measured by a probe before every
request (see ``scaled_latencies``), and the raw figures are printed too.
With ``--trace 1`` it serves a fixed number of rounds, each once untraced
and once traced, and prints the per-layer metrics and the tracing overhead.
Answers are checked after serving ends, outside the timed interval.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric by name with its unit, plus the input properties and the
output digest. Spans and a full report are written under ``.perfbench/``.
See NOTES.md for the workloads and what each metric is predicted to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from checks import check_h1, check_inner_z, check_tower
from scipy.special import betainc

if TYPE_CHECKING:
    from workloads import Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Tail quantile per workload, and the minimum request count per run. At
# the minimum count at least ten samples lie beyond the tail quantile.
# h1-sweep's minimum (four rounds) is set for run-to-run steadiness.
TAIL_QUANTILE = {"h1-sweep": 0.90, "inner-z": 0.99, "tower": 0.75}
MIN_REQUESTS = {"h1-sweep": 160, "inner-z": 1000, "tower": 40}
# Rounds served by a traced run: fixed, so that its counts repeat exactly.
TRACE_ROUNDS = {"h1-sweep": 1, "inner-z": 20, "tower": 1}
SETUP_SAMPLES = 11
# Median probe time on a quiet machine (Intel Xeon, CPython 3.11); scaled
# timings read as if the machine always ran at that speed.
PROBE_REFERENCE_S = 0.00085
SPEED_WINDOW_S = 0.5
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "import grpder, grpder.serialization\n"
    "elapsed = time.perf_counter() - start\n"
    "from server import probe\n"
    "probes = []\n"
    "for _ in range(5):\n"
    "    t = time.perf_counter()\n"
    "    probe()\n"
    "    probes.append(time.perf_counter() - t)\n"
    "print(elapsed, sorted(probes)[2])\n"
)

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup() -> tuple[float, float]:
    """Import time of what the server loads, in fresh interpreters: (scaled, raw) medians.

    One warm-up interpreter is discarded (it may compile bytecode). Each
    sample is scaled by the median of five probes run right after the
    import in the same interpreter, as request latencies are.
    """
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, probe_s = map(float, proc.stdout.split())
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * PROBE_REFERENCE_S / probe_s)
    return statistics.median(scaled), statistics.median(raw)


class Server:
    """The serving process and its line protocol (see server.py)."""

    def __init__(self, trace_path: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(SRC), str(trace_path)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _call(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited with code {self.proc.wait()}")
        return json.loads(line)

    def serve(self, requests, traced: bool) -> list:
        return self._call({"requests": [r.text for r in requests], "traced": traced})["results"]

    def finish(self) -> dict:
        return self._call({"finish": True})

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Served(NamedTuple):
    request: Request
    latency: float
    response: str | None
    error: str | None
    probe: float  # seconds the fixed probe took just before the request
    start: float  # server clock at the start of the request


def scaled_latencies(served: list[Served]) -> list[float]:
    """Latencies scaled to the reference machine speed.

    The machine is shared, and its speed for pure-Python work drifts by 10%
    to 30% over seconds to minutes. The probe (server.py) runs before every
    request; a request's latency is multiplied by PROBE_REFERENCE_S over the
    median probe time within SPEED_WINDOW_S of it, so that a drift common to
    the probe and the request cancels.
    """
    starts = [s.start for s in served]  # ascending: one server, served in order
    probes = [s.probe for s in served]
    out = []
    lo = hi = 0
    for s in served:
        while starts[lo] < s.start - SPEED_WINDOW_S:
            lo += 1
        while hi < len(starts) and starts[hi] <= s.start + SPEED_WINDOW_S:
            hi += 1
        out.append(s.latency * PROBE_REFERENCE_S / statistics.median(probes[lo:hi]))
    return out


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q quantile.

    A weighted mean of all order statistics with Beta(q(n+1), (1-q)(n+1))
    weights. It uses the samples around the nearest rank instead of the one
    sample at it, so a tail estimated from a few tens of samples beyond it
    moves much less from run to run.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def check(workload: str, request, response_text: str, bases) -> str | None:
    out = json.loads(response_text)
    doc = request.doc
    if workload == "h1-sweep":
        return check_h1(doc, out)
    if workload == "inner-z":
        return check_inner_z(doc, out, request.expect["inner"])
    return check_tower(doc, out, bases[doc["base"]].table, request.expect["conjugator"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_QUANTILE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "grpder" / "__init__.py").is_file():
        print(f"error: grpder sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grpder
    from workloads import WORKLOADS, Exhausted

    if Path(grpder.__file__).resolve().parent != SRC / "grpder":
        print(f"error: imported grpder from {grpder.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload, traced = args.workload, bool(args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    setup_s, raw_setup_s = (None, None) if traced else measure_setup()
    generator = WORKLOADS[workload](args.seed)
    q = TAIL_QUANTILE[workload]
    min_requests = MIN_REQUESTS[workload]

    served: list[Served] = []
    rounds = []  # request count per round
    serving_s = traced_s = 0.0
    mismatches = 0
    server = Server(OUT / f"{stem}-spans.json")
    try:
        while True:
            if traced and len(rounds) == TRACE_ROUNDS[workload]:
                break
            if not traced and serving_s >= args.seconds and len(served) >= min_requests:
                break
            try:
                requests = generator.next_round()
            except Exhausted as exc:
                print(f"# stopped early: {exc}")
                break
            results = server.serve(requests, traced=False)
            serving_s += sum(res[0] for res in results)
            if traced:
                again = server.serve(requests, traced=True)
                traced_s += sum(res[0] for res in again)
                mismatches += sum(a[1] != b[1] for a, b in zip(results, again))
            served.extend(Served(r, *res) for r, res in zip(requests, results))
            rounds.append(len(requests))
        final = server.finish()
    finally:
        server.close()

    # -- checks, outside the timed interval --------------------------------
    bases = {name: grpder.standard_group(name) for name in ("S3", "Q8", "D4", "A4")}
    failures = []
    for i, s in enumerate(served):
        reason = s.error or check(workload, s.request, s.response, bases)
        if reason:
            failures.append(f"request {i}: {reason}")
    attempted = len(served)
    failed = len(failures)
    first_round = [canonical(s.response) if s.response else "null" for s in served[: rounds[0]]]
    keys_seen = set()
    shared = 0
    for s in served:
        shared += s.request.pair_key in keys_seen
        keys_seen.add(s.request.pair_key)

    info = {
        "workload": workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "requests": attempted,
        "failed_ratio": failed / attempted,
        "shared_pair_ratio": shared / attempted,
        "dense_twist_ratio": sum(s.request.dense for s in served) / attempted,
        "digest_requests": rounds[0],
        "output_sha256": hashlib.sha256("\n".join(first_round).encode()).hexdigest(),
    }
    if workload == "inner-z":
        info["inner_requests"] = sum(s.request.expect["inner"] for s in served)
        info["non_inner_requests"] = attempted - info["inner_requests"]

    if traced:
        metrics = dict(final["layers"])
        metrics["trace.overhead_requests_per_s"] = attempted / serving_s - attempted / traced_s
        metrics["trace.overhead_ratio"] = traced_s / serving_s - 1
        info["traced_outputs_differing"] = mismatches
        units = {name: layer_unit(name) for name in metrics}
    else:
        scaled = scaled_latencies(served)
        raw = [s.latency for s in served]
        info["tail_quantile"] = q
        info["tail_samples_beyond"] = attempted - math.ceil(q * attempted)
        info["raw_requests_per_s"] = attempted / serving_s
        info["raw_latency_p50_ms"] = hd_quantile(raw, 0.5) * 1000
        info["raw_latency_tail_ms"] = hd_quantile(raw, q) * 1000
        info["raw_setup_s"] = raw_setup_s
        info["probe_median_ms"] = statistics.median(s.probe for s in served) * 1000
        per_round, i = [], 0
        for count in rounds:
            per_round.append(count / sum(scaled[i : i + count]))
            i += count
        metrics = {
            "requests_per_s": statistics.median(per_round),
            "latency_p50_ms": hd_quantile(scaled, 0.5) * 1000,
            "latency_tail_ms": hd_quantile(scaled, q) * 1000,
            "success_ratio": (attempted - failed) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": final["peak_rss_kb"] / 1024,
        }
        units = END_TO_END_UNITS

    for key, value in info.items():
        print(f"# {key} {value}")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    correct = failed == 0 and mismatches == 0
    report = {
        "info": info,
        "metrics": metrics,
        "failures": failures,
        # One row per request: op, latency s, probe s, start s on the server clock.
        "requests": [[s.request.doc["op"], s.latency, s.probe, s.start] for s in served],
    }
    (OUT / f"{stem}-report.json").write_text(json.dumps(report, sort_keys=True) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name == "trace.overhead_requests_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_request"):
        return "count/req"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
