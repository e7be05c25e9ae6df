"""Request generators for the three benchmark workloads.

Each workload yields rounds: lists of :class:`Request`. Every round of a
workload has the same composition (which groups, fields, twist kinds and
tower sizes, in a shuffled order); only the random details (conjugators,
units, deltas, primes) change from round to round. Because a run always
serves whole rounds, its request mix does not depend on how many rounds fit
into the run, so throughput and latency quantiles compare across runs and
commits.

A request carries the JSON document the program receives (the equivalent of
the files given to the CLI) plus the facts the checker needs. The generator
uses grpder to build its inputs, in the benchmark process only; the serving
process receives nothing but the documents.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from grpder import (
    GF,
    QQ,
    DerivationMap,
    ZZ,
    GroupRingElement,
    conjugation_endo,
    direct_product,
    endo_from_group_map,
    identity_endo,
    inner_derivation,
    invert,
    standard_group,
)
from grpder.groups import center
from grpder.serialization import derivation_to_json, endo_to_json, group_to_json
from grpder.verification import _bicyclic_unit, _conj_by_index, _sign_twist


@dataclass
class Request:
    doc: dict
    # Identity of the (group, sigma, tau) pair, used for shared_pair_ratio.
    pair_key: str
    # True when some sigma or tau image has support larger than one.
    dense: bool
    # Facts the checker uses; never sent to the serving process.
    expect: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"))


class Exhausted(Exception):
    """No further round can be drawn without repeating an input the workload forbids."""


def _named_group(name: str):
    if "x" in name and name != "C2xC2":
        left, right = name.split("x", 1)
        return direct_product(standard_group(left), standard_group(right))
    return standard_group(name)


def _endo_doc(endo):
    return "id" if endo.group_map == tuple(range(endo.group.order)) else endo_to_json(endo)


def _is_dense(*endos) -> bool:
    return any(len(img.support) > 1 for endo in endos for img in endo.images)


def _pair_key(group, ring, sigma, tau) -> str:
    return json.dumps(
        [group.table, ring.token, [list(map(str, i.coeffs)) for i in sigma.images],
         [list(map(str, i.coeffs)) for i in tau.images]],
        separators=(",", ":"),
    )


def _random_unit(group, ring, rng, tries=256):
    """A unit of RG with every coefficient drawn from {-2, -1, 1, 2}."""
    for _ in range(tries):
        u = GroupRingElement(group, ring, [rng.choice((-2, -1, 1, 2)) for _ in range(group.order)])
        if invert(u) is not None:
            return u
    raise RuntimeError(f"no unit of {ring}{group.name} found in {tries} draws")


def _prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


COPRIME_PRIMES = (5, 7, 11)


# -- h1-sweep ----------------------------------------------------------------

H1_NONABELIAN = ("S3", "D4", "Q8", "A4", "S3xC2", "Q8xC2", "D4xC2")
H1_ABELIAN = ("C8", "C10", "C12", "C14", "C16")
H1_DENSE_Q = ("S3", "D4", "Q8", "S3xC2", "A4")

# (groups, field kind, twist kind); one request per group per round.
H1_SLOTS = (
    (H1_NONABELIAN, "Q", "sparse"),
    (H1_DENSE_Q, "Q", "dense"),
    (H1_NONABELIAN, "p|n", "sparse"),
    (H1_NONABELIAN, "p!n", "sparse"),
    (H1_NONABELIAN, "p!n", "dense"),
    (H1_ABELIAN, "p|n", "sparse"),
    (H1_ABELIAN, "p!n", "sparse"),
)


class H1Sweep:
    """``grpder h1`` requests; no (group, sigma, tau) triple ever repeats.

    Sparse twists are drawn without replacement from each slot's finite
    pool; the smallest pools (Q8, D4 and their products with C2 over one
    field, C8, C10 and C12) hold 16 distinct pairs, so a run holds at most
    about 16 rounds (fewer when a dense draw happens to take a sparse pair)
    and then stops early with :class:`Exhausted`.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.groups = {name: _named_group(name) for name in H1_NONABELIAN + H1_ABELIAN}
        self.seen: set[str] = set()
        self.pools: dict[tuple[str, str], list[tuple[int, int]]] = {}

    @staticmethod
    def _ring(group, field_kind):
        # One prime per (group, field kind): the cost of a request depends
        # on p, and a random p would make rounds differ in cost.
        if field_kind == "Q":
            return QQ
        if field_kind == "p|n":
            return GF(max(_prime_divisors(group.order)))
        return GF(next(p for p in COPRIME_PRIMES if group.order % p))

    def _dense(self, group, ring):
        n = group.order
        sigma = conjugation_endo(_random_unit(group, ring, self.rng))
        if self.rng.random() < 0.5:
            return sigma, identity_endo(group, ring)
        return sigma, _conj_by_index(group, ring, self.rng.randrange(1, n))

    def _sparse(self, name, field_kind, group, ring):
        """Next pair from the slot's shuffled pool of group-map twists."""
        n = group.order
        pool = self.pools.get((name, field_kind))
        if pool is None:
            if group.is_abelian:
                # Power maps g -> g^k, k a unit mod n: the automorphisms of C_n.
                units = [k for k in range(1, n) if math.gcd(k, n) == 1]
                pool = [(a, b) for a in units for b in units]
            else:
                pool = [(g, h) for g in range(n) for h in range(n)]
            self.rng.shuffle(pool)
            self.pools[(name, field_kind)] = pool
        if not pool:
            return None
        a, b = pool.pop()
        if group.is_abelian:
            return (
                endo_from_group_map(group, ring, [i * a % n for i in range(n)]),
                endo_from_group_map(group, ring, [i * b % n for i in range(n)]),
            )
        return _conj_by_index(group, ring, a), _conj_by_index(group, ring, b)

    def _request(self, name, field_kind, kind) -> Request:
        group = self.groups[name]
        ring = self._ring(group, field_kind)
        while True:
            pair = self._dense(group, ring) if kind == "dense" else self._sparse(name, field_kind, group, ring)
            if pair is None:
                raise Exhausted(f"h1-sweep: no fresh ({name}, {ring}, {kind}) pair left")
            sigma, tau = pair
            key = _pair_key(group, ring, sigma, tau)
            if key not in self.seen:
                self.seen.add(key)
                break
        doc = {
            "op": "h1",
            "group": group_to_json(group),
            "field": ring.token,
            "sigma": _endo_doc(sigma),
            "tau": _endo_doc(tau),
        }
        return Request(doc, key, _is_dense(sigma, tau), {"group": name})

    def next_round(self) -> list[Request]:
        reqs = [
            self._request(name, field_kind, kind)
            for names, field_kind, kind in H1_SLOTS
            for name in names
        ]
        self.rng.shuffle(reqs)
        return reqs


# -- inner-z -------------------------------------------------------------------


def _bicyclic_conj(group):
    """Conjugation by the first non-trivial bicyclic unit ``1 + (1 - h) a h_hat`` of ZG.

    The unit is fixed per group, not drawn from the seed: the cost of every
    request on a pair depends on the unit, and a seed-dependent unit would
    make runs differ in cost.
    """
    for h in range(1, group.order):
        for a in range(1, group.order):
            u = _bicyclic_unit(group, ZZ, h, a)
            if len(u.support) > 1:
                return conjugation_endo(u)
    raise ValueError(f"{group.name} has no non-trivial bicyclic unit")


# (group, sigma kind, tau kind). Pairs with the sign twist also receive
# deltas that are inner over Q but not over Z.
INNER_Z_PAIRS = (
    ("C4", "id", "sign"),
    ("C6", "id", "sign"),
    ("C12", "id", "sign"),
    ("S3", "conj", "conj"),
    ("D4", "id", "bicyclic"),
    ("Q8", "conj", "id"),
    ("A4", "bicyclic", "id"),
    ("S3xC2", "bicyclic", "conj"),
    ("Q8xC2", "conj", "conj"),
)
INNER_Z_DELTAS_PER_PAIR = 4


class InnerZ:
    """``grpder inner-check --ring Z`` requests over a few fixed pairs."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pairs = []
        for name, s_kind, t_kind in INNER_Z_PAIRS:
            group = _named_group(name)
            sigma = self._endo(group, s_kind)
            tau = self._endo(group, t_kind)
            self.pairs.append(
                {
                    "group": group,
                    "sigma": sigma,
                    "tau": tau,
                    "sign": t_kind == "sign",
                    "key": _pair_key(group, ZZ, sigma, tau),
                    "dense": _is_dense(sigma, tau),
                    "head": {
                        "op": "inner-check",
                        "ring": "Z",
                        "group": group_to_json(group),
                        "sigma": _endo_doc(sigma),
                        "tau": _endo_doc(tau),
                    },
                }
            )

    def _endo(self, group, kind):
        if kind == "id":
            return identity_endo(group, ZZ)
        if kind == "sign":
            return _sign_twist(group, ZZ)
        if kind == "bicyclic":
            return _bicyclic_conj(group)
        z = set(center(group).members)
        return _conj_by_index(group, ZZ, self.rng.choice([g for g in range(group.order) if g not in z]))

    def _delta(self, pair, inner: bool):
        group, sigma, tau = pair["group"], pair["sigma"], pair["tau"]
        x = [self.rng.randint(-3, 3) for _ in range(group.order)]
        if inner:
            return inner_derivation(GroupRingElement(group, ZZ, x), sigma, tau)
        # delta = d_{x/2} for the sign twist: its images -x g^k (k odd) are
        # integral, and x/2 is its only witness, so an odd coefficient in x
        # makes delta Q-inner but not Z-inner.
        if all(v % 2 == 0 for v in x):
            x[self.rng.randrange(group.order)] += 1
        half = GroupRingElement(group, QQ, [Fraction(v, 2) for v in x])
        rational = inner_derivation(half, sigma.to_ring(QQ), tau.to_ring(QQ))
        images = [GroupRingElement(group, ZZ, [int(v) for v in img.coeffs]) for img in rational.images]
        return DerivationMap(group, ZZ, sigma, tau, images)

    def next_round(self) -> list[Request]:
        reqs = []
        for pair in self.pairs:
            for k in range(INNER_Z_DELTAS_PER_PAIR):
                inner = not (pair["sign"] and k % 2)
                delta = self._delta(pair, inner)
                doc = dict(pair["head"], delta=derivation_to_json(delta))
                reqs.append(Request(doc, pair["key"], pair["dense"], {"inner": inner}))
        self.rng.shuffle(reqs)
        return reqs


# -- tower -----------------------------------------------------------------------

# (base, level, requests per round). S3^3 (order 216, about 8.5 s per
# request at the seed commit) and Q8^3 (order 512, about 55 s) are left out
# so that a run holds tens of requests. The counts put the median inside the
# S3^2 requests and the p75 tail inside the Q8^2 and D4^2 ones, away from
# the jumps between sizes.
TOWER_MIX = (("S3", 2, 12), ("Q8", 2, 3), ("D4", 2, 3), ("A4", 2, 1))


class Tower:
    """``grpder counterexample`` requests on product towers ``H^n``.

    Conjugators cycle through each base's non-central elements in a seeded
    order. The cost of a request depends on the conjugator (up to 1.5x on
    D4), so cycling keeps the mix of every run alike.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.bases = {name: standard_group(name) for name, _, _ in TOWER_MIX}
        self.cycles: dict[str, list[int]] = {}

    def _conjugator(self, name: str) -> int:
        cycle = self.cycles.get(name)
        if not cycle:
            base = self.bases[name]
            z = set(center(base).members)
            cycle = [g for g in range(base.order) if g not in z]
            self.rng.shuffle(cycle)
            self.cycles[name] = cycle
        return cycle.pop()

    def next_round(self) -> list[Request]:
        reqs = []
        for name, level, count in TOWER_MIX:
            base = self.bases[name]
            for _ in range(count):
                g = self._conjugator(name)
                doc = {"op": "counterexample", "base": name, "n": level, "sigma_by": base.label(g)}
                key = f"{name}^{level}:{g}"
                reqs.append(Request(doc, key, False, {"conjugator": g}))
        self.rng.shuffle(reqs)
        return reqs


WORKLOADS = {"h1-sweep": H1Sweep, "inner-z": InnerZ, "tower": Tower}
