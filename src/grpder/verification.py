"""Batch verification suite: seeded, deterministic, exhaustive property checks.

Each criterion function returns a list of :class:`VerificationCase`; a case
passes iff its ``expected`` and ``observed`` strings match exactly. The CLI
``verify-paper`` command and the acceptance test module both run these.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass, field

from .constructions import (
    build_truncation,
    commutative_derivation_form,
    find_unit_difference,
)
from .derivations import (
    _field_witness,
    derivation_from_images,
    derivation_space,
    extend_scalars,
    gcd_criterion,
    inner_derivation,
    inner_witness,
    inner_witness_integer,
    is_derivation,
    leibniz_space,
    twisted_centralizer,
    zc2_congruence_check,
)
from .group_ring import (
    GroupRingElement,
    RingEndomorphism,
    conjugation_endo,
    center_basis,
    endo_from_images,
    identity_endo,
    invert,
    is_central_endo,
)
from .groups import center, standard_group
from .linalg import ExactMatrix, LinearSystem, determinant, integer_solve, smith_normal_form, solve
from .rings import GF, QQ, ZZ
from .serialization import derivation_to_json, dumps_canonical, element_to_json, endo_to_json, group_to_json
from .util import DEFAULT_SEED, check_cancel

H1_GROUPS = ("C2", "C3", "C4", "C2xC2", "C6", "S3", "D4", "Q8", "A4")


@dataclass(frozen=True)
class VerificationCase:
    claim: str
    group: str
    ring: str
    params: str
    expected: str
    observed: str

    @property
    def passed(self) -> bool:
        return self.expected == self.observed

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "group": self.group,
            "ring": self.ring,
            "params": self.params,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    cases: list[VerificationCase] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "cases": [c.to_json() for c in self.cases],
            "summary": {"total": self.total, "passed": self.passed, "failed": self.failed},
        }

    def table(self) -> str:
        lines = []
        width = max((len(c.claim) for c in self.cases), default=20)
        for c in self.cases:
            status = "PASS" if c.passed else "FAIL"
            detail = f"expected={c.expected} observed={c.observed}"
            lines.append(f"{c.claim:<{width}}  {status}  {detail}")
        lines.append(
            f"summary: {self.passed}/{self.total} passed, {self.failed} failed"
        )
        return "\n".join(lines)


def _case(claim, group, ring, params, expected, observed) -> VerificationCase:
    return VerificationCase(
        claim=str(claim),
        group=str(group),
        ring=str(ring),
        params=str(params),
        expected=str(expected),
        observed=str(observed),
    )


def _random_element(group, ring, rng, lo=-3, hi=3) -> GroupRingElement:
    return GroupRingElement(group, ring, [rng.randint(lo, hi) for _ in range(group.order)])


def _random_unit(group, ring, rng, tries=64) -> GroupRingElement:
    for _ in range(tries):
        u = _random_element(group, ring, rng, -2, 2)
        if invert(u) is not None:
            return u
    raise RuntimeError("failed to draw a random unit within the retry budget")


def _conj_by_index(group, ring, g: int) -> RingEndomorphism:
    return conjugation_endo(GroupRingElement.basis(group, ring, g))


# -- criterion 1: h1 vanishes for central pairs over Q ----------------------


def criterion_h1_vanishing(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    rng = random.Random(seed)
    cases = []
    for name in H1_GROUPS:
        group = standard_group(name)
        pool = [("id", identity_endo(group, QQ))]
        for g in range(1, group.order):
            pool.append((f"conj[{group.label(g)}]", _conj_by_index(group, QQ, g)))
        for t in range(2):
            u = _random_unit(group, QQ, rng)
            pool.append((f"conj[unit{t}]", conjugation_endo(u)))
        pairs = [(pool[0], pool[0])]
        pairs.extend((entry, pool[0]) for entry in pool[1:])
        for _ in range(3):
            pairs.append((rng.choice(pool), rng.choice(pool)))
        for (sig_name, sigma), (tau_name, tau) in pairs:
            check_cancel()
            central = is_central_endo(sigma) and is_central_endo(tau)
            # The Leibniz solver, not the dispatcher: its fast path sets h1 = 0
            # by the very theorem this criterion checks.
            h1 = leibniz_space(sigma, tau).h1_dimension
            cases.append(
                _case(
                    f"1.h1-zero:{name}:{sig_name}|{tau_name}",
                    name,
                    "Q",
                    f"sigma={sig_name} tau={tau_name}",
                    "central,h1=0",
                    f"{'central' if central else 'non-central'},h1={h1}",
                )
            )
    return cases


# -- criterion 2: characteristic dividing the order matters ------------------


def criterion_prime_characteristic(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    c2 = standard_group("C2")
    s3 = standard_group("S3")
    h1_c2 = leibniz_space(identity_endo(c2, GF(2)), identity_endo(c2, GF(2))).h1_dimension
    h1_s3 = leibniz_space(identity_endo(s3, GF(5)), identity_endo(s3, GF(5))).h1_dimension
    return [
        _case("2.char-divides:C2", "C2", "F2", "sigma=id tau=id", "h1=2", f"h1={h1_c2}"),
        _case("2.char-coprime:S3", "S3", "F5", "sigma=id tau=id", "h1=0", f"h1={h1_s3}"),
    ]


# -- criterion 3: derivation identity suite ----------------------------------

IDENTITY_INSTANCES = 100


def criterion_derivation_identities(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    rng = random.Random(seed + 3)
    cases = []
    for name in H1_GROUPS:
        group = standard_group(name)
        n = group.order
        ident = identity_endo(group, QQ)
        pool = [(ident, ident)]
        if n > 2:
            g1 = rng.randrange(1, n)
            g2 = rng.randrange(1, n)
            pool.append((_conj_by_index(group, QQ, g1), _conj_by_index(group, QQ, g2)))
            pool.append((_conj_by_index(group, QQ, rng.randrange(1, n)), ident))
        cache = {}
        for idx, (sigma, tau) in enumerate(pool):
            span = LinearSystem(n, QQ)
            centralizer = twisted_centralizer(sigma, tau)
            for vec in centralizer:
                span.add_row({i: v for i, v in enumerate(vec.coeffs) if v})
            # The Leibniz system, not derivation_space: its fast path returns
            # the inner span, by the theorem these identities are checked for.
            cache[idx] = (sigma, tau, centralizer, span, leibniz_space(sigma, tau))
        klass_sums = center_basis(group, QQ)
        center_members = center(group).members
        counts = {
            "unit-image-zero": 0,
            "witness-additivity": 0,
            "witness-kernel-both-ways": 0,
            "central-power-rule": 0,
            "central-group-elements-killed": 0,
        }
        for inst in range(IDENTITY_INSTANCES):
            check_cancel()
            sigma, tau, centralizer, span, space = cache[inst % len(cache)]
            x = _random_element(group, QQ, rng)
            y = _random_element(group, QQ, rng)
            dx = inner_derivation(x, sigma, tau)
            dy = inner_derivation(y, sigma, tau)
            if dx.images[0].is_zero and all(b.images[0].is_zero for b in space.basis):
                counts["unit-image-zero"] += 1
            if inner_derivation(x + y, sigma, tau) == dx + dy:
                counts["witness-additivity"] += 1
            # Equivalence d_x = d_y <=> x - y in the twisted centralizer,
            # plus a constructed member of the coset to force the "if" side.
            agree = (dx == dy) == span.contains((x - y).coeffs)
            shifted = x
            for basis_vec in centralizer:
                shifted = shifted + basis_vec.scale(rng.randint(-2, 2))
            forced = inner_derivation(shifted, sigma, tau) == dx
            if agree and forced:
                counts["witness-kernel-both-ways"] += 1
            alpha = GroupRingElement.zero(group, QQ)
            for ks in klass_sums:
                alpha = alpha + ks.scale(rng.randint(-2, 2))
            ok_power = True
            for delta in (dx, space.basis[inst % len(space.basis)]) if space.basis else (dx,):
                power = GroupRingElement.one(group, QQ)
                d_alpha = delta.apply(alpha)
                for k in range(1, 6):
                    prev = power  # alpha^(k-1)
                    power = power * alpha
                    lhs = delta.apply(power)
                    rhs = (prev * d_alpha).scale(k)
                    if lhs != rhs:
                        ok_power = False
            if ok_power:
                counts["central-power-rule"] += 1
            if all(
                space_map.images[z].is_zero
                for space_map in space.basis
                for z in center_members
            ):
                counts["central-group-elements-killed"] += 1
        for key, count in counts.items():
            cases.append(
                _case(
                    f"3.{key}:{name}",
                    name,
                    "Q",
                    f"{IDENTITY_INSTANCES} seeded instances",
                    f"{IDENTITY_INSTANCES}/{IDENTITY_INSTANCES}",
                    f"{count}/{IDENTITY_INSTANCES}",
                )
            )
    return cases


# -- criterion 4: gcd test vs integral witness solver ------------------------

CROSS_ORACLE_INSTANCES = 200
CROSS_ORACLE_GROUPS = ("S3", "Q8", "D4", "C6", "C2xC2", "A4")


def _bicyclic_unit(group, ring, h: int, a: int) -> GroupRingElement:
    """The unit ``1 + (1 - h) a h_hat`` (square-zero correction term)."""
    one = GroupRingElement.one(group, ring)
    hat = GroupRingElement.zero(group, ring)
    power = 0
    while True:
        hat = hat + GroupRingElement.basis(group, ring, power)
        power = group.mul(power, h)
        if power == 0:
            break
    correction = (one - GroupRingElement.basis(group, ring, h)) * GroupRingElement.basis(
        group, ring, a
    ) * hat
    return one + correction


def _central_pool_z(group, rng):
    n = group.order
    options = [identity_endo(group, ZZ)]
    for _ in range(2):
        g = rng.randrange(1, n)
        options.append(_conj_by_index(group, ZZ, g))
    # Conjugation by a non-trivial unit of ZG, when one of bicyclic shape
    # exists; this makes the witness rows genuinely non-unimodular.
    for _ in range(8):
        h = rng.randrange(1, n)
        a = rng.randrange(1, n)
        u = _bicyclic_unit(group, ZZ, h, a)
        if len(u.support) > 1:
            options.append(conjugation_endo(u))
            break
    return options


def _integral_scaled_basis_derivation(group, sigma_z, tau_z, rng, cache):
    """Scale a rational derivation-space basis element to integer images."""
    key = (group, sigma_z.content, tau_z.content)
    if key not in cache:
        cache[key] = derivation_space(sigma_z.to_ring(QQ), tau_z.to_ring(QQ))
    space = cache[key]
    if not space.basis:
        return None
    pick = space.basis[rng.randrange(len(space.basis))]
    den = 1
    for img in pick.images:
        for v in img.coeffs:
            den = den * v.denominator // math.gcd(den, v.denominator)
    scaled = pick.scale(den * rng.randint(1, 3))
    images = [
        GroupRingElement(group, ZZ, [int(v) for v in img.coeffs]) for img in scaled.images
    ]
    return derivation_from_images(images, sigma_z, tau_z)


def _integral_instances(rng, count: int):
    """Yield ``count`` seeded Z instances ``(name, group, sigma, tau, delta)``.

    Even instances are inner; odd ones scale a rational derivation-space basis
    element to integer images, else are inner. Callers may draw from ``rng`` between.
    """
    groups = {name: standard_group(name) for name in CROSS_ORACLE_GROUPS}
    pools = {name: _central_pool_z(groups[name], rng) for name in CROSS_ORACLE_GROUPS}
    spaces = {}
    for idx in range(count):
        check_cancel()
        name = CROSS_ORACLE_GROUPS[idx % len(CROSS_ORACLE_GROUPS)]
        group, pool = groups[name], pools[name]
        sigma = pool[rng.randrange(len(pool))]
        tau = pool[rng.randrange(len(pool))]
        delta = None
        if idx % 2:
            delta = _integral_scaled_basis_derivation(group, sigma, tau, rng, spaces)
        if delta is None:
            delta = inner_derivation(_random_element(group, ZZ, rng), sigma, tau)
        yield name, group, sigma, tau, delta


def criterion_integral_cross_oracle(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    rng = random.Random(seed + 4)
    agreements = {name: [0, 0] for name in CROSS_ORACLE_GROUPS}  # [agree, total]
    inner_seen = 0
    non_inner_seen = 0
    disagreement = None
    for name, group, sigma, tau, delta in _integral_instances(rng, CROSS_ORACLE_INSTANCES):
        by_gcd = gcd_criterion(delta, sigma, tau)
        witness = inner_witness_integer(delta, sigma, tau)
        by_witness = witness is not None
        if witness is not None and inner_derivation(witness, sigma, tau) != delta:
            by_witness = "witness-does-not-reproduce"
        if by_witness is True:
            inner_seen += 1
        elif by_witness is False:
            non_inner_seen += 1
        agreements[name][1] += 1
        if by_gcd == by_witness:
            agreements[name][0] += 1
        elif disagreement is None:
            disagreement = {
                "group": group_to_json(group),
                "sigma": endo_to_json(sigma),
                "tau": endo_to_json(tau),
                "delta": derivation_to_json(delta),
                "gcd_criterion": by_gcd,
                "witness_present": bool(witness),
            }
            dump = pathlib.Path("grpder-oracle-disagreement.json")
            dump.write_text(dumps_canonical(disagreement))
    cases = []
    for name in CROSS_ORACLE_GROUPS:
        agree, total = agreements[name]
        cases.append(
            _case(
                f"4.oracle-agreement:{name}",
                name,
                "Z",
                f"{total} seeded instances",
                f"{total}/{total}",
                f"{agree}/{total}",
            )
        )
    cases.append(
        _case(
            "4.oracle-disagreements",
            "all",
            "Z",
            f"{CROSS_ORACLE_INSTANCES} instances: inner={inner_seen} non-inner={non_inner_seen}",
            "no disagreement recorded",
            "no disagreement recorded"
            if disagreement is None
            else f"disagreement fixture: {disagreement}",
        )
    )
    return cases


# -- criterion 5: scalar extension round trip ---------------------------------

EXTENSION_INSTANCES = 40


def _leibniz_on_random_elements(delta, rng, samples=3) -> bool:
    """``d(ab) = d(a) tau(b) + sigma(a) d(b)`` on random elements ``a, b``.

    Independent of :func:`is_derivation`, which checks basis pairs against
    a generating set: this multiplies whole group-ring elements.
    """
    group, ring = delta.group, delta.ring
    for _ in range(samples):
        a = _random_element(group, ring, rng)
        b = _random_element(group, ring, rng)
        lhs = delta.apply(a * b)
        rhs = delta.apply(a) * delta.tau.apply(b) + delta.sigma.apply(a) * delta.apply(b)
        if lhs != rhs:
            return False
    return True


def criterion_scalar_extension(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    rng = random.Random(seed + 5)
    ok_leibniz = 0
    ok_restrict = 0
    ok_witness = 0
    for _name, group, sigma, tau, delta in _integral_instances(rng, EXTENSION_INSTANCES):
        lifted = extend_scalars(delta, sigma, tau)
        if _leibniz_on_random_elements(lifted, rng):
            ok_leibniz += 1
        back = [
            GroupRingElement(group, ZZ, [int(v) for v in img.coeffs])
            for img in lifted.images
        ]
        if all(a == b for a, b in zip(back, delta.images)):
            ok_restrict += 1
        # Over Q the averaged witness always exists; it counts only if it reproduces the map.
        witness = inner_witness(lifted, lifted.sigma, lifted.tau)
        if witness is not None and inner_derivation(witness, lifted.sigma, lifted.tau) == lifted:
            ok_witness += 1
    expected = f"{EXTENSION_INSTANCES}/{EXTENSION_INSTANCES}"
    return [
        _case("5.extension-leibniz", "mixed", "Z->Q", f"{EXTENSION_INSTANCES} fixtures", expected, f"{ok_leibniz}/{EXTENSION_INSTANCES}"),
        _case("5.extension-restricts", "mixed", "Z->Q", f"{EXTENSION_INSTANCES} fixtures", expected, f"{ok_restrict}/{EXTENSION_INSTANCES}"),
        _case("5.rational-witness", "mixed", "Z->Q", f"{EXTENSION_INSTANCES} fixtures", expected, f"{ok_witness}/{EXTENSION_INSTANCES}"),
    ]


# -- criterion 6: commutative closed form -------------------------------------


def _sign_twist(group, ring) -> RingEndomorphism:
    images = []
    for k in range(group.order):
        coeffs = [ring.zero] * group.order
        coeffs[k] = ring.one if k % 2 == 0 else -ring.one
        images.append(GroupRingElement(group, ring, coeffs))
    return endo_from_images(images)


def criterion_commutative_closed_form(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    cases = []
    for name in ("C2", "C4"):
        group = standard_group(name)
        sigma = identity_endo(group, QQ)
        tau = _sign_twist(group, QQ)
        b = find_unit_difference(sigma, tau, seed=seed)
        cases.append(
            _case(
                f"6.unit-difference-found:{name}",
                name,
                "Q",
                "sigma=id tau=sign-twist",
                "found",
                "found" if b is not None else "absent",
            )
        )
        if b is None:
            continue
        space = leibniz_space(sigma, tau)  # all derivations, not the inner span (see criterion 3)
        good = sum(
            1
            for delta in space.basis
            if commutative_derivation_form(sigma, tau, b, delta)
        )
        cases.append(
            _case(
                f"6.closed-form-basis:{name}",
                name,
                "Q",
                f"dim={len(space.basis)}",
                f"{len(space.basis)}/{len(space.basis)}",
                f"{good}/{len(space.basis)}",
            )
        )
    return cases


# -- criterion 7: product-tower truncations -----------------------------------


def criterion_truncation_tower(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    base = standard_group("Q8")
    i_index = 2
    conj_map = [base.conjugate(i_index, h) for h in range(base.order)]
    cases = []
    for level in (1, 2, 3):
        check_cancel()
        bundle = build_truncation(base, conj_map, level)
        # build_truncation trusts its construction; check the Leibniz rule
        # and that delta equals the sum of the per-factor inner maps.
        valid = is_derivation(bundle.delta, bundle.sigma, bundle.tau)
        parts = [
            inner_derivation(w, bundle.sigma, bundle.tau) for w in bundle.witnesses
        ]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        decomposes = total == bundle.delta
        cases.append(
            _case(
                f"7.tower-built:Q8^{level}",
                f"Q8^{level}",
                "Q",
                f"order={bundle.group.order}",
                "leibniz-valid,factor-sum",
                f"{'leibniz-valid' if valid else 'leibniz-failed'},"
                f"{'factor-sum' if decomposes else 'factor-sum-failed'}",
            )
        )
        witness = inner_witness(bundle.delta, bundle.sigma, bundle.tau)
        reproduced = witness is not None and inner_derivation(witness, bundle.sigma, bundle.tau) == bundle.delta
        cases.append(
            _case(
                f"7.full-witness:Q8^{level}",
                f"Q8^{level}",
                "Q",
                "unconstrained witness system",
                "present,reproduces",
                f"{'present' if witness is not None else 'absent'},{'reproduces' if reproduced else 'no'}",
            )
        )
        # The witness above is averaged over the pair's cached kernel; the
        # general solver must return the same bytes.
        solved = _field_witness(bundle.delta, bundle.sigma, bundle.tau, None)
        cases.append(
            _case(
                f"7.averaged-equals-solver:Q8^{level}",
                f"Q8^{level}",
                "Q",
                "inner_witness against the witness-system solver",
                "byte-equal",
                "byte-equal" if _element_bytes(witness) == _element_bytes(solved) else "differ",
            )
        )
        if level >= 2:
            support = bundle.embedded_indices(level - 1)
            # The pinned-column solver, independent of the kernel reduction
            # that inner_witness_with_support uses.
            restricted = _field_witness(bundle.delta, bundle.sigma, bundle.tau, list(support))
            cases.append(
                _case(
                    f"7.restricted-support:Q8^{level}",
                    f"Q8^{level}",
                    "Q",
                    f"support=embedded Q8^{level-1} ({len(support)} elements)",
                    "absent",
                    "absent" if restricted is None else "present",
                )
            )
    return cases


def _element_bytes(element) -> str | None:
    return None if element is None else json.dumps(element_to_json(element))


# -- criterion 8: exact linear algebra self-checks -----------------------------

LINALG_INSTANCES = 500


def criterion_linalg_self_checks(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    rng = random.Random(seed + 8)
    ok_reconstruct = 0
    ok_chain = 0
    ok_unimodular = 0
    ok_solve = 0
    for _ in range(LINALG_INSTANCES):
        check_cancel()
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        density = rng.choice((0.3, 0.6, 1.0))
        entries = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        A = ExactMatrix(ZZ, entries)
        snf = smith_normal_form(A)
        if snf.U.matmul(A).matmul(snf.V) == snf.S:
            ok_reconstruct += 1
        diag = snf.diagonal
        chain = all(
            (diag[i] == 0 and diag[i + 1] == 0) or (diag[i] != 0 and diag[i + 1] % diag[i] == 0)
            for i in range(len(diag) - 1)
        ) and all(d >= 0 for d in diag)
        off_diag_clear = all(
            snf.S.entries[i][j] == 0
            for i in range(m)
            for j in range(n)
            if i != j
        )
        if chain and off_diag_clear:
            ok_chain += 1
        if abs(determinant(snf.U)) == 1 and abs(determinant(snf.V)) == 1:
            ok_unimodular += 1
        # Solvable and unstructured right-hand sides, checked for consistency
        # against the rational solver plus the divisibility obstruction.
        x_true = [rng.randint(-4, 4) for _ in range(n)]
        b_solvable = A.mul_vec(x_true)
        b_random = [rng.randint(-9, 9) for _ in range(m)]
        good = True
        for b in (b_solvable, b_random):
            x = integer_solve(A, b)
            if x is not None:
                if A.mul_vec(x) != b or any(not isinstance(v, int) for v in x):
                    good = False
            else:
                rational = solve(ExactMatrix(QQ, entries), b)
                c = snf.U.mul_vec(b)
                divisibility_broken = any(
                    (diag[i] == 0 and c[i] != 0) or (diag[i] != 0 and c[i] % diag[i] != 0)
                    for i in range(min(m, n))
                ) or any(c[i] != 0 for i in range(min(m, n), m))
                if not (rational is None or divisibility_broken):
                    good = False
        if good:
            ok_solve += 1
    expected = f"{LINALG_INSTANCES}/{LINALG_INSTANCES}"
    return [
        _case("8.snf-reconstruction", "-", "Z", "U*A*V == S", expected, f"{ok_reconstruct}/{LINALG_INSTANCES}"),
        _case("8.snf-divisibility-chain", "-", "Z", "d1 | d2 | ... , off-diagonal zero", expected, f"{ok_chain}/{LINALG_INSTANCES}"),
        _case("8.snf-unimodular", "-", "Z", "|det U| = |det V| = 1", expected, f"{ok_unimodular}/{LINALG_INSTANCES}"),
        _case("8.integer-solve-consistency", "-", "Z", "exactness + divisibility disjunction", expected, f"{ok_solve}/{LINALG_INSTANCES}"),
    ]


# -- criterion 9: commutator congruence checks ---------------------------------


def criterion_congruence(seed: int = DEFAULT_SEED) -> list[VerificationCase]:
    rng = random.Random(seed + 9)
    cases = []
    for name in ("S3", "Q8"):
        group = standard_group(name)
        ident = identity_endo(group, QQ)
        one = GroupRingElement.one(group, QQ)
        alpha = _random_element(group, QQ, rng)
        delta = inner_derivation(alpha, ident, ident)
        ok_a = zc2_congruence_check(delta, ident, ident, one, alpha)
        cases.append(
            _case(f"9.inner-vs-commutators:{name}", name, "Q", "sigma=tau=id u=1", "True", str(ok_a))
        )
        zero = GroupRingElement.zero(group, QQ)
        delta0 = inner_derivation(zero, ident, ident)
        ok_b = zc2_congruence_check(delta0, ident, ident, one, zero)
        cases.append(
            _case(f"9.zero-map:{name}", name, "Q", "delta=0 alpha=0 u=1", "True", str(ok_b))
        )
        g = rng.randrange(1, group.order)
        conj = _conj_by_index(group, QQ, g)
        alpha2 = _random_element(group, QQ, rng)
        delta2 = inner_derivation(alpha2, conj, conj)
        ok_c = zc2_congruence_check(delta2, conj, conj, one, alpha2)
        cases.append(
            _case(
                f"9.matched-conjugations:{name}",
                name,
                "Q",
                f"sigma=tau=conj[{group.label(g)}] u=1",
                "True",
                str(ok_c),
            )
        )
    return cases


CRITERIA = {
    "1": ("h1 vanishes for central pairs over Q", criterion_h1_vanishing),
    "2": ("prime characteristic hypothesis", criterion_prime_characteristic),
    "3": ("derivation identity suite", criterion_derivation_identities),
    "4": ("integral innerness cross-oracle", criterion_integral_cross_oracle),
    "5": ("scalar extension round trip", criterion_scalar_extension),
    "6": ("commutative closed form", criterion_commutative_closed_form),
    "7": ("product-tower truncations", criterion_truncation_tower),
    "8": ("exact linear algebra self-checks", criterion_linalg_self_checks),
    "9": ("commutator congruence checks", criterion_congruence),
}


def run_criteria(ids=None, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run the requested criteria (all by default) into one report."""
    if ids is None:
        ids = list(CRITERIA)
    report = VerificationReport()
    for cid in ids:
        if cid not in CRITERIA:
            raise ValueError(f"unknown criterion id {cid!r}; known: {', '.join(CRITERIA)}")
        _, fn = CRITERIA[cid]
        report.cases.extend(fn(seed))
    return report
