"""Acceptance suite: runs every verification criterion at its stated budget.

Each test prints one PASS/FAIL line for its criterion. Everything is exact
arithmetic, so every comparison is equality at zero tolerance; the two
timed criteria also assert their wall-clock budgets.
"""

import time

from grpder import derivations, verification
from grpder.util import DEFAULT_SEED
from grpder.verification import (
    criterion_commutative_closed_form,
    criterion_congruence,
    criterion_derivation_identities,
    criterion_h1_vanishing,
    criterion_integral_cross_oracle,
    criterion_linalg_self_checks,
    criterion_prime_characteristic,
    criterion_scalar_extension,
    criterion_truncation_tower,
)


def _report(criterion_id, title, cases, elapsed=None):
    failed = [c for c in cases if not c.passed]
    status = "PASS" if not failed else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion_id}: {status} {len(cases) - len(failed)}/{len(cases)} {title}{timing}")
    for c in failed:
        print(f"  FAILED {c.claim}: expected={c.expected} observed={c.observed}")
    assert not failed, f"criterion {criterion_id}: {len(failed)} case(s) failed"


def test_criterion_1_h1_vanishes_for_central_pairs():
    start = time.monotonic()
    cases = criterion_h1_vanishing(DEFAULT_SEED)
    elapsed = time.monotonic() - start
    _report(1, "h1 = 0 over Q for central pairs on all fixture groups", cases, elapsed)
    assert elapsed < 10.0, f"criterion 1 exceeded its 10s budget: {elapsed:.1f}s"


def test_criterion_2_prime_characteristic():
    _report(2, "h1(F2 C2) = 2 and h1(F5 S3) = 0", criterion_prime_characteristic(DEFAULT_SEED))


def test_criterion_3_derivation_identity_suite():
    _report(3, "identity suite on 100 seeded instances per group", criterion_derivation_identities(DEFAULT_SEED))


def test_criterion_4_integral_cross_oracle():
    _report(4, "gcd test agrees with the SNF witness on 200 instances", criterion_integral_cross_oracle(DEFAULT_SEED))


def test_criterion_5_scalar_extension_round_trip():
    _report(5, "Z-derivations extend to Q, restrict back, and are Q-inner", criterion_scalar_extension(DEFAULT_SEED))


def test_criterion_6_commutative_closed_form():
    _report(6, "sign-twist closed form on QC2 and QC4", criterion_commutative_closed_form(DEFAULT_SEED))


def test_criterion_7_truncation_tower():
    start = time.monotonic()
    cases = criterion_truncation_tower(DEFAULT_SEED)
    elapsed = time.monotonic() - start
    _report(7, "Q8 towers: valid, inner, and support-obstructed", cases, elapsed)
    assert elapsed < 60.0, f"criterion 7 exceeded its 60s budget: {elapsed:.1f}s"


def test_criterion_8_linalg_self_checks():
    _report(8, "SNF and integer-solve invariants on 500 matrices", criterion_linalg_self_checks(DEFAULT_SEED))


def test_criterion_9_commutator_congruence():
    _report(9, "congruence checks on S3 and Q8", criterion_congruence(DEFAULT_SEED))


# -- independence: a criterion must not check a shortcut against itself --------


def test_criterion_5_fails_when_the_averaged_witness_is_wrong(monkeypatch):
    def zeros(delta, sigma, tau, kernel):
        return [sigma.ring.zero] * sigma.group.order

    monkeypatch.setattr(derivations, "_averaged_witness", zeros)
    failed = [c.claim for c in criterion_scalar_extension(DEFAULT_SEED) if not c.passed]
    assert failed == ["5.rational-witness"]


def test_criteria_3_and_6_do_not_read_the_fast_derivation_space(monkeypatch):
    def unavailable(sigma, tau):
        raise AssertionError("derivation_space returns the inner span over Q")

    monkeypatch.setattr(verification, "derivation_space", unavailable)
    cases = criterion_derivation_identities(DEFAULT_SEED) + criterion_commutative_closed_form(DEFAULT_SEED)
    assert cases and all(c.passed for c in cases)
