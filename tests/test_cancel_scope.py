"""Cancellation by scope: ``with token:`` reaches every checkpoint of the work inside.

Each solver case runs once under a counting token to learn its checkpoint
count N, then once per k in 1..N under a token that sets itself at its k-th
check: every run must raise Cancelled right there.
"""

import importlib
import inspect
import threading

import pytest

from grpder import (
    CancelToken,
    Cancelled,
    GroupRingElement,
    build_truncation,
    conjugation_endo,
    derivation_from_images,
    derivation_space,
    endo_from_images,
    gcd_criterion,
    identity_endo,
    inner_derivation,
    inner_space,
    inner_witness,
    inner_witness_integer,
    inner_witness_with_support,
    leibniz_space,
    make_from_table,
    standard_group,
    twisted_centralizer,
)
from grpder import derivations
from grpder.linalg import ExactMatrix, LinearSystem, integer_solve, smith_normal_form
from grpder.rings import GF, QQ, ZZ
from grpder.util import _caches, _clear_caches, check_cancel


class TripToken(CancelToken):
    """Counts its checks and sets itself at check number ``trip`` (never if None)."""

    __slots__ = ("checks", "trip")

    def __init__(self, trip=None):
        super().__init__()
        self.checks = 0
        self.trip = trip

    def check(self):
        self.checks += 1
        if self.checks == self.trip:
            self.cancel()
        super().check()


S3 = standard_group("S3")
S3_TABLE = [list(row) for row in S3.table]


def _pair(ring):
    return conjugation_endo(GroupRingElement.basis(S3, ring, 1)), identity_endo(S3, ring)


def _inner_delta(ring):
    sigma, tau = _pair(ring)
    x = GroupRingElement(S3, ring, [1, 0, 2, 0, -1, 3])
    return inner_derivation(x, sigma, tau), sigma, tau


def _derivation_space_fast():
    return derivation_space(*_pair(QQ))


def _derivation_space_schreier():
    return derivation_space(*_pair(GF(3)))


def _leibniz_space():
    return leibniz_space(*_pair(QQ))


def _inner_space():
    return inner_space(*_pair(GF(5)))


def _twisted_centralizer():
    # The elimination of a pair is cached; every run counts a cold call.
    _clear_caches()
    return twisted_centralizer(*_pair(QQ))


def _inner_witness():
    _clear_caches()
    return inner_witness(*_inner_delta(QQ))


def _inner_witness_integer():
    # The Smith factors of a pair are cached; every run counts a cold call.
    _clear_caches()
    return inner_witness_integer(*_inner_delta(ZZ))


def _gcd_criterion():
    return gcd_criterion(*_inner_delta(ZZ))


def _cold_gcd_criterion():
    # The row gcds of a pair are cached; every run counts a cold call.
    _clear_caches()
    return gcd_criterion(*_inner_delta(ZZ))


def _derivation_from_images():
    # The row basis of a pair is cached; every run counts a first validation.
    _clear_caches()
    delta, sigma, tau = _inner_delta(QQ)
    return derivation_from_images(list(delta.images), sigma, tau)


def _derivation_from_images_by_row_basis():
    # Every row, then the basis build, then a check of the basis rows alone.
    _clear_caches()
    delta, sigma, tau = _inner_delta(QQ)
    return [derivation_from_images(list(delta.images), sigma, tau) for _ in range(3)]


def _build_truncation():
    # The product group of a tower is cached; every run counts a cold build.
    _clear_caches()
    return _tower(3)


def _tower(level):
    conj = [S3.conjugate(1, h) for h in range(S3.order)]
    return build_truncation(S3, conj, level)


def _inner_witness_with_support():
    _clear_caches()
    bundle = _tower(2)
    support = bundle.embedded_indices(1)
    return inner_witness_with_support(bundle.delta, bundle.sigma, bundle.tau, support)


def _make_from_table():
    return make_from_table(S3_TABLE)


# Conjugation by the unit 2 + g1 of QS3: every image is dense, with denominators.
DENSE_Q_IMAGES = conjugation_endo(GroupRingElement(S3, QQ, [2, 1, 0, 0, 0, 0])).images


def _endo_from_images():
    return endo_from_images(DENSE_Q_IMAGES)


CASES = {
    "derivation_space-fast-path": _derivation_space_fast,
    "derivation_space-schreier-path": _derivation_space_schreier,
    "leibniz_space": _leibniz_space,
    "inner_space": _inner_space,
    "twisted_centralizer": _twisted_centralizer,
    "inner_witness": _inner_witness,
    "inner_witness_integer": _inner_witness_integer,
    "gcd_criterion": _gcd_criterion,
    "gcd_criterion-cold": _cold_gcd_criterion,
    "derivation_from_images": _derivation_from_images,
    "derivation_from_images-row-basis": _derivation_from_images_by_row_basis,
    "build_truncation": _build_truncation,
    "inner_witness_with_support": _inner_witness_with_support,
    "make_from_table": _make_from_table,
    "endo_from_images-dense-Q": _endo_from_images,
}


def _checkpoints(call):
    """The number of checks ``call`` makes under one scope, and its result."""
    token = TripToken()
    with token:
        result = call()
    return token.checks, result


@pytest.mark.parametrize("call", list(CASES.values()), ids=list(CASES))
def test_every_checkpoint_cancels(call):
    expected = call()
    count, result = _checkpoints(call)
    assert count > 0
    assert result == expected
    for k in range(1, count + 1):
        token = TripToken(k)
        with pytest.raises(Cancelled), token:
            call()
        assert token.checks == k


def test_request_paths_check_once_per_row():
    n = S3.order
    gens = len(S3.generators())
    # One check per row of the twisted matrix, as before the scope form.
    assert _checkpoints(_derivation_space_fast)[0] == (n - 1) * n
    # A cold witness: one check per row of the elimination, then one per
    # non-identity image in the averaging loop.
    assert _checkpoints(_inner_witness)[0] == gens * n + (n - 1)
    # The inner-space phase of leibniz_space is covered after the Leibniz rows.
    assert _checkpoints(_leibniz_space)[0] == gens * (n - 1) + _checkpoints(_inner_space)[0]
    # The inner-space phase, then one check per edge (g, s) of the Schreier
    # walk: n - 1 tree steps and n |S| - (n - 1) relator blocks.
    inner = _checkpoints(lambda: inner_space(*_pair(GF(3))))[0]
    assert _checkpoints(_derivation_space_schreier)[0] == gens * n + inner
    # Validating basis images: one check per product phi(g) phi(s).
    assert _checkpoints(_endo_from_images)[0] == gens * n


def test_a_cancelled_schreier_walk_stores_nothing():
    count, reference = _checkpoints(_derivation_space_schreier)
    for k in range(1, count + 1):
        _clear_caches()
        token = TripToken(k)
        with pytest.raises(Cancelled), token:
            _derivation_space_schreier()
        assert all(len(cache) == 0 for cache in _caches)
    assert _derivation_space_schreier() == reference


def test_inner_witness_integer_checks_its_matrix_assembly():
    count, _ = _checkpoints(_inner_witness_integer)
    assert count > len(S3.generators()) * S3.order


def test_a_cancelled_cold_factorization_stores_nothing():
    delta, sigma, tau = _inner_delta(ZZ)
    count, _ = _checkpoints(_inner_witness_integer)
    for k in range(1, count + 1):
        _clear_caches()
        token = TripToken(k)
        with pytest.raises(Cancelled), token:
            inner_witness_integer(delta, sigma, tau)
        assert len(derivations._INTEGER_FACTORS) == 0
    rows = [[row.get(h, 0) for h in range(S3.order)] for _i, _k, row in derivations._witness_rows(sigma, tau)]
    rhs = [delta.images[i].coeffs[k] for i, k, _row in derivations._witness_rows(sigma, tau)]
    reference = integer_solve(ExactMatrix(ZZ, rows), rhs)
    assert list(inner_witness_integer(delta, sigma, tau).coeffs) == reference
    assert len(derivations._INTEGER_FACTORS) == 1


def test_a_cancelled_row_basis_build_stores_nothing():
    delta, sigma, tau = _inner_delta(QQ)
    images = list(delta.images)
    cache = derivations._LEIBNIZ_BASES

    def validated_once():
        _clear_caches()
        derivation_from_images(images, sigma, tau)  # every row; the pair is marked
        (entry,) = cache._entries.values()
        assert entry[0] is derivations._SEEN
        return entry

    marked = validated_once()
    count, _ = _checkpoints(lambda: derivation_from_images(images, sigma, tau))
    assert count > 1  # the build's walk, then one check of the basis rows
    for k in range(1, count + 1):
        assert validated_once() == marked
        token = TripToken(k)
        with pytest.raises(Cancelled), token:
            derivation_from_images(images, sigma, tau)
        (entry,) = cache._entries.values()
        value = entry[0]
        if k < count:
            assert entry == marked and cache.cells == marked[1] + S3.order**2
        else:  # cancelled at the check of the basis rows, once the basis is stored
            assert isinstance(value, tuple)
    assert _checkpoints(lambda: derivation_from_images(images, sigma, tau))[0] == 1


def test_a_cancelled_cold_gcd_criterion_stores_nothing():
    delta, sigma, tau = _inner_delta(ZZ)
    count, expected = _checkpoints(_cold_gcd_criterion)
    assert count == 2 * S3.order  # the row gcds, then the test of delta, once per image each
    for k in range(1, count + 1):
        _clear_caches()
        token = TripToken(k)
        with pytest.raises(Cancelled), token:
            gcd_criterion(delta, sigma, tau)
        # Nothing until the gcds are complete; a cancelled test of delta keeps them.
        assert len(derivations._ROW_GCDS) == (k > S3.order)
    assert gcd_criterion(delta, sigma, tau) == expected
    assert len(derivations._ROW_GCDS) == 1


def test_a_warm_gcd_criterion_polls_once_per_image(monkeypatch):
    delta, sigma, tau = _inner_delta(ZZ)
    _clear_caches()
    expected = gcd_criterion(*_inner_delta(ZZ))  # fills the cache, with other objects
    monkeypatch.setattr(derivations, "_row_gcds", None)  # a warm call computes no gcd
    assert _checkpoints(lambda: gcd_criterion(delta, sigma, tau)) == (S3.order, expected)


def _count_add_row(monkeypatch):
    calls = []
    add_row = LinearSystem.add_row
    monkeypatch.setattr(LinearSystem, "add_row", lambda self, *a: calls.append(1) or add_row(self, *a))
    return calls


def test_a_cached_pair_checks_in_the_averaging_loop_and_the_centralizer_system(monkeypatch):
    n = S3.order
    delta, sigma, tau = _inner_delta(QQ)
    expected = inner_witness(*_inner_delta(QQ))  # fills the pair cache, with another delta object
    count, witness = _checkpoints(lambda: inner_witness(delta, sigma, tau))
    assert witness == expected
    assert count == n - 1  # one per averaged image, no elimination
    # The average is kept on the delta object: asking again polls nothing.
    assert _checkpoints(lambda: inner_witness(delta, sigma, tau)) == (0, expected)

    bundle = _tower(2)
    support = bundle.embedded_indices(1)
    assert inner_witness_with_support(bundle.delta, bundle.sigma, bundle.tau, support) is None  # fills the cache
    calls = _count_add_row(monkeypatch)
    # A tower request: the full witness averages, the restricted one reuses that
    # average and polls once per row of the dim C system.
    tower = _tower(2)
    args = (tower.delta, tower.sigma, tower.tau)
    assert _checkpoints(lambda: inner_witness(*args))[0] == tower.group.order - 1
    assert not calls
    count, restricted = _checkpoints(lambda: inner_witness_with_support(*args, support))
    assert restricted is None and calls and count == len(calls)
    # The next build_truncation call returns a new delta, which averages again.
    again = _tower(2)
    assert again.delta is not tower.delta
    calls.clear()
    count, _ = _checkpoints(lambda: inner_witness_with_support(again.delta, again.sigma, again.tau, support))
    assert count == again.group.order - 1 + len(calls)

    # Every checkpoint cancels, each run on a delta that has not averaged yet.
    # A cancelled average is not kept, so the same call then averages again;
    # one cancelled after it keeps it.
    def full_question():
        return lambda: inner_witness(*_inner_delta(QQ))

    def restricted_question():
        fresh = _tower(2)
        return lambda: inner_witness_with_support(fresh.delta, fresh.sigma, fresh.tau, support)

    for make, averaging in ((full_question, n - 1), (restricted_question, tower.group.order - 1)):
        count = _checkpoints(make())[0]
        for k in range(1, count + 1):
            token = TripToken(k)
            call = make()
            with pytest.raises(Cancelled), token:
                call()
            assert token.checks == k
            assert _checkpoints(call)[0] == (count if k <= averaging else count - averaging)


def test_a_cancelled_elimination_stores_nothing():
    sigma, tau = _pair(QQ)
    count, reference = _checkpoints(_twisted_centralizer)
    for k in range(1, count + 1):
        _clear_caches()
        token = TripToken(k)
        with pytest.raises(Cancelled), token:
            twisted_centralizer(sigma, tau)
        assert len(derivations._CENTRALIZERS) == 0
    assert twisted_centralizer(sigma, tau) == reference
    assert len(derivations._CENTRALIZERS) == 1


def test_smith_normal_form_checks_once_per_reduction_pass():
    rows = [[row.get(h, 0) for h in range(S3.order)] for _i, _k, row in derivations._witness_rows(*_pair(ZZ))]
    matrix = ExactMatrix(ZZ, rows)
    count, snf = _checkpoints(lambda: smith_normal_form(matrix))
    nonzero = sum(1 for d in snf.diagonal if d)
    # At least one pass per nonzero diagonal entry, plus one check before each entry.
    assert count >= 2 * nonzero


def test_a_set_token_acts_only_inside_its_scope():
    token = CancelToken()
    token.cancel()
    check_cancel()
    expected = _inner_space()
    with pytest.raises(Cancelled), token:
        check_cancel()
    assert _inner_space() == expected


@pytest.mark.parametrize("set_index", [0, 1], ids=["outer-set", "inner-set"])
def test_either_token_of_nested_scopes_stops_work(set_index):
    tokens = [CancelToken(), CancelToken()]
    tokens[set_index].cancel()
    outer, inner = tokens
    with pytest.raises(Cancelled), outer, inner:
        _inner_space()


def test_scope_is_restored_when_a_block_exits_on_an_exception():
    outer, inner = CancelToken(), CancelToken()
    inner.cancel()
    with outer:
        with pytest.raises(Cancelled), inner:
            _inner_space()
        _inner_space()  # inner no longer applies
        outer.cancel()
        with pytest.raises(Cancelled):
            _inner_space()  # outer still applies
    _inner_space()  # neither applies


def test_same_token_nested_twice():
    token = CancelToken()
    with token:
        with token:
            _twisted_centralizer()
        token.cancel()
        with pytest.raises(Cancelled):
            _twisted_centralizer()
    _twisted_centralizer()


def _capture(call):
    """The result of ``call``, or the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 (handed back to the test)
        return exc


def _in_thread(call):
    """Run ``call`` in a new thread; return its result or the exception it raised."""
    out = []
    worker = threading.Thread(target=lambda: out.append(_capture(call)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out[0]


def test_scope_does_not_reach_another_thread():
    token = CancelToken()
    token.cancel()
    expected = _derivation_space_fast()
    with token:
        assert _in_thread(_derivation_space_fast) == expected
        with pytest.raises(Cancelled):
            _derivation_space_fast()


def test_set_token_entered_in_one_thread_does_not_stop_another():
    token = CancelToken()
    token.cancel()
    expected = _twisted_centralizer()
    entered, done = threading.Event(), threading.Event()

    def scoped():
        with token:
            entered.set()
            assert done.wait(timeout=60)
            return _twisted_centralizer()

    worker = threading.Thread(target=lambda: out.append(_capture(scoped)))
    out = []
    worker.start()
    assert entered.wait(timeout=60)
    assert _twisted_centralizer() == expected  # while the other thread is in scope
    done.set()
    worker.join(timeout=60)
    assert isinstance(out[0], Cancelled)


def test_same_token_entered_from_two_threads_at_once():
    token = CancelToken()
    barrier = threading.Barrier(3, timeout=60)
    outcomes = []
    lock = threading.Lock()

    def worker():
        record = []
        with token:
            barrier.wait()  # both threads are inside the scope
            record.append(_inner_space() is not None)
            barrier.wait()
            barrier.wait()  # the token is now set
            try:
                _inner_space()
                record.append("ran")
            except Cancelled:
                record.append("cancelled")
        record.append(_inner_space() is not None)  # scope left
        with lock:
            outcomes.append(record)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    barrier.wait()
    barrier.wait()
    token.cancel()
    barrier.wait()
    for t in threads:
        t.join(timeout=60)
    assert outcomes == [[True, "cancelled", True]] * 2


def _public_callables():
    for module_name in ("util", "groups", "group_ring", "linalg", "derivations",
                        "constructions", "verification", "serialization", "cli"):
        module = importlib.import_module(f"grpder.{module_name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module_name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module_name}.{name}.{attr}", member


def test_no_callable_takes_a_cancel_parameter():
    offenders = [
        name for name, fn in _public_callables()
        if "cancel" in inspect.signature(fn).parameters
    ]
    assert offenders == []
    assert list(inspect.signature(check_cancel).parameters) == []
