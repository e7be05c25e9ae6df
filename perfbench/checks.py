"""Answer checks, independent of the code paths they check.

Every check works from the request document and the response alone, with
its own arithmetic on the Cayley table: none of them calls the grpder
function that produced the answer. Identities over Q are tested modulo the
prime ``P`` with numpy; a wrong answer passes only if every one of its
errors happens to be a multiple of ``P``.

Each check returns None when the answer is right, else a one-line reason.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Prime below 2**29: products of two residues and sums of 16 of them fit in int64.
P = 536870909


def _scalar(raw) -> Fraction:
    return Fraction(raw) if isinstance(raw, str) else Fraction(int(raw))


def _mod(value: Fraction, m: int) -> int:
    return value.numerator * pow(value.denominator, -1, m) % m


def _residues(rows, m: int) -> np.ndarray:
    return np.array([[_mod(v, m) for v in row] for row in rows], dtype=np.int64)


def _images(images_json) -> list[list[Fraction]]:
    return [[_scalar(v) for v in img["coeffs"]] for img in images_json]


def _endo_images(spec, n: int) -> list[list[Fraction]]:
    if spec == "id":
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return _images(spec["images"])


class Table:
    """Cayley-table helpers: inverses, classes and the product index."""

    def __init__(self, rows) -> None:
        self.rows = [list(r) for r in rows]
        n = self.n = len(rows)
        self.inv = [r.index(0) for r in self.rows]
        # (x * y)_k = sum_i x_i y_{L[i, k]}, with g_i g_{L[i, k]} = g_k.
        self.L = np.array([[self.rows[self.inv[i]][k] for k in range(n)] for i in range(n)])
        self.product = np.array(self.rows)

    def classes(self) -> list[list[int]]:
        seen, out = set(), []
        for x in range(self.n):
            if x in seen:
                continue
            orbit = {self.rows[self.rows[self.inv[g]][x]][g] for g in range(self.n)}
            seen |= orbit
            out.append(sorted(orbit))
        return out

    def is_central(self, images: list[list[Fraction]], p: int) -> bool:
        """True iff the map fixes every class sum (exact over Q, mod p over F_p)."""
        for cls in self.classes():
            total = [sum(images[c][k] for c in cls) for k in range(self.n)]
            target = [Fraction(int(k in cls)) for k in range(self.n)]
            if p:
                if any(_mod(a - b, p) for a, b in zip(total, target)):
                    return False
            elif total != target:
                return False
        return True


def check_h1(doc: dict, out: dict) -> str | None:
    table = Table(doc["group"]["table"])
    n = table.n
    field = doc["field"]
    p = 0 if field == "Q" else int(field[1:])
    m = p or P
    if out["group"]["order"] != n:
        return "wrong group order"
    if (out["ring"], out.get("p")) != (("Q", None) if not p else ("Fp", p)):
        return "wrong ring"
    dim, inner, h1 = out["derivation_dim"], out["inner_dim"], out["h1"]
    if not (0 <= inner <= dim and h1 == dim - inner and len(out["basis"]) == dim):
        return f"inconsistent dimensions {dim}/{inner}/{h1}"
    sigma = _endo_images(doc["sigma"], n)
    tau = _endo_images(doc["tau"], n)
    central = (table.is_central(sigma, p), table.is_central(tau, p))
    if central != (out["sigma_central"], out["tau_central"]):
        return "wrong centrality flags"
    if all(central) and (p == 0 or n % p) and h1 != 0:
        return f"h1 = {h1} for a central pair over a semisimple group algebra"
    if not dim:
        return None
    D = np.stack([_residues(_images(d["images"]), m) for d in out["basis"]])  # (map, a, coeff)
    S = _residues(sigma, m)
    T = _residues(tau, m)
    if D[:, 0, :].any():
        return "a basis map has d(1) != 0"
    # Leibniz on every basis pair: d(g_a g_b) = d(g_a) tau(g_b) + sigma(g_a) d(g_b).
    lhs = D[:, table.product, :]
    left = np.einsum("mai,bik->mabk", D, T[:, table.L]) % m
    right = np.einsum("ai,mbik->mabk", S, D[:, :, table.L]) % m
    if ((lhs - left - right) % m).any():
        return "a basis map violates the Leibniz rule"
    return None


def check_inner_z(doc: dict, out: dict, expect_inner: bool) -> str | None:
    witness = out["witness"]
    if out["inner"] != (witness is not None):
        return "inner flag does not match the witness"
    if out["gcd_criterion"] != out["inner"] or out["agreement"] is not True:
        return "SNF witness and gcd criterion disagree"
    if out["inner"] != expect_inner:
        return f"inner = {out['inner']}, expected {expect_inner}"
    if witness is None:
        return None
    table = Table(doc["group"]["table"])
    n = table.n
    S = _residues(_endo_images(doc["sigma"], n), P)
    T = _residues(_endo_images(doc["tau"], n), P)
    delta = _residues(_images(doc["delta"]["images"]), P)
    w = np.array([_mod(_scalar(v), P) for v in witness["coeffs"]], dtype=np.int64)
    # d_w(g_i) = w tau(g_i) - sigma(g_i) w
    w_tau = np.einsum("a,iak->ik", w, T[:, table.L]) % P
    sigma_w = S @ w[table.L] % P
    if ((w_tau - sigma_w - delta) % P).any():
        return "witness does not reproduce delta"
    return None


def check_tower(doc: dict, out: dict, base_table, conjugator: int) -> str | None:
    """The full witness must reproduce the tower derivation; the restricted one must not exist."""
    base = Table(base_table)
    h, level = base.n, doc["n"]
    order = h**level
    if out["order"] != order or out["delta_valid"] is not True:
        return "wrong tower order"
    if out.get("restricted_support_feasible") is not False:
        return "a witness supported in the embedded H^(n-1) was reported"
    if out["witness_full"] is None:
        return "no full witness"
    rows = base.rows
    center = {z for z in range(h) if all(rows[z][g] == rows[g][z] for g in range(h))}
    x = min(g for g in range(h) if g not in center)
    weights = [h ** (level - 1 - f) for f in range(level)]
    digits = [[g // w % h for w in weights] for g in range(order)]

    def mul(a: int, b: int) -> int:
        return sum(rows[da][db] * w for da, db, w in zip(digits[a], digits[b], weights))

    c, c_inv = conjugator, base.inv[conjugator]
    sigma = [sum(rows[rows[c_inv][d]][c] * w for d, w in zip(digits[g], weights)) for g in range(order)]
    # The tower derivation is d_X with X the sum of x embedded in each factor,
    # and d_w = d_X iff y = w - X satisfies y g = sigma(g) y for every g.
    y = {k: _scalar(v) for k, v in enumerate(out["witness_full"]["coeffs"]) if _scalar(v)}
    for w in weights:
        y[x * w] = y.get(x * w, 0) - 1
    y = {k: v for k, v in y.items() if v}
    for g in range(order):
        if {mul(k, g): v for k, v in y.items()} != {mul(sigma[g], k): v for k, v in y.items()}:
            return "witness does not reproduce the tower derivation"
    return None
