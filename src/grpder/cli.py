"""Command-line interface.

Subcommands: ``group``, ``h1``, ``inner-check``, ``gcd-criterion``,
``counterexample``, ``verify-paper``. All files are JSON; outputs are
byte-stable across runs. Exit codes: 0 success, 1 property or expectation
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .constructions import build_truncation, inner_witness_with_support
from .derivations import (
    derivation_from_images,
    derivation_space,
    gcd_criterion,
    inner_witness,
    inner_witness_integer,
)
from .errors import AlgebraError, NotADerivation
from .group_ring import identity_endo, is_central_endo
from .groups import center, conjugacy_classes, direct_product, standard_group
from .rings import ZZ, Ring, ring_from_token
from .serialization import (
    derivation_images_from_json,
    dumps_canonical,
    element_to_json,
    endo_from_json,
    group_from_json,
    group_to_json,
    ring_to_json_fields,
)
from .util import DEFAULT_SEED
from .verification import CRITERIA, run_criteria


class UsageFailure(Exception):
    """Input could not be parsed or validated; maps to exit code 2."""


class CheckFailure(Exception):
    """A property or expectation did not hold; maps to exit code 1."""


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageFailure(f"cannot write {path}: {exc}") from exc


def _emit(data: dict, out_path: str | None) -> None:
    text = dumps_canonical(data)
    if out_path:
        _write_text(out_path, text)
    sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise UsageFailure(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageFailure(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise UsageFailure(f"cannot read {path}: {exc}") from exc


def _load_group(path: str):
    try:
        return group_from_json(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageFailure(f"invalid group file {path}: {exc}") from exc


def _parse_ring(token: str) -> Ring:
    try:
        return ring_from_token(token)
    except ValueError as exc:
        raise UsageFailure(f"{exc}; use Z, Q or F<prime>") from exc


def _load_endo(spec: str, group, ring):
    if spec == "id":
        return identity_endo(group, ring)
    try:
        return endo_from_json(group, _load_json(spec), ring)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageFailure(f"invalid endomorphism file {spec}: {exc}") from exc


def _group_summary(group) -> dict:
    data = {"order": group.order}
    if group.name:
        data["name"] = group.name
    return data


# -- group ---------------------------------------------------------------


def cmd_group(args) -> int:
    if args.group_cmd == "make":
        _emit(group_to_json(standard_group(args.name)), args.output)
        return 0
    if args.group_cmd == "product":
        g1 = _load_group(args.left)
        g2 = _load_group(args.right)
        _emit(group_to_json(direct_product(g1, g2)), args.output)
        return 0
    if args.group_cmd == "info":
        group = _load_group(args.group_file)
        data = {
            "order": group.order,
            "abelian": group.is_abelian,
            "center": list(center(group).members),
            "center_size": len(center(group)),
            "classes": [list(c.members) for c in conjugacy_classes(group)],
            "class_count": len(conjugacy_classes(group)),
        }
        _emit(data, args.output)
        return 0
    raise UsageFailure("unknown group subcommand")


# -- h1 ------------------------------------------------------------------


def cmd_h1(args) -> int:
    group = _load_group(args.group)
    ring = _parse_ring(args.field)
    if not ring.is_field:
        raise UsageFailure("--field must be Q or F<prime>")
    sigma = _load_endo(args.sigma, group, ring)
    tau = _load_endo(args.tau, group, ring)
    space = derivation_space(sigma, tau)
    data = {
        "group": _group_summary(group),
        **ring_to_json_fields(ring),
        "derivation_dim": len(space.basis),
        "inner_dim": len(space.inner_basis),
        "h1": space.h1_dimension,
        "sigma_central": is_central_endo(sigma),
        "tau_central": is_central_endo(tau),
    }
    _emit(data, args.output)
    if args.expect_h1 is not None and space.h1_dimension != args.expect_h1:
        raise CheckFailure(
            f"h1 = {space.h1_dimension}, expected {args.expect_h1}"
        )
    return 0


# -- inner-check / gcd-criterion ------------------------------------------


def _load_delta(args, group, ring, sigma, tau):
    raw = _load_json(args.delta)
    try:
        images = derivation_images_from_json(group, raw, ring)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageFailure(f"invalid derivation file {args.delta}: {exc}") from exc
    try:
        return derivation_from_images(images, sigma, tau)
    except NotADerivation as exc:
        raise CheckFailure(str(exc)) from exc


def cmd_inner_check(args) -> int:
    group = _load_group(args.group)
    ring = _parse_ring(args.ring)
    sigma = _load_endo(args.sigma, group, ring)
    tau = _load_endo(args.tau, group, ring)
    delta = _load_delta(args, group, ring, sigma, tau)
    data = {"group": _group_summary(group), **ring_to_json_fields(ring)}
    if ring == ZZ:
        witness = inner_witness_integer(delta, sigma, tau)
        by_gcd = gcd_criterion(delta, sigma, tau)
        data.update(
            {
                "witness": element_to_json(witness) if witness is not None else None,
                "inner": witness is not None,
                "gcd_criterion": by_gcd,
                "agreement": by_gcd == (witness is not None),
            }
        )
    else:
        witness = inner_witness(delta, sigma, tau)
        data.update(
            {
                "witness": element_to_json(witness) if witness is not None else None,
                "inner": witness is not None,
            }
        )
    _emit(data, args.output)
    return 0


def cmd_gcd_criterion(args) -> int:
    group = _load_group(args.group)
    ring = ZZ
    sigma = _load_endo(args.sigma, group, ring)
    tau = _load_endo(args.tau, group, ring)
    delta = _load_delta(args, group, ring, sigma, tau)
    data = {
        "group": _group_summary(group),
        **ring_to_json_fields(ring),
        "gcd_criterion": gcd_criterion(delta, sigma, tau),
    }
    _emit(data, args.output)
    return 0


# -- counterexample ---------------------------------------------------------


def cmd_counterexample(args) -> int:
    base = standard_group(args.base)
    if args.sigma_by is not None:
        try:
            conjugator = base.index_of_label(args.sigma_by)
        except ValueError as exc:
            raise UsageFailure(str(exc)) from exc
    else:
        # An abelian base has no non-central element; build_truncation rejects it.
        central = center(base).members
        conjugator = next((i for i in range(base.order) if i not in central), 0)
    conj_map = [base.conjugate(conjugator, h) for h in range(base.order)]
    bundle = build_truncation(base, conj_map, args.n)
    witness = inner_witness(bundle.delta, bundle.sigma, bundle.tau)
    data = {
        "base": args.base,
        "n": args.n,
        "sigma_by": base.label(conjugator),
        "order": bundle.group.order,
        "delta_valid": True,
        "witness_full": element_to_json(witness) if witness is not None else None,
    }
    if args.n >= 2:
        support = bundle.embedded_indices(args.n - 1)
        restricted = inner_witness_with_support(
            bundle.delta, bundle.sigma, bundle.tau, support
        )
        data["restricted_support_feasible"] = restricted is not None
    _emit(data, args.output)
    return 0


# -- verify-paper -----------------------------------------------------------


def cmd_verify_paper(args) -> int:
    ids = None
    if args.criteria:
        ids = [part.strip() for part in args.criteria.split(",") if part.strip()]
        unknown = [cid for cid in ids if cid not in CRITERIA]
        if unknown:
            raise UsageFailure(f"unknown criteria: {', '.join(unknown)}")
    report = run_criteria(ids, seed=args.seed)
    sys.stdout.write(report.table() + "\n")
    if args.json:
        _write_text(args.json, dumps_canonical(report.to_json()))
    if not report.all_passed:
        raise CheckFailure(f"{report.failed} verification case(s) failed")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpder",
        description="Exact twisted-derivation computations for group rings of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="construct and inspect groups")
    group_sub = p_group.add_subparsers(dest="group_cmd", required=True)
    p_make = group_sub.add_parser("make", help="write a standard group as JSON")
    p_make.add_argument("--name", required=True, help="C<n>, S3, D4, Q8, A4 or C2xC2")
    p_make.add_argument("-o", "--output")
    p_make.set_defaults(func=cmd_group)
    p_prod = group_sub.add_parser("product", help="direct product of two group files")
    p_prod.add_argument("left")
    p_prod.add_argument("right")
    p_prod.add_argument("-o", "--output")
    p_prod.set_defaults(func=cmd_group)
    p_info = group_sub.add_parser("info", help="order, center and conjugacy classes")
    p_info.add_argument("group_file")
    p_info.add_argument("-o", "--output")
    p_info.set_defaults(func=cmd_group)

    p_h1 = sub.add_parser("h1", help="derivation space dimensions and h1")
    p_h1.add_argument("--group", required=True)
    p_h1.add_argument("--sigma", default="id", help="'id' or an endomorphism JSON file")
    p_h1.add_argument("--tau", default="id", help="'id' or an endomorphism JSON file")
    p_h1.add_argument("--field", required=True, help="Q or F<prime>")
    p_h1.add_argument("--expect-h1", type=int, default=None)
    p_h1.add_argument("-o", "--output")
    p_h1.set_defaults(func=cmd_h1)

    p_inner = sub.add_parser("inner-check", help="decide innerness of a derivation")
    p_inner.add_argument("--group", required=True)
    p_inner.add_argument("--sigma", default="id")
    p_inner.add_argument("--tau", default="id")
    p_inner.add_argument("--delta", required=True, help="derivation JSON file")
    p_inner.add_argument("--ring", required=True, help="Z, Q or F<prime>")
    p_inner.add_argument("-o", "--output")
    p_inner.set_defaults(func=cmd_inner_check)

    p_gcd = sub.add_parser("gcd-criterion", help="divisibility test for integral innerness")
    p_gcd.add_argument("--group", required=True)
    p_gcd.add_argument("--sigma", default="id")
    p_gcd.add_argument("--tau", default="id")
    p_gcd.add_argument("--delta", required=True)
    p_gcd.add_argument("-o", "--output")
    p_gcd.set_defaults(func=cmd_gcd_criterion)

    p_cex = sub.add_parser("counterexample", help="product-tower truncation report")
    p_cex.add_argument("--base", required=True, help="a non-abelian standard group: S3, D4, Q8 or A4")
    p_cex.add_argument("--n", required=True, type=int)
    p_cex.add_argument("--sigma-by", default=None, help="conjugator element label")
    p_cex.add_argument("-o", "--output")
    p_cex.set_defaults(func=cmd_counterexample)

    p_verify = sub.add_parser("verify-paper", help="run the bundled verification suite")
    p_verify.add_argument("--json", default=None, help="write the report as JSON")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument(
        "--criteria",
        default=None,
        help="comma-separated criterion ids (default: all)",
    )
    p_verify.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
