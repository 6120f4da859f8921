"""Batch CLI: every subcommand wraps one library operation and emits JSON.

Exit codes: 0 success, 1 operational failure (parse errors, guard
violations), 2 negative mathematical verdict (not an isometry, refuted
decomposition, ...), so scripts can branch on the outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from . import funspace, linmap, macwilliams, quotient, selftest
from .decompose import Refutation, decompose, monomial_form, verify
from .errors import FieldMismatch, HamisoError, LengthMismatch, NotMonomial
from .serialize import load_code, load_map, rational_str

SCHEMA_VERSION = "1"


@dataclass
class RunConfig:
    max_enum: int = funspace.DEFAULT_MAX_ENUM
    max_ring: int = funspace.DEFAULT_MAX_RING
    max_search: int = macwilliams.DEFAULT_MAX_SEARCH
    seed: int | None = None
    diagnostic: bool = False


def _emit(report: dict, config: RunConfig, output, command: str) -> None:
    report = dict(report)
    report["schema_version"] = SCHEMA_VERSION
    report["command"] = command
    report["config"] = {k: v for k, v in asdict(config).items()}
    text = json.dumps(report, sort_keys=True, separators=(", ", ": ")) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _parse_coeffs(text: str, C) -> tuple:
    """A coefficient vector of code C: exactly C.k entries, each in [0, q)."""
    try:
        u = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise HamisoError(f"coefficients must be comma-separated ints: {text!r}") from None
    if len(u) != C.k:
        raise LengthMismatch(f"{len(u)} coefficients given, the code has dimension {C.k}")
    if any(not 0 <= c < C.field.q for c in u):
        raise FieldMismatch(f"coefficients must be field elements in [0, {C.field.q}): {text!r}")
    return u


def _labels(space, mask: int) -> list:
    return [space.labels[i] for i in range(space.n) if mask >> i & 1]


def cmd_weight(args, cfg):
    C = load_code(args.code)
    u = _parse_coeffs(args.coeffs, C)
    return {"weight": rational_str(C.weight(u))}, 0


def cmd_distance(args, cfg):
    C = load_code(args.code)
    u = _parse_coeffs(args.coeffs1, C)
    v = _parse_coeffs(args.coeffs2, C)
    return {"distance": rational_str(C.distance(u, v))}, 0


def cmd_quotient(args, cfg):
    C = load_code(args.code)
    Q = quotient.build_quotient(C)
    classes = [[C.space.labels[i] for i in cls] for cls in Q.classes]
    lam = {
        str(C.space.labels[i]): Q.lambda_to_rep[i]
        for i in range(C.n)
        if i != Q.rep(Q.class_of[i])
    }
    return {"classes": classes, "lambda": lam}, 0


def cmd_ring(args, cfg):
    C = load_code(args.code)
    ring = funspace.coz_ring(C, cfg.max_enum, cfg.max_ring)
    return {"members": [_labels(C.space, m) for m in ring.masks]}, 0


def cmd_controllable(args, cfg):
    C = load_code(args.code)
    ok, witness = funspace.is_controllable(C, cfg.max_enum, cfg.max_ring)
    report = {"controllable": ok, "witness": None}
    if not ok:
        f, d1, d2 = witness
        report["witness"] = {
            "coeffs": list(f),
            "d1": _labels(C.space, d1.mask),
            "d2": _labels(C.space, d2.mask),
        }
    return report, 0 if ok else 2


def _enum_mode(H, cfg):
    """Exact enumeration by default; seeded sampling once it would not fit."""
    if H.domain.num_codewords() > cfg.max_enum and cfg.seed is not None:
        return {"sample": cfg.max_enum, "seed": cfg.seed}, "probabilistic"
    return {"max_enum": cfg.max_enum}, "exact"


def cmd_isometry(args, cfg):
    H = load_map(args.map)
    bij = H.is_bijective()
    kwargs, mode = _enum_mode(H, cfg)
    ok, witness = linmap.is_isometry(H, **kwargs)
    report = {
        "isometry": ok,
        "bijective": bij,
        "mode": mode,
        "witness": list(witness) if witness is not None else None,
    }
    return report, 0 if ok else 2


def cmd_separating(args, cfg):
    H = load_map(args.map)
    kwargs, mode = _enum_mode(H, cfg)
    ok, witness = linmap.is_separating(H, **kwargs)
    report = {
        "separating": ok,
        "mode": mode,
        "witness": [list(witness[0]), list(witness[1])] if witness else None,
    }
    return report, 0 if ok else 2


def _decompose_report(H, cfg):
    out = decompose(H)
    if isinstance(out, Refutation):
        return {
            "status": "refuted",
            "h": None,
            "omega": None,
            "classes_X": None,
            "classes_Y": None,
            "monomial": None,
            "witness": {
                "point": H.codomain.space.labels[out.witness_y],
                "functional": list(out.functional),
            },
        }, out
    xs = H.domain.space
    ys = H.codomain.space
    report = {
        "status": "composition",
        "h": {str(ys.labels[iy]): xs.labels[out.rep[out.h[iy]]] for iy in range(H.codomain.n)},
        "omega": {str(ys.labels[iy]): out.omega[iy] for iy in range(H.codomain.n)},
        "classes_X": [[xs.labels[i] for i in cls] for cls in out.quotient_x.classes],
        "classes_Y": [[ys.labels[i] for i in cls] for cls in out.quotient_y.classes],
        "witness": None,
    }
    try:
        sigma, w = monomial_form(out, H)
        report["monomial"] = {"sigma": [i + 1 for i in sigma], "w": list(w)}
    except NotMonomial:
        report["monomial"] = None
    return report, out


def cmd_decompose(args, cfg):
    H = load_map(args.map)
    report, _ = _decompose_report(H, cfg)
    return report, 0 if report["status"] == "composition" else 2


def cmd_verify(args, cfg):
    H = load_map(args.map)
    out = decompose(H)
    if isinstance(out, Refutation):
        return {"verified": False, "status": "refuted"}, 2
    ok = verify(out, H, max_enum=cfg.max_enum)
    return {"verified": ok, "status": "composition"}, 0 if ok else 2


def cmd_monomial_form(args, cfg):
    H = load_map(args.map)
    out = decompose(H)
    if isinstance(out, Refutation):
        return {"monomial": None, "obstruction": "refuted decomposition"}, 2
    try:
        sigma, w = monomial_form(out, H)
    except NotMonomial as exc:
        return {"monomial": None, "obstruction": str(exc)}, 2
    return {"monomial": {"sigma": [i + 1 for i in sigma], "w": list(w)}, "obstruction": None}, 0


def cmd_macwilliams(args, cfg):
    C1 = load_code(args.c1)
    C2 = load_code(args.c2)
    result = macwilliams.equivalence_decide(C1, C2, cfg.max_search, cfg.max_enum)
    mono = result["monomial"]
    isom = result["isometry"]
    report = {
        "equivalent": result["equivalent"],
        "monomial": (
            {"sigma": [i + 1 for i in mono.sigma], "w": list(mono.w)} if mono else None
        ),
        "isometry_matrix": [list(r) for r in isom.matrix] if isom else None,
        "decompose_roundtrip": result["decompose_roundtrip"],
    }
    return report, 0 if result["equivalent"] else 2


def cmd_selftest(args, cfg):
    report = selftest.run(diagnostic=cfg.diagnostic)
    ok = all(v == "pass" for v in report["checks"].values())
    return report, 0 if ok else 2


COMMANDS = {
    "weight": cmd_weight,
    "distance": cmd_distance,
    "quotient": cmd_quotient,
    "ring": cmd_ring,
    "controllable": cmd_controllable,
    "isometry": cmd_isometry,
    "separating": cmd_separating,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "monomial-form": cmd_monomial_form,
    "macwilliams": cmd_macwilliams,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamiso",
        description="Exact weighted-composition analysis of finite-field function spaces",
    )
    parser.add_argument("--max-enum", type=int, default=funspace.DEFAULT_MAX_ENUM)
    parser.add_argument("--max-ring", type=int, default=funspace.DEFAULT_MAX_RING)
    parser.add_argument("--max-search", type=int, default=macwilliams.DEFAULT_MAX_SEARCH)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--output", default=None, help="report path, stdout by default")
    parser.add_argument("--diagnostic", action="store_true", help="enable slow-path oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    def code_cmd(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--code", required=True)
        return p

    def map_cmd(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--map", required=True)
        return p

    p = code_cmd("weight", "measured Hamming weight of one codeword")
    p.add_argument("--coeffs", required=True)
    p = code_cmd("distance", "Hamming distance between two codewords")
    p.add_argument("--coeffs1", required=True)
    p.add_argument("--coeffs2", required=True)
    code_cmd("quotient", "point classes and their connecting scalars")
    code_cmd("ring", "closure of the cozero sets under union/intersection")
    code_cmd("controllable", "exhaustive controllability test")
    map_cmd("isometry", "bijective + weight-preserving check")
    map_cmd("separating", "disjointness-preservation check")
    map_cmd("decompose", "weighted-composition extraction")
    map_cmd("verify", "decompose and re-verify on all codewords")
    map_cmd("monomial-form", "classical permutation/scaling form")
    p = sub.add_parser("macwilliams", help="monomial and isometry equivalence of two codes")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        max_enum=args.max_enum,
        max_ring=args.max_ring,
        max_search=args.max_search,
        seed=args.seed,
        diagnostic=args.diagnostic,
    )
    try:
        report, code = COMMANDS[args.command](args, cfg)
    except HamisoError as exc:
        _emit(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            cfg,
            args.output,
            args.command,
        )
        return 1
    _emit(report, cfg, args.output, args.command)
    return code


if __name__ == "__main__":
    sys.exit(main())
