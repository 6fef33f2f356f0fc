"""Command-line surface: ingestion, orchestration, report emission.

Exit codes: 0 success, 2 validation error, 3 unsupported input,
4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import betti, cells, covering, existence, fixedpoints, kronecker
from .core import Quiver, is_coprime
from .covering import WeightAssignment, generic_rank1_weights
from .errors import InconsistencyError, UnsupportedError, ValidationError


@dataclass
class RunConfig:
    quiver: Quiver
    dim: tuple[int, ...]
    theta: tuple[int, ...]
    weights: WeightAssignment
    use_filter: bool = True
    field_size: int = 2
    budget: int = existence.DEFAULT_BUDGET
    seed: int = 0
    fmt: str = "text"
    raw: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _load_config(args) -> RunConfig:
    qdoc = json.loads(Path(args.quiver).read_text())
    quiver = Quiver.from_dict(qdoc)
    dim = _int_list(args.dim, "--dim")
    theta = _int_list(args.theta, "--theta")
    if args.weights and args.generic:
        raise ValidationError("--weights and --generic are mutually exclusive")
    if args.weights:
        w = WeightAssignment.from_json(Path(args.weights).read_text())
        unknown = sorted(set(w.weights) - {a.name for a in quiver.arrows})
        if unknown:
            raise ValidationError(f"weights for arrows the quiver does not have: {unknown}")
    else:
        w = generic_rank1_weights(quiver)
    raw = {
        "quiver": quiver.to_dict(),
        "dim": list(dim),
        "theta": list(theta),
        "weights": w.to_dict(),
        "filter": args.filter,
        "field": args.field,
        "budget": args.budget,
        "seed": args.seed,
    }
    return RunConfig(quiver, dim, theta, w, args.filter == "on",
                     args.field, args.budget, args.seed, args.format, raw)


def _require_coprime(cfg: RunConfig):
    if not is_coprime(cfg.quiver, cfg.dim, cfg.theta):
        raise UnsupportedError(
            "dimension vector is not theta-coprime; only the coprime regime is supported"
        )


def _components(cfg: RunConfig):
    classes = covering.enumerate_compatible(
        cfg.quiver, cfg.weights, cfg.dim, cfg.theta, use_existence_filter=cfg.use_filter
    )
    return [fixedpoints.analyze_component(cfg.quiver, cfg.weights, beta) for beta in classes]


def _beta_label(beta) -> str:
    return " ".join(f"{v}@{','.join(map(str, chi))}:{m}" for (v, chi), m in beta.entries)


def _emit(cfg: RunConfig, payload: dict, text_lines: list[str]) -> None:
    payload = {"config_hash": cfg.digest(), **payload}
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
        print(f"[config {cfg.digest()}]")


def cmd_fixed_points(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    from .core import euler_form

    classes = covering.enumerate_compatible(
        cfg.quiver, cfg.weights, cfg.dim, cfg.theta, use_existence_filter=cfg.use_filter
    )
    total = 1 - euler_form(cfg.quiver, cfg.dim, cfg.dim)
    rows = []
    comps = []
    for beta in classes:
        try:
            comps.append(fixedpoints.analyze_component(cfg.quiver, cfg.weights, beta))
        except InconsistencyError as exc:
            if cfg.use_filter:
                raise
            # without the existence filter, candidate classes with no stable
            # lift are expected; report them instead of failing
            comps.append(None)
            rows.append({"beta": beta.to_jsonable(), "invalid": str(exc)})
            continue
        c = comps[-1]
        rows.append({
            "beta": c.beta.to_jsonable(),
            "dim_component": c.dim_component,
            "att_plus": c.att_plus,
            "att_minus": c.att_minus,
            "isolated": c.isolated,
            "weights": {str(chi): m for chi, m in sorted(c.weight_table.items())},
        })
    balance_ok = all(c.att_plus + c.att_minus + c.dim_component == total
                     for c in comps if c is not None)
    if cfg.fmt == "csv":
        lines = ["beta,dim_component,att_plus,att_minus,isolated"]
        for beta, c in zip(classes, comps):
            if c is None:
                lines.append(f"\"{_beta_label(beta)}\",invalid,,,")
            else:
                lines.append(f"\"{_beta_label(c.beta)}\",{c.dim_component},"
                             f"{c.att_plus},{c.att_minus},{c.isolated}")
    else:
        lines = [f"{len(classes)} fixed-point classes"]
        for beta, c in zip(classes, comps):
            if c is None:
                lines.append(f"  [{_beta_label(beta)}]  no stable lift")
            else:
                lines.append(
                    f"  [{_beta_label(c.beta)}]  dim={c.dim_component}  "
                    f"att+={c.att_plus}  att-={c.att_minus}  isolated={c.isolated}"
                )
        lines.append(f"balance invariant: {'ok' if balance_ok else 'FAILED'}")
    _emit(cfg, {"components": rows, "count": len(classes),
                "checks": {"balance": balance_ok, "total_tangent_dim": total}}, lines)
    return 0


def cmd_attractors(cfg: RunConfig) -> int:
    return cmd_fixed_points(cfg)


def cmd_poincare(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    comps = _components(cfg)
    pairs = [(c, betti.component_poincare(cfg.quiver, cfg.weights, cfg.theta, c,
                                          budget=cfg.budget)) for c in comps]
    poly = betti.assemble_poincare(pairs)
    from .core import euler_form

    dim = 1 - euler_form(cfg.quiver, cfg.dim, cfg.dim)
    checks = {
        "duality": poly.is_palindromic(dim),
        "euler_characteristic": poly.evaluate(1),
        "dimension": dim,
    }
    lines = [f"P(t) = {poly.text()}", f"dimension {dim}, duality {'ok' if checks['duality'] else 'FAILED'}"]
    if cfg.fmt == "latex":
        lines = [poly.latex()]
    _emit(cfg, {"poincare": poly.as_dict(), "text": poly.text(), "checks": checks}, lines)
    return 0


def cmd_cells(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    comps = _components(cfg)
    out = []
    lines = []
    charts_match = True
    for c in comps:
        try:
            rep = cells.build_fixed_rep(cfg.quiver, cfg.weights, c.beta, "unit", seed=cfg.seed)
        except UnsupportedError:
            rep = cells.build_fixed_rep(cfg.quiver, cfg.weights, c.beta, "random", seed=cfg.seed)
        chart = cells.choose_complements(rep)
        charts_match = charts_match and chart.total_dim == c.att_plus
        table = cells.emit_cell_table(chart)
        out.append({"beta": c.beta.to_jsonable(), **table.to_jsonable()})
        lines.append(f"component [{_beta_label(c.beta)}]: cell dimension {chart.total_dim}")
        if cfg.fmt == "latex":
            lines.append(table.latex())
        else:
            lines.append(table.text())
    lines.append(f"chart dimensions match attractors: {'ok' if charts_match else 'FAILED'}")
    _emit(cfg, {"cells": out, "checks": {"charts_match_attractors": charts_match}}, lines)
    return 0


def cmd_normal_form(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    comps = _components(cfg)
    hits = [c for c in comps
            if fixedpoints.generic_normal_form_test(cfg.quiver, cfg.weights, c.beta)]
    lines = [f"{len(hits)} generic-normal-form class(es)"]
    out = []
    for c in hits:
        try:
            rep = cells.build_fixed_rep(cfg.quiver, cfg.weights, c.beta, "unit", seed=cfg.seed)
        except UnsupportedError:
            rep = cells.build_fixed_rep(cfg.quiver, cfg.weights, c.beta, "random", seed=cfg.seed)
        chart = cells.choose_complements(rep)
        table = cells.emit_cell_table(chart)
        out.append({"beta": c.beta.to_jsonable(), **table.to_jsonable()})
        lines.append(f"open cell of dimension {chart.total_dim} at [{_beta_label(c.beta)}]")
        lines.append(table.text() if cfg.fmt != "latex" else table.latex())
    _emit(cfg, {"normal_forms": out}, lines)
    return 0


def cmd_count(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    n = existence.brute_force_stable_count(cfg.quiver, cfg.dim, cfg.theta, cfg.field_size,
                                           budget=cfg.budget)
    _emit(cfg, {"q": cfg.field_size, "count": n}, [f"|M(F_{cfg.field_size})| = {n}"])
    return 0


def cmd_kronecker(args) -> int:
    l, r = args.l, args.r
    poly = kronecker.kronecker_poincare(l, r)
    labels1 = kronecker.enumerate_type1(l, r)
    labels2 = kronecker.enumerate_type2(l, r)
    rows = [{"label": lab.display(), "kind": 1,
             "att_plus": kronecker.d1_attractor(lab, "plus"),
             "att_minus": kronecker.d1_attractor(lab, "minus")} for lab in labels1]
    rows += [{"label": lab.display(), "kind": 2, "x": lab.x,
              "att_plus": kronecker.d2_attractor(lab)} for lab in labels2]
    payload = {"l": l, "r": r, "poincare": poly.as_dict(), "text": poly.text(),
               "labels": rows}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("label,kind,att_plus,att_minus")
        for row in rows:
            print(f"{row['label']},{row['kind']},{row['att_plus']},{row.get('att_minus', '')}")
        print(f"# P(t) = {poly.text()}")
    elif args.format == "latex":
        print(poly.latex())
    else:
        for row in rows:
            minus = f"  att-={row['att_minus']}" if "att_minus" in row else ""
            print(f"  {row['label']}  kind={row['kind']}  att+={row['att_plus']}{minus}")
        print(f"P(t) = {poly.text()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bbquiver",
                                     description="Torus-fixed-point data for quiver moduli")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--quiver", required=True, help="quiver description JSON file")
        p.add_argument("--dim", required=True, help="dimension vector, comma separated")
        p.add_argument("--theta", required=True, help="stability weights, comma separated")
        p.add_argument("--weights", help="weight assignment JSON file")
        p.add_argument("--generic", action="store_true",
                       help="use generic rank-1 weights (default when --weights is absent)")
        p.add_argument("--filter", choices=("on", "off"), default="on")
        p.add_argument("--field", type=int, default=2)
        p.add_argument("--budget", type=int, default=existence.DEFAULT_BUDGET)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json", "latex", "csv"), default="text")

    for name in ("fixed-points", "poincare", "attractors", "cells", "normal-form", "count"):
        add_common(sub.add_parser(name))

    kp = sub.add_parser("kronecker")
    kp.add_argument("--l", type=int, required=True)
    kp.add_argument("--r", type=int, required=True)
    kp.add_argument("--format", choices=("text", "json", "latex", "csv"), default="text")
    return parser


HANDLERS = {
    "fixed-points": cmd_fixed_points,
    "poincare": cmd_poincare,
    "attractors": cmd_attractors,
    "cells": cmd_cells,
    "normal-form": cmd_normal_form,
    "count": cmd_count,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "kronecker":
            return cmd_kronecker(args)
        cfg = _load_config(args)
        return HANDLERS[args.command](cfg)
    except ValidationError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 2
    except UnsupportedError as exc:
        print(json.dumps({"error": "unsupported", "message": str(exc)}), file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(json.dumps({"error": "inconsistency", "message": str(exc)}), file=sys.stderr)
        return 4
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
