"""Command-line surface: ingestion, orchestration, report emission.

Exit codes: 0 success, 2 validation error, 3 unsupported input,
4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import betti, cells, covering, fixedpoints, hn, kronecker
from .core import Quiver, is_coprime
from .covering import WeightAssignment, generic_rank1_weights
from .errors import BudgetExceededError, InconsistencyError, UnsupportedError, ValidationError

DEFAULT_BUDGET = 2**24  # cap on the points of R(Q, d)(F_q) for `count`; part of the config hash


@dataclass
class RunConfig:
    quiver: Quiver
    dim: tuple[int, ...]
    theta: tuple[int, ...]
    weights: WeightAssignment
    use_filter: bool = True
    field_size: int = 2
    budget: int = DEFAULT_BUDGET
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
    if not cfg.use_filter:
        # classes without a stable lift have no tangent data to analyze
        raise UnsupportedError("--filter off is supported by fixed-points only")
    classes = covering.enumerate_compatible(
        cfg.quiver, cfg.weights, cfg.dim, cfg.theta, use_existence_filter=cfg.use_filter
    )
    return [fixedpoints.analyze_component(cfg.quiver, cfg.weights, beta) for beta in classes]


def _beta_label(beta) -> str:
    return " ".join(f"{v}@{','.join(map(str, chi))}:{m}" for (v, chi), m in beta.entries)


def _json_key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(json.dumps(key))  # json's own spelling: true, null, NaN, 1.5
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(obj, head: str, tail: str, indent: str, out: list) -> None:
    """Append `head + obj + tail` to `out` in the layout of `_json_text`.

    Separators, indentation, keys and closing brackets are folded into the
    text of the scalars, so every scalar is one chunk.
    """
    if type(obj) is str:
        out.append(head + _quote(obj) + tail)
    elif type(obj) is int:
        out.append(head + int.__repr__(obj) + tail)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append(head + "[]" + tail)
            return
        inner = indent + "  "
        head += "[" + inner
        for item in obj[:-1]:
            _write_json(item, head, "", inner, out)
            head = "," + inner
        _write_json(obj[-1], head, indent + "]" + tail, inner, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append(head + "{}" + tail)
            return
        inner = indent + "  "
        head += "{" + inner
        items = sorted(obj.items())
        for key, value in items[:-1]:
            _write_json(value, head + _json_key(key) + ": ", "", inner, out)
            head = "," + inner
        key, value = items[-1]
        _write_json(value, head + _json_key(key) + ": ", indent + "}" + tail, inner, out)
    else:  # bool, None, floats and anything json refuses with its own TypeError
        out.append(head + json.dumps(obj) + tail)


def _json_text(obj) -> str:
    """The stdlib JSON text of `obj` with sorted keys and an indent of 2, byte for byte.

    json's C encoder ignores `indent`, so the stdlib takes its pure-Python
    generator chain, which passes every chunk through one frame per nesting
    level; this writer appends to one list instead.
    """
    out: list = []
    _write_json(obj, "", "", "\n", out)
    return "".join(out)


def _emit(cfg: RunConfig, payload: dict, text_lines: list[str]) -> None:
    payload = {"config_hash": cfg.digest(), **payload}
    if cfg.fmt == "json":
        print(_json_text(payload))
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
    for c in comps:
        if c is not None and c.att_plus + c.att_minus + c.dim_component != total:
            raise InconsistencyError(
                f"balance fails at [{_beta_label(c.beta)}]: att+ + att- + dim = "
                f"{c.att_plus + c.att_minus + c.dim_component}, expected {total}"
            )
    lines = []  # report lines are built only for the formats that print them
    if cfg.fmt == "csv":
        lines = ["beta,dim_component,att_plus,att_minus,isolated"]
        for beta, c in zip(classes, comps):
            if c is None:
                lines.append(f"\"{_beta_label(beta)}\",invalid,,,")
            else:
                lines.append(f"\"{_beta_label(c.beta)}\",{c.dim_component},"
                             f"{c.att_plus},{c.att_minus},{c.isolated}")
    elif cfg.fmt != "json":
        lines = [f"{len(classes)} fixed-point classes"]
        for beta, c in zip(classes, comps):
            if c is None:
                lines.append(f"  [{_beta_label(beta)}]  no stable lift")
            else:
                lines.append(
                    f"  [{_beta_label(c.beta)}]  dim={c.dim_component}  "
                    f"att+={c.att_plus}  att-={c.att_minus}  isolated={c.isolated}"
                )
        lines.append("balance invariant: ok")
    _emit(cfg, {"components": rows, "count": len(classes),
                "checks": {"balance": True, "total_tangent_dim": total}}, lines)
    return 0


def cmd_poincare(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    comps = _components(cfg)
    poly = betti.assemble_poincare(
        (c, betti.component_poincare(cfg.quiver, cfg.weights, cfg.theta, c)) for c in comps)
    from .core import euler_form

    # a nonempty projective variety with a torus action has a fixed point
    dim = 1 - euler_form(cfg.quiver, cfg.dim, cfg.dim) if comps else None
    if comps and not poly.is_palindromic(dim):
        raise InconsistencyError(f"P(t) = {poly.text()} breaks Poincare duality in dimension {dim}")
    checks = {
        "duality": True,
        "euler_characteristic": poly.evaluate(1),
        "dimension": dim,
    }
    lines = [f"P(t) = {poly.text()}",
             f"dimension {dim}, duality ok" if comps else "the moduli space is empty"]
    if cfg.fmt == "latex":
        lines = [poly.latex()]
    _emit(cfg, {"poincare": poly.as_dict(), "text": poly.text(), "checks": checks}, lines)
    return 0


def _cell_table(cfg: RunConfig, beta):
    """Chart and cell table at the fixed point of class beta, on a 0/1 unit
    representative where one certifies, else on a random one."""
    try:
        rep = cells.build_fixed_rep(cfg.quiver, cfg.weights, beta, "unit", seed=cfg.seed)
    except UnsupportedError:
        rep = cells.build_fixed_rep(cfg.quiver, cfg.weights, beta, "random", seed=cfg.seed)
    chart = cells.choose_complements(rep)
    return chart, cells.emit_cell_table(chart)


def cmd_cells(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    comps = _components(cfg)
    out = []
    lines = []
    for c in comps:
        chart, table = _cell_table(cfg, c.beta)
        if chart.total_dim != c.att_plus:
            raise InconsistencyError(
                f"cell chart at [{_beta_label(c.beta)}] has dimension {chart.total_dim}, "
                f"attractor has {c.att_plus}"
            )
        out.append({"beta": c.beta.to_jsonable(), **table.to_jsonable()})
        if cfg.fmt != "json":
            lines.append(f"component [{_beta_label(c.beta)}]: cell dimension {chart.total_dim}")
            lines.append(table.latex() if cfg.fmt == "latex" else table.text())
    lines.append("chart dimensions match attractors: ok")
    _emit(cfg, {"cells": out, "checks": {"charts_match_attractors": True}}, lines)
    return 0


def cmd_normal_form(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    comps = _components(cfg)
    hits = [c for c in comps
            if fixedpoints.generic_normal_form_test(cfg.quiver, cfg.weights, c.beta)]
    lines = [f"{len(hits)} generic-normal-form class(es)"]
    out = []
    for c in hits:
        chart, table = _cell_table(cfg, c.beta)
        out.append({"beta": c.beta.to_jsonable(), **table.to_jsonable()})
        if cfg.fmt != "json":
            lines.append(f"open cell of dimension {chart.total_dim} at [{_beta_label(c.beta)}]")
            lines.append(table.text() if cfg.fmt != "latex" else table.latex())
    _emit(cfg, {"normal_forms": out}, lines)
    return 0


def _is_prime_power(q: int) -> bool:
    """q = p^k for a prime p and k >= 1, by trial division up to isqrt(q)."""
    if q < 2:
        return False
    p = next((p for p in range(2, math.isqrt(q) + 1) if q % p == 0), q)  # least prime factor
    while q % p == 0:
        q //= p
    return q == 1


def cmd_count(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    q = cfg.field_size
    if not _is_prime_power(q):
        raise ValidationError(f"--field must be a prime power, got {q}")
    idx = cfg.quiver.vertex_index
    size = q ** sum(cfg.dim[idx(a.source)] * cfg.dim[idx(a.target)] for a in cfg.quiver.arrows)
    if size > cfg.budget:
        raise BudgetExceededError(
            f"representation space has {size} points, budget is {cfg.budget}")
    n = hn.stable_counts(cfg.quiver, cfg.dim, cfg.theta, (q,))[0][1]
    _emit(cfg, {"q": q, "count": n}, [f"|M(F_{q})| = {n}"])
    return 0


def cmd_kronecker(args) -> int:
    l, r = args.l, args.r
    coeffs: dict = {}
    rows = [{"label": lab.display(), "kind": 1, "att_plus": plus, "att_minus": minus}
            if minus is not None else
            {"label": lab.display(), "kind": 2, "x": lab.x, "att_plus": plus}
            for lab, plus, minus in kronecker.attractor_rows(l, r, coeffs)]
    poly = betti.PoincarePolynomial.from_dict(coeffs)
    payload = {"l": l, "r": r, "poincare": poly.as_dict(), "text": poly.text(),
               "labels": rows}
    if args.format == "json":
        print(_json_text(payload))
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
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="cap on the points of R(Q, d)(F_q) for count")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json", "latex", "csv"), default="text")

    for name, handler in HANDLERS.items():
        p = sub.add_parser(name, aliases=["attractors"] if name == "fixed-points" else [])
        add_common(p)
        p.set_defaults(handler=handler)

    kp = sub.add_parser("kronecker")
    kp.add_argument("--l", type=int, required=True)
    kp.add_argument("--r", type=int, required=True)
    kp.add_argument("--format", choices=("text", "json", "latex", "csv"), default="text")
    return parser


HANDLERS = {
    "fixed-points": cmd_fixed_points,
    "poincare": cmd_poincare,
    "cells": cmd_cells,
    "normal-form": cmd_normal_form,
    "count": cmd_count,
}


def _attach_negative_vectors(argv: list[str]) -> list[str]:
    """`--theta -1,0` as `--theta=-1,0`: argparse takes "-1,0" for an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--dim", "--theta") and token[:1] == "-" and token[1:2].isdecimal():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_vectors(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "kronecker":
            code = cmd_kronecker(args)
        else:
            code = args.handler(_load_config(args))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`| head`); as the Python docs advise, point
        # stdout at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
