"""Command-line surface: ingestion, orchestration, report emission.

Exit codes: 0 success, 2 validation error, 3 unsupported input,
4 internal inconsistency.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import betti, cells, covering, fixedpoints, hn, kronecker
from .core import Quiver, euler_form, is_coprime
from .covering import WeightAssignment, generic_rank1_weights
from .errors import InconsistencyError, UnsupportedError, ValidationError


class RunConfig:
    """One query's inputs: `weights` maps each arrow name to its rank-1 weight
    (None for a command that takes none), `codec` decodes characters for the
    report, and `inputs` is every input the command reads, as the hash covers it."""

    __slots__ = ("quiver", "dim", "theta", "weights", "codec", "fmt", "inputs")

    def __init__(self, quiver: Quiver, dim: tuple[int, ...], theta: tuple[int, ...],
                 weights: dict | None, codec: covering.CharCodec | None, fmt: str,
                 inputs: dict):
        self.quiver, self.dim, self.theta, self.fmt = quiver, dim, theta, fmt
        self.weights, self.codec, self.inputs = weights, codec, inputs

    def digest(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _read_json(path: str):
    """The JSON document in the file at `path`, decoded as UTF-8 (RFC 8259, section 8.1)."""
    data = Path(path).read_bytes()
    try:  # only the parse: a RecursionError anywhere else is a bug and must show
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path} is not UTF-8 JSON: {exc}") from None


def _load_config(args: dict) -> RunConfig:
    quiver = Quiver.from_dict(_read_json(args["quiver"]))
    dim = _int_list(args["dim"], "--dim")
    theta = _int_list(args["theta"], "--theta")
    inputs = {"quiver": quiver.to_dict(), "dim": list(dim), "theta": list(theta)}
    w = codec = None
    if "weights" in args:
        if args["weights"]:
            w = WeightAssignment.from_dict(_read_json(args["weights"]))
            names = [a.name for a in quiver.arrows]
            unknown = sorted(set(w.weights) - set(names))
            if unknown:
                raise ValidationError(f"weights for arrows the quiver does not have: {unknown}")
            missing = [name for name in names if name not in w.weights]
            if missing:  # every kernel reads a weight for every arrow
                raise ValidationError(f"no weight assigned to arrow {missing[0]!r}")
        else:
            w = WeightAssignment(1, generic_rank1_weights(quiver))
        inputs["weights"] = w.to_dict()
        w, codec = covering.reduce_to_rank_one(w, dim)
    inputs.update((key, args[key]) for key in ("filter", "field", "seed") if key in args)
    return RunConfig(quiver, dim, theta, w, codec, args["format"], inputs)


def _require_coprime(cfg: RunConfig):
    if not is_coprime(cfg.quiver, cfg.dim, cfg.theta):
        raise UnsupportedError(
            "dimension vector is not theta-coprime; only the coprime regime is supported"
        )


def _components(cfg: RunConfig, rejected: list | None = None):
    """The analysed fixed-point classes, in class order, one at a time: each
    component (weight table included) is built as it is read, so one the
    caller does not keep is freed before the next is built.  The classes are
    enumerated before this returns, so `rejected` is complete by then."""
    classes = covering.enumerate_compatible(cfg.quiver, cfg.weights, cfg.dim, cfg.theta, rejected)
    return (fixedpoints.analyze_component(cfg.quiver, cfg.weights, beta) for beta in classes)


def _beta_label(beta, codec) -> str:
    return " ".join(f"{v}@{','.join(map(str, codec.decode(c)))}:{m}"
                    for (v, (c,)), m in beta.entries)


def _csv_field(text: str, always: bool = False) -> str:
    """`text` as one RFC 4180 field: quoted, with each inner quote doubled, when
    `always` or when it holds a comma, a quote or a line break."""
    if always or "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(json.dumps(key))  # json's own spelling: true, null, NaN, 1.5
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


class _Layout(str):
    """JSON text already laid out at its place in a report; written as it is."""


def _write_json(obj, head: str, tail: str, indent: str, out: list) -> None:
    """Append `head + obj + tail` to `out` in the layout of `_json_text`.

    Separators, indentation, keys and closing brackets are folded into the
    text of the scalars, so every scalar is one chunk.
    """
    if type(obj) is str:
        out.append(head + _quote(obj) + tail)
    elif type(obj) is _Layout:
        out.append(head + obj + tail)
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


def _json_text(obj, indent: str = "\n") -> str:
    """The stdlib JSON text of `obj` with sorted keys and an indent of 2, byte for byte,
    at the depth where a line breaks to `indent`.

    json's C encoder ignores `indent`, so the stdlib takes its pure-Python
    generator chain, which passes every chunk through one frame per nesting
    level; this writer appends to one list instead.
    """
    out: list = []
    _write_json(obj, "", "", indent, out)
    return "".join(out)


def _beta_json(beta, codec, memo: dict) -> _Layout:
    """`beta` laid out at its depth in a `fixed-points`, `cells` or `normal-form` row,
    its characters decoded; each distinct covering entry is laid out once per
    report and kept in `memo`."""
    for entry in beta.entries:
        if entry not in memo:
            (v, (c,)), m = entry
            memo[entry] = _json_text({"vertex": v, "char": list(codec.decode(c)), "dim": m},
                                     "\n        ")
    texts = ",\n        ".join([memo[entry] for entry in beta.entries])
    return _Layout(f"[\n        {texts}\n      ]")


def _patterns_json(grids: dict, memo: dict) -> dict:
    """A chart's star-pattern grids, each laid out at its depth in a `cells` or `normal-form`
    row; each distinct grid is laid out once per report and kept in `memo`."""
    out = {}
    for name, grid in grids.items():
        key = tuple(map(tuple, grid))
        text = memo.get(key)
        if text is None:
            text = memo[key] = _Layout(_json_text(key, "\n        "))
        out[name] = text
    return out


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
    rejected = [] if cfg.inputs["filter"] == "off" else None
    total = 1 - euler_form(cfg.quiver, cfg.dim, cfg.dim)
    codec = cfg.codec
    # one row per class, in the format that prints it; a rejected class has no stable lift
    if cfg.fmt == "json":  # only the JSON report reads the weights
        memo: dict = {}  # covering entry -> its JSON text, for this report
        row = lambda c: {
            "beta": _beta_json(c.beta, codec, memo),
            "dim_component": c.dim_component,
            "att_plus": c.att_plus,
            "att_minus": c.att_minus,
            "isolated": c.isolated,
            "weights": {str(codec.decode(chi)): m for chi, m in c.weight_table.items()},
        }
        rejected_row = lambda beta: {"beta": _beta_json(beta, codec, memo),
                                     "invalid": "no stable lift"}
    elif cfg.fmt == "csv":
        row = lambda c: (f"{_csv_field(_beta_label(c.beta, codec), True)},{c.dim_component},"
                         f"{c.att_plus},{c.att_minus},{c.isolated}")
        rejected_row = lambda beta: f"{_csv_field(_beta_label(beta, codec), True)},invalid,,,"
    else:
        row = lambda c: (f"  [{_beta_label(c.beta, codec)}]  dim={c.dim_component}  "
                         f"att+={c.att_plus}  att-={c.att_minus}  isolated={c.isolated}")
        rejected_row = lambda beta: f"  [{_beta_label(beta, codec)}]  no stable lift"
    keyed = []
    for c in _components(cfg, rejected):  # fills `rejected` before the first class
        if c.att_plus + c.att_minus + c.dim_component != total:
            raise InconsistencyError(
                f"balance fails at [{_beta_label(c.beta, codec)}]: att+ + att- + dim = "
                f"{c.att_plus + c.att_minus + c.dim_component}, expected {total}"
            )
        keyed.append((c.beta.entries, row(c)))
    keyed += [(beta.entries, rejected_row(beta)) for beta in rejected or ()]
    rows = [r for _, r in sorted(keyed, key=lambda pair: pair[0])]
    count = len(rows)
    lines = rows  # `_emit` prints the payload for JSON and the lines otherwise
    if cfg.fmt == "csv":
        lines = ["beta,dim_component,att_plus,att_minus,isolated", *rows]
    elif cfg.fmt != "json":
        lines = [f"{count} fixed-point classes", *rows, "balance invariant: ok"]
    _emit(cfg, {"components": rows, "count": count,
                "checks": {"balance": True, "total_tangent_dim": total}}, lines)
    return 0


def cmd_poincare(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    if not cfg.quiver.is_acyclic():
        # M^st is then not projective, so the BB sum is not its Poincare polynomial
        raise UnsupportedError("poincare needs an acyclic quiver")
    memo: dict = {}  # shape_key -> polynomial, for this query's components
    poly = betti.assemble_poincare(
        (c, betti.component_poincare(cfg.quiver, cfg.weights, cfg.theta, c, memo))
        for c in _components(cfg))
    total = 1 - euler_form(cfg.quiver, cfg.dim, cfg.dim)
    # a nonempty projective variety with a torus action has a fixed point, and each
    # fixed-point component adds a positive term, so P(t) = 0 exactly when it is empty
    dim = total if poly.coefficients else None
    if dim is not None and not poly.is_palindromic(dim):
        raise InconsistencyError(f"P(t) = {poly.text()} breaks Poincare duality in dimension {dim}")
    whole = betti.stable_poincare(cfg.quiver, cfg.dim, cfg.theta, total)
    if whole != poly:
        raise InconsistencyError(f"the fixed points give P(t) = {poly.text()}, "
                                 f"the HN count of the whole space {whole.text()}")
    checks = {
        "duality": True,
        "euler_characteristic": poly.evaluate(1),
        "dimension": dim,
    }
    lines = [f"P(t) = {poly.text()}",
             "the moduli space is empty" if dim is None else f"dimension {dim}, duality ok"]
    if cfg.fmt == "latex":
        lines = [poly.latex()]
    _emit(cfg, {"poincare": poly.as_dict(), "text": poly.text(), "checks": checks}, lines)
    return 0


def _chart_rows(cfg: RunConfig, comps, caption: str) -> tuple[list, list]:
    """The JSON rows, or the text lines headed by `caption`, of the charts at `comps`.

    Each chart is checked against its component's tangent weights: degree k > 0
    has dim T_k free coordinates, att+ in all."""
    out, lines, memo, row_memo = [], [], {}, {}  # memos: entries and pattern grids -> JSON text
    for c in comps:
        grids, free = cells.chart_class(cfg.quiver, cfg.weights, c.beta, cfg.inputs["seed"])
        weights = {k: m for k, m in c.weight_table.items() if k > 0}
        if free != weights:
            k = min(k for k in free.keys() | weights.keys() if free.get(k) != weights.get(k))
            raise InconsistencyError(
                f"cell chart at [{_beta_label(c.beta, cfg.codec)}] has {free.get(k, 0)} free "
                f"coordinates in degree {','.join(map(str, cfg.codec.decode(k)))}, the weight "
                f"space has dimension {weights.get(k, 0)}")
        if (dim := sum(free.values())) != c.att_plus:
            raise InconsistencyError(f"cell chart at [{_beta_label(c.beta, cfg.codec)}] has "
                                     f"dimension {dim}, attractor has {c.att_plus}")
        if cfg.fmt == "json":
            out.append({"beta": _beta_json(c.beta, cfg.codec, memo), "dimension": dim,
                        "patterns": _patterns_json(grids, row_memo)})
        else:
            lines.append(caption.format(dim=dim, beta=_beta_label(c.beta, cfg.codec)))
            lines.append((cells.table_latex if cfg.fmt == "latex" else cells.table_text)(grids))
    return out, lines


def cmd_cells(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    out, lines = _chart_rows(cfg, _components(cfg), "component [{beta}]: cell dimension {dim}")
    lines.append("chart dimensions match attractors: ok")
    _emit(cfg, {"cells": out, "checks": {"charts_match_attractors": True}}, lines)
    return 0


def cmd_normal_form(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    hits = [c for c in _components(cfg) if fixedpoints.generic_normal_form_test(c)]
    out, lines = _chart_rows(cfg, hits, "open cell of dimension {dim} at [{beta}]")
    _emit(cfg, {"normal_forms": out}, [f"{len(hits)} generic-normal-form class(es)", *lines])
    return 0


# the first 13 primes; as Miller-Rabin bases they decide primality exactly
# below MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981
FERMAT_BITS = 2048  # one base-2 Fermat test on a root this long takes about 25 ms


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MR_BOUND."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(q: int, k: int) -> int:
    """floor(q^(1/k)) for q >= 1: Newton's method from just above a float
    estimate of the root's leading 50 bits."""
    shift = max(q.bit_length() // k - 50, 0)
    est = int(2 ** (math.log2(q >> shift * k) / k))
    r = (est + (est >> 40) + 2) << shift
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime_power(q: int) -> bool:
    """q = p^k for a prime p and k >= 1.

    The least root r of q (q = r^k with k largest) is p exactly when q is a
    power of the prime p.  It is the exact k-th root for the first k that
    has one, scanning down from the bit length of q to k = 1.  A root r >=
    MR_BOUND is still shown composite by a factor in MR_BASES or, up to
    FERMAT_BITS bits, by failing the base-2 Fermat test; otherwise it raises
    UnsupportedError, since primality cannot be certified there.
    """
    if q < 2:
        return False
    root = next(r for k in range(q.bit_length(), 0, -1) if (r := _iroot(q, k)) ** k == q)
    if root >= MR_BOUND:
        if any(root % p == 0 for p in MR_BASES) or (
                root.bit_length() <= FERMAT_BITS and pow(2, root - 1, root) != 1):
            return False
        raise UnsupportedError(f"the least root of q has {root.bit_length()} bits; primality "
                               f"is certified only below {MR_BOUND}")
    return _is_prime(root)


def cmd_count(cfg: RunConfig) -> int:
    _require_coprime(cfg)
    q = cfg.inputs["field"]
    if not _is_prime_power(q):
        raise ValidationError(f"--field must be a prime power, got {q}")
    n = hn.stable_counts(cfg.quiver, cfg.dim, cfg.theta, (q,))[0][1]
    _emit(cfg, {"q": q, "count": n}, [f"|M(F_{q})| = {n}"])
    return 0


# a `kronecker` label row as `_json_text` lays it out, at its depth in the report
_KIND1_JSON = ('\n    {{\n      "att_minus": {2},\n      "att_plus": {1},\n      "kind": 1,'
               '\n      "label": {0}\n    }}')
_KIND2_JSON = ('\n    {{\n      "att_plus": {1},\n      "kind": 2,\n      "label": {0},'
               '\n      "x": {3}\n    }}')


ROW_CHUNK = 4096  # `kronecker` rows formatted and written at a time


def _write_rows(head: str, rows, line, sep: str) -> None:
    """Write `head`, then line(*row) for each of `rows` with `sep` between two, ROW_CHUNK
    rows at a time, so no more than one chunk is held.  The first chunk is read before
    anything is written, so the input checks of a generator of rows run first."""
    write = sys.stdout.write
    chunk = list(itertools.islice(rows, ROW_CHUNK))
    write(head)
    while chunk:
        write(sep.join(itertools.starmap(line, chunk)))
        if chunk := list(itertools.islice(rows, ROW_CHUNK)):
            write(sep)


def cmd_kronecker(args: dict) -> int:
    """The rows are written as they are made.  The polynomial is known only once they are
    all read, and every format writes it after them: JSON sorts "labels" before
    "poincare", text and CSV end with it, and LaTeX writes no rows."""
    l, r, fmt = args["l"], args["r"], args["format"]
    coeffs: dict = {}
    rows = kronecker.attractor_rows(l, r, coeffs)  # adds into coeffs as it is read
    if fmt == "json":
        # the rows are many and alike, so each is one template instead of a walk
        _write_rows(f'{{\n  "l": {l},\n  "labels": [', rows, lambda text, plus, minus, x: (
            _KIND1_JSON if x is None else _KIND2_JSON).format(_quote(text), plus, minus, x), ",")
    elif fmt == "csv":
        _write_rows("label,kind,att_plus,att_minus\n", rows, lambda text, plus, minus, x: (
            f"{_csv_field(text)},1,{plus},{minus}\n" if x is None
            else f"{_csv_field(text)},2,{plus},\n"), "")
    elif fmt == "text":
        _write_rows("", rows, lambda text, plus, minus, x: (
            f"  {text}  kind=1  att+={plus}  att-={minus}\n" if x is None
            else f"  {text}  kind=2  att+={plus}\n"), "")
    else:
        for _ in rows:
            pass
    poly = betti.PoincarePolynomial.from_dict(coeffs)
    if fmt == "json":  # the report after its rows, as `_json_text` lays it out
        doc = _json_text({"l": l, "r": r, "poincare": poly.as_dict(), "text": poly.text(),
                          "labels": _Layout("[\n  ]")})
        print(doc.partition('"labels": [')[2])
    elif fmt == "latex":
        print(poly.latex())
    else:
        print(f"{'# ' if fmt == 'csv' else ''}P(t) = {poly.text()}")
    return 0


# each flag: its type or its choices, its default (None: the flag is required), its help;
# `--format` takes its choices from the command's entry in HANDLERS
FLAGS = {
    "--quiver": (str, None, "quiver description JSON file"),
    "--dim": (str, None, "dimension vector, comma separated"),
    "--theta": (str, None, "stability weights, comma separated"),
    "--format": ((), "text", "report format"),
    "--weights": (str, "", "weight assignment JSON file (default: generic rank-1)"),
    "--filter": (("on", "off"), "on", "off also reports classes without a stable lift"),
    "--seed": (int, 0, "seed of the random lifts"),
    "--field": (int, 2, "the prime power q of F_q"),
    "--l": (int, None, "the Kronecker quiver has l + 1 arrows"),
    "--r": (int, None, "the dimension vector is (2, 2r + 1)"),
}
COMMON = ("--quiver", "--dim", "--theta", "--format")
# each command with its handler, every flag it takes and every format it writes
HANDLERS = {
    "fixed-points": (cmd_fixed_points, COMMON + ("--weights", "--filter"), ("text", "json", "csv")),
    "poincare": (cmd_poincare, COMMON + ("--weights",), ("text", "json", "latex")),
    "cells": (cmd_cells, COMMON + ("--weights", "--seed"), ("text", "json", "latex")),
    "normal-form": (cmd_normal_form, COMMON + ("--weights", "--seed"), ("text", "json", "latex")),
    "count": (cmd_count, COMMON + ("--field",), ("text", "json")),
    "kronecker": (cmd_kronecker, ("--l", "--r", "--format"), ("text", "json", "latex", "csv")),
}
ALIASES = {"attractors": "fixed-points"}
USAGE = "usage: bbquiver COMMAND (--flag VALUE | --flag=VALUE)..."


def _usage(name: str) -> str:
    _, flags, formats = HANDLERS[ALIASES.get(name, name)]
    words = []
    for flag in flags:
        kind, default, _ = FLAGS[flag]
        kind = formats if flag == "--format" else kind
        metavar = "{" + ",".join(kind) + "}" if type(kind) is tuple else flag[2:].upper()
        words.append(f"{flag} {metavar}" if default is None else f"[{flag} {metavar}]")
    return f"usage: bbquiver {name} {' '.join(words)}"


def _usage_error(name: str | None, message: str):
    usage, prog = (_usage(name), f"bbquiver {name}") if name else (USAGE, "bbquiver")
    print(f"{usage}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list) -> tuple[str, dict]:
    """The command of `bbquiver COMMAND (--flag VALUE | --flag=VALUE)...` and
    the value of each flag it takes, keyed without `--`.  A value is always the
    next token (`--theta -1,0`), a repeated flag keeps its last value, and
    flags are never abbreviated."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        print(f"{USAGE}\ncommands: {', '.join(HANDLERS)}, attractors (= fixed-points)", flush=True)
        raise SystemExit(0)
    if name not in HANDLERS and name not in ALIASES:
        _usage_error(None, f"unknown command {name!r}" if name else "a command is required")
    _, flags, formats = HANDLERS[ALIASES.get(name, name)]
    args, extras = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_usage(name) + "".join(f"\n  {f:<10} {FLAGS[f][2]}" for f in flags), flush=True)
            raise SystemExit(0)
        flag, eq, value = token.partition("=")
        if flag not in flags:
            extras.append(token)
            continue
        if not eq and (value := next(tokens, None)) is None:
            _usage_error(name, f"argument {flag}: expected one argument")
        kind = formats if flag == "--format" else FLAGS[flag][0]
        if type(kind) is tuple and value not in kind:
            _usage_error(name, f"argument {flag}: invalid choice: {value!r} (choose from "
                         f"{', '.join(kind)})")
        try:
            args[flag[2:]] = int(value) if kind is int else value
        except ValueError:
            _usage_error(name, f"argument {flag}: invalid int value: {value!r}")
    if extras:
        _usage_error(name, f"unrecognized arguments: {' '.join(extras)}")
    missing = [f for f in flags if FLAGS[f][1] is None and f[2:] not in args]
    if missing:
        _usage_error(name, f"the following arguments are required: {', '.join(missing)}")
    return ALIASES.get(name, name), {f[2:]: FLAGS[f][1] for f in flags} | args


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)  # help is flushed in here
        code = HANDLERS[command][0](args if command == "kronecker" else _load_config(args))
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
    except OSError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
