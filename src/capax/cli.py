"""Command line front end.

Every subcommand writes one report (JSON by default, CSV where tabular), and
every report embeds the resolved configuration so runs are reproducible from
their own output.  Flags override values from an optional --config JSON file,
which override the built-in defaults.  Exit codes: 0 success, 1 domain
errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .chebyshev import chebyshev_transform, chebyshev_value
from .diameters import pullback_check, transfinite_diameter
from .errors import CapaxError
from .exact import GaussianRational
from .parsing import parse_poly
from .polynomials import Monomial
from .resultant import (
    block_factorization,
    resultant,
    resultant_root_oracle,
    resultant_slog,
)
from .sets import SetSpec, build_mesh, fiber, graph_lift
from .variety import GraphMap, basis_stream, is_generic, staircase


class UsageError(Exception):
    """Configuration rejected before any computation ran; exits with 2."""


# ---------------------------------------------------------------------------
# configuration


COMMANDS = (
    "resultant",
    "block-check",
    "basis",
    "staircase",
    "fiber",
    "cheb",
    "tdiam",
    "pullback",
)

# which fields each command requires; what it accepts is its subparser's flags
_REQUIRED = {
    "resultant": ("map",),
    "block-check": ("map", "k"),
    "basis": ("basis", "nmax"),
    "staircase": ("map",),
    "fiber": ("map", "w"),
    "cheb": ("set", "basis"),
    "tdiam": ("set", "basis", "nmax"),
    "pullback": ("map", "set", "nmax"),
}

DEFAULT_MESH = (24, 24)

# the commands with a CSV report, which is also their default format
_CSV_COMMANDS = ("tdiam", "fiber")


@dataclass
class RunConfig:
    """One resolved invocation; every report embeds this verbatim."""

    command: str
    map: Optional[str] = None
    set: Optional[str] = None
    mesh: Optional[tuple[int, int]] = None
    nmax: Optional[int] = None
    basis: Optional[str] = None
    precision: Optional[str] = None
    out: Optional[str] = None
    format: Optional[str] = None
    # per-command extras
    k: Optional[int] = None
    w: Optional[list[float]] = None
    alpha: Optional[tuple[int, int]] = None
    beta: Optional[tuple[int, int]] = None
    theta: Optional[float] = None
    s: Optional[int] = None
    oracle: Optional[bool] = None

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        for name in _REQUIRED[self.command]:
            if getattr(self, name) is None:
                raise UsageError(f"{self.command} needs --{name}")
        if self.format not in (None, "json", "csv"):
            raise UsageError("format must be json or csv")
        if self.format == "csv" and self.command not in _CSV_COMMANDS:
            raise UsageError(f"{self.command} has no CSV form; use --format json")
        if self.precision not in (None, "exact", "float"):
            raise UsageError("precision must be exact or float")
        if self.basis is not None and self.basis not in ("z", "w", "B", "C"):
            raise UsageError("basis must be one of z, w, B, C")
        if self.mesh is None and self.command in ("cheb", "tdiam", "pullback"):
            self.mesh = DEFAULT_MESH
        if self.mesh is not None and min(self.mesh) < 1:
            raise UsageError("mesh counts must be positive")
        if self.nmax is not None:
            floor = 0 if self.command == "basis" else 1
            if self.nmax < floor:
                raise UsageError(f"nmax out of range (need nmax >= {floor})")
        if self.k is not None and self.k < 1:
            raise UsageError("k must be positive")
        if self.s is not None and self.s < 2:
            raise UsageError("s must be at least 2")
        if self.w is not None and len(self.w) != 4:
            raise UsageError("w takes re1,im1,re2,im2")
        if self.command == "cheb" and self.alpha is None and self.theta is None:
            raise UsageError("cheb needs --alpha (with optional --beta) or --theta with --s")
        if self.theta is not None and self.s is None:
            raise UsageError("--theta needs --s")
        if self.theta is not None and not 0 < self.theta < 1:
            raise UsageError("theta must lie in (0, 1)")
        if self.alpha is not None and (self.theta is not None or self.s is not None):
            raise UsageError("--alpha names the target; it takes no --theta or --s")
        if self.beta is not None and self.alpha is None:
            raise UsageError("--beta needs --alpha")

    def resolved_format(self) -> str:
        return self.format or ("csv" if self.command in _CSV_COMMANDS else "json")

    def report_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            out[f.name] = list(value) if isinstance(value, tuple) else value
        out["format"] = self.resolved_format()
        return out


# ---------------------------------------------------------------------------
# argument parsing helpers


def _mesh_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            n = int(parts[0])
            return (n, n)
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("mesh counts: one integer or n1,n2")


def _pair_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a pair e1,e2")


def _w_arg(text: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 4:
        raise argparse.ArgumentTypeError("expected re1,im1,re2,im2")
    return vals


def _switch_arg(text: str) -> bool:
    # a switch flag takes no text; in a config file it must be a JSON boolean
    if text not in ("True", "False"):
        raise argparse.ArgumentTypeError("expected true or false")
    return text == "True"


# the flag parser of each typed field; config-file values go through it too
_FIELD_PARSERS = {
    "map": str,
    "set": str,
    "out": str,
    "mesh": _mesh_arg,
    "nmax": int,
    "k": int,
    "w": _w_arg,
    "alpha": _pair_arg,
    "beta": _pair_arg,
    "theta": float,
    "s": int,
    "oracle": _switch_arg,
}


def _coerce_field(name: str, value):
    """Parse a config-file value as its flag's value would be parsed."""
    parse = _FIELD_PARSERS.get(name)
    if parse is None or value is None:
        return value
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        return parse(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"config key {name}: {exc}") from None


# ---------------------------------------------------------------------------
# serialization helpers


def _exact_number(value) -> object:
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _coeff_json(c) -> dict:
    if isinstance(c, GaussianRational):
        return {"re": _exact_number(c.re), "im": _exact_number(c.im)}
    c = complex(c)
    return {"re": c.real, "im": c.imag}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(cfg: RunConfig, payload: dict, csv_rows: Optional[tuple[list[str], list[list]]] = None) -> None:
    out = sys.stdout if cfg.out is None else open(cfg.out, "w")
    try:
        if cfg.resolved_format() == "csv":
            header, rows = csv_rows
            out.write("# config " + json.dumps(payload["config"], sort_keys=True) + "\n")
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(
                    ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
                    + "\n"
                )
        else:
            out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _load_map(cfg: RunConfig) -> GraphMap:
    path = cfg.map
    with open(path) as fh:
        data = json.load(fh)
    try:
        f1_text = data["f1"]
        f2_text = data["f2"]
    except (TypeError, KeyError):
        raise CapaxError(f"map file {path} needs keys f1 and f2") from None
    precision = cfg.precision or data.get("precision", "exact")
    if precision not in ("exact", "float"):
        raise CapaxError(f"map file precision must be exact or float, got {precision!r}")
    return GraphMap(parse_poly(f1_text, precision), parse_poly(f2_text, precision))


def _lifted_set(cfg: RunConfig, f: Optional[GraphMap]):
    base = build_mesh(SetSpec.parse(cfg.set), cfg.mesh)
    if cfg.basis == "w":
        return base
    if f is None:
        raise CapaxError("this basis evaluates z monomials; pass --map to lift the set")
    return graph_lift(f, base)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_resultant(cfg: RunConfig) -> None:
    f = _load_map(cfg)
    res = resultant(f)
    phase, logmag = resultant_slog(f)
    payload = {
        "res": _coeff_json(res),
        "log_abs": logmag,
        "precision": f.precision,
        "config": cfg.report_dict(),
    }
    if cfg.oracle:
        oracle = resultant_root_oracle(f)
        payload["oracle"] = _coeff_json(oracle)
        denom = max(abs(complex(res)), abs(oracle), 1e-300)
        payload["oracle_rel_diff"] = abs(complex(res) - oracle) / denom
    _emit(cfg, payload)


def _cmd_staircase(cfg: RunConfig) -> None:
    f = _load_map(cfg)
    stairs = staircase(f)
    payload = {
        "staircase": [[m.b1, m.b2] for m in stairs],
        "generic": is_generic(f),
        "config": cfg.report_dict(),
    }
    _emit(cfg, payload)


def _cmd_basis(cfg: RunConfig) -> None:
    f = _load_map(cfg) if cfg.map else None
    stream = basis_stream(f, cfg.basis)
    monomials = stream.upto(cfg.nmax * stream.d)
    payload = {
        "monomials": [
            {"alpha": [m.a1, m.a2], "beta": [m.b1, m.b2], "weight": m.weight(stream.d)}
            for m in monomials
        ],
        "count": len(monomials),
        "config": cfg.report_dict(),
    }
    _emit(cfg, payload)


def _cmd_block_check(cfg: RunConfig) -> None:
    f = _load_map(cfg)
    report = block_factorization(f, cfg.k)
    payload = {
        "k": report.shape.k,
        "ell": report.shape.ell,
        "r": report.shape.r,
        "modified": report.shape.modified,
        "copies": report.shape.copies,
        "rows": report.shape.rows,
        "matches": report.matches,
        "sign": report.sign,
        "det": _coeff_json(report.det),
        "res": _coeff_json(report.res),
        "config": cfg.report_dict(),
    }
    _emit(cfg, payload)


def _cmd_fiber(cfg: RunConfig) -> None:
    f = _load_map(cfg)
    vals = cfg.w
    w = (complex(vals[0], vals[1]), complex(vals[2], vals[3]))
    result = fiber(f, w)
    rows = [
        [z1.real, z1.imag, z2.real, z2.imag]
        for z1, z2 in result.z
    ]
    payload = {
        "points": rows,
        "residual_max": float(result.residuals.max()),
        "near_discriminant": result.near_discriminant,
        "defect": result.defect,
        "config": cfg.report_dict(),
    }
    _emit(
        cfg,
        payload,
        csv_rows=(["z1_re", "z1_im", "z2_re", "z2_im"], [[float(v) for v in r] for r in rows]),
    )


def _cmd_cheb(cfg: RunConfig) -> None:
    f = _load_map(cfg) if cfg.map else None
    points = _lifted_set(cfg, f)
    stream = basis_stream(f if cfg.basis in ("B", "C") else None, cfg.basis)
    if cfg.alpha is not None:
        beta = cfg.beta or (0, 0)
        target = Monomial(cfg.alpha[0], cfg.alpha[1], beta[0], beta[1])
        est = chebyshev_value(points, stream, target)
        payload = {
            "value": est.value,
            "lower": est.lower,
            "residual": est.residual,
            "iterations": est.iterations,
            "converged": est.converged,
            "prefix_size": est.prefix_size,
            "config": cfg.report_dict(),
        }
    else:
        value = chebyshev_transform(points, stream, cfg.theta, cfg.s)
        payload = {
            "transform": value,
            "theta": cfg.theta,
            "s": cfg.s,
            "config": cfg.report_dict(),
        }
    _emit(cfg, payload)


def _cmd_tdiam(cfg: RunConfig) -> None:
    f = _load_map(cfg) if cfg.map else None
    points = _lifted_set(cfg, f)
    series = transfinite_diameter(points, cfg.basis, cfg.nmax)
    rows = []
    for i, n in enumerate(series.levels):
        rows.append(
            [
                n,
                series.m_counts[i],
                series.l_counts[i],
                series.ledger.logdet_prefix(series.m_counts[i]),
                series.estimates[i],
            ]
        )
    payload = {
        "levels": series.levels,
        "m": series.m_counts,
        "l": series.l_counts,
        "log_vandermonde": [float(r[3]) for r in rows],
        "estimates": series.estimates,
        "van_root_estimates": series.van_root_estimates,
        "points": len(points),
        "meta": series.meta,
        "config": cfg.report_dict(),
    }
    _emit(cfg, payload, csv_rows=(["n", "m_n", "l_n", "logVan", "estimate"], rows))


def _cmd_pullback(cfg: RunConfig) -> None:
    f = _load_map(cfg)
    report = pullback_check(f, cfg.set, cfg.nmax, cfg.mesh)
    payload = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "d2_cross": report.d2.final,
        "d3_final": report.d3.final,
        "res_log_abs": report.res_log_abs,
        "meta": report.meta,
        "config": cfg.report_dict(),
    }
    _emit(cfg, payload)


_HANDLERS = {
    "resultant": _cmd_resultant,
    "block-check": _cmd_block_check,
    "basis": _cmd_basis,
    "staircase": _cmd_staircase,
    "fiber": _cmd_fiber,
    "cheb": _cmd_cheb,
    "tdiam": _cmd_tdiam,
    "pullback": _cmd_pullback,
}


def run(config: RunConfig) -> int:
    """Validate and execute one configured command; returns the exit status."""
    try:
        config.validate()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        _HANDLERS[config.command](config)
    except (CapaxError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--precision", choices=("exact", "float"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capax",
        description="transfinite diameters, Chebyshev constants, and resultants "
        "for polynomial maps of C^2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resultant", help="resultant of the top forms")
    p.add_argument("--map")
    p.add_argument("--oracle", action="store_const", const=True,
                   help="cross-check through root products")
    _add_common(p)

    p = sub.add_parser("staircase", help="staircase of the top-form ideal")
    p.add_argument("--map")
    _add_common(p)

    p = sub.add_parser("basis", help="stream monomials through a level")
    p.add_argument("--map")
    p.add_argument("--basis", choices=("z", "w", "B", "C"))
    p.add_argument("--nmax", type=int)
    _add_common(p)

    p = sub.add_parser("block-check", help="certify one block determinant identity")
    p.add_argument("--map")
    p.add_argument("--k", type=int)
    _add_common(p)

    p = sub.add_parser("fiber", help="solve f(z) = w")
    p.add_argument("--map")
    p.add_argument("--w", type=_w_arg, help="re1,im1,re2,im2")
    _add_common(p)

    p = sub.add_parser("cheb", help="directional Chebyshev value or transform")
    p.add_argument("--map")
    p.add_argument("--set")
    p.add_argument("--mesh", type=_mesh_arg)
    p.add_argument("--basis", choices=("z", "w", "B", "C"))
    p.add_argument("--alpha", type=_pair_arg, help="w-exponent a1,a2 of the target")
    p.add_argument("--beta", type=_pair_arg, help="z-exponent b1,b2 of the target")
    p.add_argument("--theta", type=float, help="direction in (0, 1) for the transform")
    p.add_argument("--s", type=int, help="transform degree, at least 2")
    _add_common(p)

    p = sub.add_parser("tdiam", help="transfinite diameter estimate table")
    p.add_argument("--map")
    p.add_argument("--set")
    p.add_argument("--mesh", type=_mesh_arg)
    p.add_argument("--basis", choices=("z", "w", "B", "C"))
    p.add_argument("--nmax", type=int)
    _add_common(p)

    p = sub.add_parser("pullback", help="compare d(f^-1 K) with the resultant formula")
    p.add_argument("--map")
    p.add_argument("--set")
    p.add_argument("--mesh", type=_mesh_arg)
    p.add_argument("--nmax", type=int)
    _add_common(p)

    return parser


def build_config(argv: Optional[list[str]] = None) -> RunConfig:
    """Parse argv and merge flag, config-file, and default layers."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # the namespace holds one entry per flag of the chosen subcommand, so its
    # keys are exactly the fields that command reads
    accepted = set(vars(args)) - {"config"}
    flag_values = {
        k: v
        for k, v in vars(args).items()
        if k not in ("config",) and v is not None
    }
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        data = {k: _coerce_field(k, v) for k, v in data.items()}
        extra = sorted(set(data) - accepted)
        if extra:
            raise UsageError(f"{args.command} takes no config key {', '.join(extra)}")
    data.update(flag_values)
    return RunConfig(**data)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        config = build_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
