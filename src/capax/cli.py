"""Command line front end.

Every subcommand writes one report (JSON by default, CSV where tabular), and
every report embeds the resolved configuration so runs are reproducible from
their own output.  Flags override values from an optional --config JSON file,
which override the built-in defaults.  Exit codes: 0 success, 1 domain
errors, 2 usage errors.

Each flag and each subcommand is declared once, in the tables _FLAGS and
_SUBCOMMANDS; parsing, RunConfig, checking and dispatch all read them, and a
flag the command would not read is a usage error.  A switch flag (type bool)
takes no text on the command line and a JSON boolean in a config file.  run
loads the --map file once and hands the map to the command's handler.  A
report that carries a library record whole takes its keys from the record's
fields: cheb --alpha from ChebyshevEstimate, block-check from BlockShape.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .chebyshev import chebyshev_transform, chebyshev_value
from .diameters import pullback_check, transfinite_diameter
from .errors import CapaxError, EstimateError
from .exact import GaussianRational
from .parsing import parse_poly
from .polynomials import Monomial
from .resultant import block_factorization, resultant, resultant_root_oracle, resultant_slog
from .sets import SetSpec, build_mesh, fiber, graph_lift
from .variety import BASIS_KINDS, GraphMap, basis_stream, is_generic, staircase


class UsageError(Exception):
    """Configuration rejected before any computation ran; exits with 2."""


# ---------------------------------------------------------------------------
# configuration


DEFAULT_MESH = (24, 24)  # for every command that takes --mesh, unless the set is points:


@dataclass
class RunConfig:
    """One resolved invocation: the command and the value of each flag it was
    given.  Each _FLAGS name reads as an attribute (None when not given);
    every report embeds this verbatim."""

    command: str
    values: dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        if name not in _FLAGS:
            raise AttributeError(name)
        return self.values.get(name)

    def validate(self) -> None:
        spec = _SUBCOMMANDS[self.command]
        for name in spec.required:
            if getattr(self, name) is None:
                raise UsageError(f"{self.command} needs --{name}")
        if self.format == "csv" and not spec.csv:
            raise UsageError(f"{self.command} has no CSV form; use --format json")
        # a points: set is its own sample, so no mesh builds it
        points = self.set is not None and self.set.partition(":")[0].strip().lower() == "points"
        if points and self.mesh is not None:
            raise UsageError("a points: set takes no --mesh")
        if self.mesh is None and "mesh" in spec.flags and not points:
            self.values["mesh"] = DEFAULT_MESH
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
        # a w stream reads no map, nor does a z stream that lifts no set
        if self.map is not None and self.basis in (("z", "w") if self.command == "basis" else ("w",)):
            raise UsageError(f"{self.command} --basis {self.basis} reads no --map")
        if self.precision is not None and self.map is None:
            raise UsageError("--precision needs --map")

    def resolved_format(self) -> str:
        return self.format or ("csv" if _SUBCOMMANDS[self.command].csv else "json")

    def report_dict(self) -> dict:
        shown = {k: list(v) if isinstance(v, tuple) else v
                 for k, v in self.values.items() if k != "out"}
        return {"command": self.command, **shown, "format": self.resolved_format()}


# ---------------------------------------------------------------------------
# flags: value parsers and the flag table; config-file values parse as flags do


def _numbers_arg(kind: type, counts: tuple[int, ...], message: str) -> Callable[[str], tuple]:
    """Parser of comma-separated numbers of one kind; a lone value where more
    are allowed stands for each of them (mesh 8 is 8,8)."""

    def parse(text: str) -> tuple:
        try:
            vals = tuple(kind(x) for x in text.split(","))
        except ValueError:
            vals = ()
        if len(vals) not in counts:
            raise argparse.ArgumentTypeError(message)
        return vals * (max(counts) // len(vals))

    return parse


@dataclass(frozen=True)
class _Flag:
    """A flag's argparse settings; type also parses its config-file value
    (bool marks a switch)."""

    type: Callable[[str], object] = str
    choices: Optional[tuple[str, ...]] = None
    help: Optional[str] = None


_FLAGS = {
    "map": _Flag(),
    "set": _Flag(),
    "mesh": _Flag(_numbers_arg(int, (1, 2), "mesh counts: one integer or n1,n2")),
    "basis": _Flag(choices=BASIS_KINDS),
    "nmax": _Flag(int),
    "k": _Flag(int),
    "w": _Flag(_numbers_arg(float, (4,), "expected re1,im1,re2,im2"),
               help="re1,im1,re2,im2"),
    "alpha": _Flag(_numbers_arg(int, (2,), "expected a pair e1,e2"),
                   help="w-exponent a1,a2 of the target"),
    "beta": _Flag(_numbers_arg(int, (2,), "expected a pair e1,e2"),
                  help="z-exponent b1,b2 of the target"),
    "theta": _Flag(float, help="direction in (0, 1) for the transform"),
    "s": _Flag(int, help="transform degree, at least 2"),
    "oracle": _Flag(bool, help="cross-check through root products"),
    "config": _Flag(help="JSON file with defaults for any flag"),
    "out": _Flag(help="write the report to this path instead of stdout"),
    "format": _Flag(choices=("json", "csv")),
    "precision": _Flag(choices=("exact", "float")),
}

_COMMON_FLAGS = ("config", "out", "format", "precision")


def _config_value(name: str, value):
    """Parse a config-file value as its flag's value would be parsed."""
    flag = _FLAGS.get(name)
    if flag is None or value is None:
        return value
    if flag.type is bool:
        if not isinstance(value, bool):
            raise UsageError(f"config key {name}: expected true or false")
        return value
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        parsed = flag.type(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"config key {name}: {exc}") from None
    if flag.choices is not None and parsed not in flag.choices:
        raise UsageError(f"config key {name}: {parsed!r} is not one of {', '.join(flag.choices)}")
    return parsed


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
    payload["config"] = cfg.report_dict()
    out = sys.stdout if cfg.out is None else open(cfg.out, "w")
    try:
        if cfg.resolved_format() == "csv":
            header, rows = csv_rows
            for key in ("config", "meta"):
                if key in payload:
                    out.write(f"# {key} " + json.dumps(payload[key], sort_keys=True) + "\n")
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(
                    ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
                    + "\n"
                )
        else:
            # strict JSON, which has no -inf or nan: a float that is not finite is null
            strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
            out.write(json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n")
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


def _cmd_resultant(cfg: RunConfig, f: GraphMap) -> None:
    phase, logmag = resultant_slog(f)
    try:
        res = resultant(f)
    except EstimateError:
        if cfg.oracle:
            raise
        res = None  # a float Res beyond float range; log_abs still measures it
    payload = {
        "res": None if res is None else _coeff_json(res),
        "log_abs": logmag,
        "precision": f.precision,
    }
    if cfg.oracle:
        oracle = resultant_root_oracle(f)
        payload["oracle"] = _coeff_json(oracle)
        denom = max(abs(complex(res)), abs(oracle), 1e-300)
        payload["oracle_rel_diff"] = abs(complex(res) - oracle) / denom
    _emit(cfg, payload)


def _cmd_staircase(cfg: RunConfig, f: GraphMap) -> None:
    stairs = staircase(f)
    payload = {
        "staircase": [[m.b1, m.b2] for m in stairs],
        "generic": is_generic(f),
    }
    _emit(cfg, payload)


def _cmd_basis(cfg: RunConfig, f: Optional[GraphMap]) -> None:
    stream = basis_stream(f, cfg.basis)
    monomials = stream.upto(cfg.nmax * stream.d)
    payload = {
        "monomials": [
            {"alpha": [m.a1, m.a2], "beta": [m.b1, m.b2], "weight": m.weight(stream.d)}
            for m in monomials
        ],
        "count": len(monomials),
    }
    _emit(cfg, payload)


def _cmd_block_check(cfg: RunConfig, f: GraphMap) -> None:
    report = block_factorization(f, cfg.k)
    payload = {
        **asdict(report.shape),
        "matches": report.matches,
        "sign": report.sign,
        "det": _coeff_json(report.det),
        "res": _coeff_json(report.res),
    }
    _emit(cfg, payload)


def _cmd_fiber(cfg: RunConfig, f: GraphMap) -> None:
    vals = cfg.w
    w = (complex(vals[0], vals[1]), complex(vals[2], vals[3]))
    result = fiber(f, w)
    rows = [[z1.real, z1.imag, z2.real, z2.imag] for z1, z2 in result.z]
    payload = {
        "points": rows,
        "residual_max": float(result.residuals.max()),
        "near_discriminant": result.near_discriminant,
        "defect": result.defect,
    }
    _emit(cfg, payload, csv_rows=(["z1_re", "z1_im", "z2_re", "z2_im"], rows))


def _cmd_cheb(cfg: RunConfig, f: Optional[GraphMap]) -> None:
    points = _lifted_set(cfg, f)
    stream = basis_stream(f, cfg.basis)
    if cfg.alpha is not None:
        beta = cfg.beta or (0, 0)
        target = Monomial(cfg.alpha[0], cfg.alpha[1], beta[0], beta[1])
        est = chebyshev_value(points, stream, target)
        payload = {**asdict(est), "residual": est.residual}
    else:
        value = chebyshev_transform(points, stream, cfg.theta, cfg.s)
        payload = {
            "transform": value,
            "theta": cfg.theta,
            "s": cfg.s,
        }
    _emit(cfg, payload)


def _cmd_tdiam(cfg: RunConfig, f: Optional[GraphMap]) -> None:
    points = _lifted_set(cfg, f)
    series = transfinite_diameter(points, cfg.basis, cfg.nmax)
    payload = {
        "levels": series.levels,
        "m": series.m_counts,
        "l": series.l_counts,
        "log_vandermonde": series.log_vandermonde,
        "estimates": series.estimates,
        "van_root_estimates": series.van_root_estimates,
        "points": len(points),
        "meta": series.meta,
    }
    rows = list(
        zip(series.levels, series.m_counts, series.l_counts, series.log_vandermonde, series.estimates)
    )
    _emit(cfg, payload, csv_rows=(["n", "m_n", "l_n", "logVan", "estimate"], rows))


def _cmd_pullback(cfg: RunConfig, f: GraphMap) -> None:
    report = pullback_check(f, cfg.set, cfg.nmax, cfg.mesh)
    payload = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "d3_final": report.d3.final,
        "res_log_abs": report.res_log_abs,
        "meta": report.meta,
    }
    _emit(cfg, payload)


# ---------------------------------------------------------------------------
# wiring


@dataclass(frozen=True)
class _Subcommand:
    help: str
    handler: Callable[[RunConfig, Optional[GraphMap]], None]  # given the loaded map, if any
    flags: tuple[str, ...]  # besides the common ones
    required: tuple[str, ...]
    csv: bool = False  # has a CSV report, which is then its default format


_SUBCOMMANDS = {
    "resultant": _Subcommand("resultant of the top forms", _cmd_resultant,
                             ("map", "oracle"), required=("map",)),
    "staircase": _Subcommand("staircase of the top-form ideal", _cmd_staircase,
                             ("map",), required=("map",)),
    "basis": _Subcommand("stream monomials through a level", _cmd_basis,
                         ("map", "basis", "nmax"), required=("basis", "nmax")),
    "block-check": _Subcommand("certify one block determinant identity", _cmd_block_check,
                               ("map", "k"), required=("map", "k")),
    "fiber": _Subcommand("solve f(z) = w", _cmd_fiber,
                         ("map", "w"), required=("map", "w"), csv=True),
    "cheb": _Subcommand("directional Chebyshev value or transform", _cmd_cheb,
                        ("map", "set", "mesh", "basis", "alpha", "beta", "theta", "s"),
                        required=("set", "basis")),
    "tdiam": _Subcommand("transfinite diameter estimate table", _cmd_tdiam,
                         ("map", "set", "mesh", "basis", "nmax"),
                         required=("set", "basis", "nmax"), csv=True),
    "pullback": _Subcommand("compare d(f^-1 K) with the resultant formula", _cmd_pullback,
                            ("map", "set", "mesh", "nmax"), required=("map", "set", "nmax")),
}


def run(config: RunConfig) -> int:
    """Validate and execute one configured command; returns the exit status."""
    try:
        config.validate()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        f = _load_map(config) if config.map else None
        _SUBCOMMANDS[config.command].handler(config, f)
    except (CapaxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capax",
        description="transfinite diameters, Chebyshev constants, and resultants "
        "for polynomial maps of C^2",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name in spec.flags + _COMMON_FLAGS:
            flag = _FLAGS[name]
            if flag.type is bool:
                p.add_argument(f"--{name}", action="store_const", const=True, help=flag.help)
            else:
                p.add_argument(f"--{name}", type=flag.type, choices=flag.choices, help=flag.help)
    return parser


def build_config(argv: Optional[list[str]] = None) -> RunConfig:
    """Parse argv and merge flag, config-file, and default layers."""
    values = vars(build_parser().parse_args(argv))
    command = values.pop("command")
    config_path = values.pop("config")
    data: dict = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError(f"config file {config_path} must hold a JSON object")
        data = {k: _config_value(k, v) for k, v in data.items()}
        # the namespace holds one entry per flag of the chosen subcommand, so
        # its keys are exactly the flags that command reads
        extra = sorted(set(data) - set(values))
        if extra:
            raise UsageError(f"{command} takes no config key {', '.join(extra)}")
    data.update({k: v for k, v in values.items() if v is not None})
    return RunConfig(command, data)


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
