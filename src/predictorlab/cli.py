"""Command-line front end: coefficient tables, both predictors, experiments.

Subcommands
-----------
coeffs    index, MA, AR, autocovariance, and infinite-predictor columns
predict   finite predictor from both routes with the cross-check difference
rate      convergence-rate experiment table
baxter    Baxter-ratio experiment table
dkscale   kernel scaling experiment table

Output is deterministic for a fixed configuration: fixed column order,
floats rendered at 17 significant digits, CSV with comma separators and LF
line endings, or a JSON object carrying the resolved configuration under
``meta`` and the table under ``rows``.

Configuration precedence: built-in defaults, then an optional ``--config``
file of ``key=value`` lines, then command-line flags.

Exit codes: 0 success; 2 configuration errors (including regime
violations); 3 model validation and degeneracy failures; 4 truncation
budget exhausted; 5 the two predictor routes disagree.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import json

import numpy as np

from .asymptotics import (CROSS_CHECK_TOL, baxter_experiment,
                          dk_scaling_experiment, rate_experiment)
from .coeffs import autocov, expand_ar, expand_ma, phi_for_model
from .errors import (ConfigError, DegeneracyError, ModelValidationError,
                     OracleDisagreementError, TruncationError)
from .explicit import DEFAULT_POLICY, finite_predictor_multistep
from .levinson import durbin_levinson, multistep_normal_solve
from .models import Ar1, ExplicitModel, Farima, RealPolynomial

__all__ = ["main"]

_MODEL_VARIANTS = ("ar1", "farima", "explicit")
_VARIANT_PARAMS = {
    "ar1": ("r",),
    "farima": ("d", "arpoly", "mapoly"),
    "explicit": ("arpoly", "mapoly"),
}

#: value-taking keys accepted by every subcommand
_COMMON_KEYS = ("model", "r", "d", "arpoly", "mapoly",
                "vmax", "kmax", "tol", "levels", "format", "out")
_SUB_KEYS = {
    "coeffs": _COMMON_KEYS + ("N",),
    "predict": _COMMON_KEYS + ("n", "m", "source", "terms"),
    "rate": _COMMON_KEYS + ("n", "j"),
    "baxter": _COMMON_KEYS + ("n",),
    "dkscale": _COMMON_KEYS + ("n", "k", "u"),
}
_SUB_DEFAULTS = {
    "coeffs": {"N": "32"},
    "predict": {"m": "0", "source": "both", "terms": False},
    "rate": {"j": "1", "n": "64..512"},
    "baxter": {"n": "16..512"},
    "dkscale": {"k": "1,2,3", "u": "0", "n": "512,1024,2048"},
}


# ---------------------------------------------------------------------------
# value parsing (shared by flags, config-file entries, and defaults)

def _to_int(name: str, raw) -> int:
    try:
        return int(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _to_float(name: str, raw) -> float:
    try:
        return float(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from None


def _to_bool(name: str, raw) -> bool:
    if isinstance(raw, bool):
        return raw
    token = str(raw).strip().lower()
    if token in ("1", "true", "yes", "on"):
        return True
    if token in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{name} must be a boolean, got {raw!r}")


def _positive_int(name: str, raw) -> int:
    value = _to_int(name, raw)
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


def _nonneg_int(name: str, raw) -> int:
    value = _to_int(name, raw)
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    return value


def _parse_int_list(name: str, raw) -> list[int]:
    """Comma list of integers; ``a..b`` expands to a, 2a, 4a, ... <= b."""
    out: list[int] = []
    for token in str(raw).split(","):
        token = token.strip()
        if not token:
            raise ConfigError(f"empty entry in {name} list {raw!r}")
        if ".." in token:
            lo_text, hi_text = token.split("..", 1)
            lo = _positive_int(name, lo_text)
            hi = _to_int(name, hi_text)
            if hi < lo:
                raise ConfigError(f"range {token!r} in {name} is empty")
            value = lo
            while value <= hi:
                out.append(value)
                value *= 2
        else:
            out.append(_positive_int(name, token))
    return out


def _choice(name: str, raw, allowed: tuple[str, ...]) -> str:
    token = str(raw).strip()
    if token not in allowed:
        raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {raw!r}")
    return token


# ---------------------------------------------------------------------------
# configuration resolution

def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve(ns: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags into one flat configuration."""
    command = ns.command
    keys = _SUB_KEYS[command]
    cfg: dict = {key: None for key in keys}
    cfg.update(_SUB_DEFAULTS[command])
    cfg.setdefault("format", None)
    if cfg["format"] is None:
        cfg["format"] = "csv"
    if ns.config is not None:
        for key, value in _read_config_file(ns.config).items():
            if key not in keys:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            cfg[key] = value
    for key in keys:
        value = getattr(ns, key)
        if value is not None:
            cfg[key] = value
    cfg["command"] = command
    cfg["format"] = _choice("format", cfg["format"], ("csv", "json"))
    return cfg


def _build_model(cfg: dict):
    variant = cfg.get("model")
    if variant is None:
        raise ConfigError("--model is required")
    variant = _choice("model", variant, _MODEL_VARIANTS)
    for param in ("r", "d", "arpoly", "mapoly"):
        if cfg.get(param) is not None and param not in _VARIANT_PARAMS[variant]:
            raise ConfigError(f"--{param} does not apply to model {variant!r}")
    if variant == "ar1":
        if cfg["r"] is None:
            raise ConfigError("model ar1 requires --r")
        return Ar1(_to_float("r", cfg["r"]))
    if variant == "farima":
        if cfg["d"] is None:
            raise ConfigError("model farima requires --d")
        return Farima(_to_float("d", cfg["d"]),
                      ar_poly=RealPolynomial.parse(cfg["arpoly"] or "1"),
                      ma_poly=RealPolynomial.parse(cfg["mapoly"] or "1"))
    if cfg["mapoly"] is None or cfg["arpoly"] is None:
        raise ConfigError("model explicit requires --mapoly (the c sequence) "
                          "and --arpoly (the a sequence)")
    c = tuple(_to_float("mapoly", tok) for tok in str(cfg["mapoly"]).split(","))
    a = tuple(_to_float("arpoly", tok) for tok in str(cfg["arpoly"]).split(","))
    return ExplicitModel(c=c, a=a)


def _build_policy(cfg: dict):
    overrides: dict = {}
    if cfg["vmax"] is not None:
        overrides["V"] = _positive_int("vmax", cfg["vmax"])
    if cfg["kmax"] is not None:
        overrides["K"] = _positive_int("kmax", cfg["kmax"])
    if cfg["tol"] is not None:
        tol = _to_float("tol", cfg["tol"])
        if not tol > 0.0:
            raise ConfigError(f"tol must be positive, got {tol}")
        overrides["tol_tail"] = tol
    if cfg["levels"] is not None:
        overrides["levels"] = _positive_int("levels", cfg["levels"])
    if not overrides:
        return DEFAULT_POLICY
    return dataclasses.replace(DEFAULT_POLICY, **overrides)


# ---------------------------------------------------------------------------
# rendering

def _fmt_float(value) -> str:
    # + 0.0 folds negative zero into plain 0
    return format(float(value) + 0.0, ".17g")


def _cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt_float(value)


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_csv(columns: list[str], rows: list[list]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(meta: dict, columns: list[str], rows: list[list]) -> str:
    meta_body = ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in meta.items())
    cols_body = ",".join(json.dumps(c) for c in columns)
    rows_body = ",".join(_json_value(list(row)) for row in rows)
    return ('{"meta":{' + meta_body + '},"columns":[' + cols_body
            + '],"rows":[' + rows_body + "]}\n")


def _emit(cfg: dict, meta: dict, columns: list[str], rows: list[list]) -> None:
    if cfg["format"] == "csv":
        text = _render_csv(columns, rows)
    else:
        text = _render_json(meta, columns, rows)
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _poly_canonical(text) -> str:
    poly = RealPolynomial.parse(str(text))
    return ",".join(_fmt_float(c) for c in poly.coefficients)


def _float_list_canonical(text) -> str:
    return ",".join(_fmt_float(float(tok)) for tok in str(text).split(","))


def _meta(cfg: dict, extra: dict) -> dict:
    meta: dict = {"command": cfg["command"], "model": cfg["model"]}
    variant = cfg["model"]
    if variant == "ar1":
        meta["r"] = _to_float("r", cfg["r"])
    elif variant == "farima":
        meta["d"] = _to_float("d", cfg["d"])
        meta["arpoly"] = _poly_canonical(cfg["arpoly"] or "1")
        meta["mapoly"] = _poly_canonical(cfg["mapoly"] or "1")
    else:
        meta["mapoly"] = _float_list_canonical(cfg["mapoly"])
        meta["arpoly"] = _float_list_canonical(cfg["arpoly"])
    meta.update(extra)
    meta["vmax"] = None if cfg["vmax"] is None else _positive_int("vmax", cfg["vmax"])
    meta["kmax"] = None if cfg["kmax"] is None else _positive_int("kmax", cfg["kmax"])
    meta["tol"] = None if cfg["tol"] is None else _to_float("tol", cfg["tol"])
    meta["levels"] = None if cfg["levels"] is None else _positive_int("levels", cfg["levels"])
    meta["format"] = cfg["format"]
    return meta


# ---------------------------------------------------------------------------
# subcommands

def _cmd_coeffs(cfg: dict):
    model = _build_model(cfg)
    N = _nonneg_int("N", cfg["N"])
    c = expand_ma(model, N).values
    a = expand_ar(model, N).values
    gamma = autocov(model, N).values
    phi = phi_for_model(model, N) if N >= 1 else np.empty(0)
    # the predictor weight sequence starts at lag 1; the n = 0 cell holds 0
    rows = [[i, c[i], a[i], gamma[i], (phi[i - 1] if i >= 1 else 0.0)]
            for i in range(N + 1)]
    return _meta(cfg, {"N": N}), ["n", "c", "a", "gamma", "phi"], rows


def _cmd_predict(cfg: dict):
    model = _build_model(cfg)
    if cfg["n"] is None:
        raise ConfigError("predict requires --n")
    n_values = _parse_int_list("n", cfg["n"])
    if len(n_values) != 1:
        raise ConfigError(f"predict takes a single n, got {len(n_values)} values")
    n = n_values[0]
    m = _nonneg_int("m", cfg["m"])
    source = _choice("source", cfg["source"], ("levinson", "explicit", "both"))
    terms = _to_bool("terms", cfg["terms"])
    if terms and source == "levinson":
        raise ConfigError("--terms requires the explicit source")
    policy = _build_policy(cfg)

    phi_lev = phi_exp = None
    sigma2 = None
    series = None
    if source in ("levinson", "both"):
        gamma = autocov(model, n + m)
        if m == 0:
            table = durbin_levinson(gamma, n)[-1]
        else:
            table = multistep_normal_solve(gamma, n, m)
        phi_lev = table.coefficients
        sigma2 = table.sigma2
    if source in ("explicit", "both"):
        result = finite_predictor_multistep(model, n, m, policy)
        phi_exp = result.table.coefficients
        series = result.series

    extra: dict = {"n": n, "m": m, "source": source, "terms": terms,
                   "sigma2": sigma2}
    columns = ["j"]
    if phi_lev is not None:
        columns.append("phi_levinson")
    if phi_exp is not None:
        columns.append("phi_explicit")
    if source == "both":
        columns.append("abs_diff")
        diff = np.abs(phi_lev - phi_exp)
        resid = max(s.tail_estimate for s in series)
        tol = max(CROSS_CHECK_TOL, 8.0 * resid)
        max_diff = float(np.max(diff))
        if max_diff > tol:
            raise OracleDisagreementError(
                f"the two predictor routes disagree at n = {n}: "
                f"max diff {max_diff:.3e} > {tol:g}",
                max_diff=max_diff, tol=tol)
        extra["max_abs_diff"] = max_diff
    if terms:
        columns.extend(f"g{k}" for k in range(1, series[0].k_used + 1))

    rows = []
    for j in range(1, n + 1):
        row: list = [j]
        if phi_lev is not None:
            row.append(phi_lev[j - 1])
        if phi_exp is not None:
            row.append(phi_exp[j - 1])
        if source == "both":
            row.append(diff[j - 1])
        if terms:
            row.extend(series[j - 1].terms)
        rows.append(row)
    return _meta(cfg, extra), columns, rows


def _cmd_rate(cfg: dict):
    model = _build_model(cfg)
    j = _positive_int("j", cfg["j"])
    n_list = _parse_int_list("n", cfg["n"])
    report = rate_experiment(model, j, n_list, _build_policy(cfg))
    rows = [[n, phi_nj, rate, report.theoretical_limit]
            for (n, phi_nj, rate) in report.entries]
    extra = {"j": j, "n": sorted(n_list), "limit": report.theoretical_limit,
             "extrapolated": report.extrapolated}
    return _meta(cfg, extra), ["n", "phi_nj", "rate", "limit"], rows


def _cmd_baxter(cfg: dict):
    model = _build_model(cfg)
    n_list = _parse_int_list("n", cfg["n"])
    report = baxter_experiment(model, n_list, _build_policy(cfg))
    rows = [[n, lhs, rhs, ratio] for (n, lhs, rhs, ratio) in report.entries]
    extra = {"n": sorted(n_list), "sup_ratio": report.sup_ratio}
    return _meta(cfg, extra), ["n", "lhs", "rhs", "ratio"], rows


def _cmd_dkscale(cfg: dict):
    model = _build_model(cfg)
    k_list = _parse_int_list("k", cfg["k"])
    u = _nonneg_int("u", cfg["u"])
    n_list = _parse_int_list("n", cfg["n"])
    report = dk_scaling_experiment(model, k_list, u, n_list, _build_policy(cfg))
    rows = [[k, n, n_dk, target] for (k, n, n_dk, target) in report.entries]
    extra = {"k": sorted(set(k_list)), "u": u, "n": sorted(n_list)}
    return _meta(cfg, extra), ["k", "n", "n_dk", "target"], rows


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "predict": _cmd_predict,
    "rate": _cmd_rate,
    "baxter": _cmd_baxter,
    "dkscale": _cmd_dkscale,
}

_HELP = {
    "coeffs": "tabulate MA, AR, autocovariance, and infinite-predictor coefficients",
    "predict": "finite predictor coefficients from one or both routes",
    "rate": "convergence-rate experiment n (phi_nj - phi_j) vs its limit",
    "baxter": "Baxter-ratio experiment: coefficient-error sum vs phi tail sum",
    "dkscale": "kernel scaling experiment n d_k(n, u) vs its limit",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predictorlab",
        description="Finite-past predictor coefficients of stationary "
                    "processes, two independent ways, with long-memory "
                    "asymptotics experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUB_KEYS:
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="key=value file merged between defaults and flags")
        for key in _SUB_KEYS[name]:
            if key == "terms":
                sp.add_argument("--terms", action="store_const", const=True,
                                default=None,
                                help="append per-stage series term columns")
            elif key == "model":
                sp.add_argument("--model", choices=_MODEL_VARIANTS, default=None)
            elif key == "source":
                sp.add_argument("--source", choices=("levinson", "explicit", "both"),
                                default=None)
            elif key == "format":
                sp.add_argument("--format", choices=("csv", "json"), default=None)
            elif key == "out":
                sp.add_argument("--out", default=None, metavar="PATH",
                                help="output path (default: standard output)")
            else:
                sp.add_argument(f"--{key}", default=None)
    return parser


def _fail(code: int, token: str, exc: Exception) -> int:
    message = " ".join(str(exc).split())
    sys.stderr.write(f"predictorlab: error={token}: {message}\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        cfg = _resolve(ns)
        meta, columns, rows = _HANDLERS[cfg["command"]](cfg)
        _emit(cfg, meta, columns, rows)
        return 0
    except OracleDisagreementError as exc:
        return _fail(5, "disagreement", exc)
    except TruncationError as exc:
        return _fail(4, "truncation", exc)
    except (ModelValidationError, DegeneracyError) as exc:
        return _fail(3, "model", exc)
    except (ConfigError, ValueError) as exc:
        return _fail(2, "config", exc)


if __name__ == "__main__":
    raise SystemExit(main())
