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

Configuration is one table.  ``_DEFAULTS`` lists each subcommand's keys
with their built-in defaults, and ``_PARSERS`` gives each key its one
parser.  ``_resolve`` merges the defaults, then an optional ``--config``
file of ``key=value`` lines, then command-line flags, and parses every
value once, so a value is checked the same way whichever of the three
supplied it and whichever subcommand reads it.  A malformed command line
is a configuration error like any other: one stderr line, exit code 2.

Exit codes: 0 success; 2 configuration errors (including regime
violations and an unwritable ``--out``); 3 model validation and degeneracy
failures; 4 truncation budget exhausted; 5 the two predictor routes
disagree.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import json
import warnings
from functools import cache, partial

import numpy as np

from .asymptotics import (baxter_experiment, check_routes,
                          dk_scaling_experiment, rate_experiment)
from .coeffs import autocov, expand_ar, expand_ma, phi_for_model
from .errors import (ConfigError, DegeneracyError, ModelValidationError,
                     OracleDisagreementError, TruncationError)
from .explicit import DEFAULT_POLICY, finite_predictor_multistep
# durbin_levinson has no caller here; bench/layers.py wraps it by name in
# this module, so the name stays
from .levinson import durbin_levinson, multistep_normal_solve  # noqa: F401
from .models import Ar1, ExplicitModel, Farima

__all__ = ["main"]

#: model parameters each variant accepts
_VARIANT_PARAMS = {
    "ar1": ("r",),
    "farima": ("d", "arpoly", "mapoly"),
    "explicit": ("mapoly", "arpoly"),
}


# ---------------------------------------------------------------------------
# value parsing: parse(name, raw) -> typed value, raw being the flag or
# config-file text, or a default

def _to_int(name: str, raw, lo: int | None = None) -> int:
    try:
        value = int(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if lo is not None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    return value


def _to_float(name: str, raw) -> float:
    try:
        return float(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from None


def _to_positive_float(name: str, raw) -> float:
    value = _to_float(name, raw)
    if not value > 0.0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _to_floats(name: str, raw) -> tuple[float, ...]:
    """Comma list of numbers (polynomial or sequence coefficients)."""
    return tuple(_to_float(name, tok) for tok in str(raw).split(","))


def _to_bool(name: str, raw) -> bool:
    if isinstance(raw, bool):
        return raw
    token = str(raw).strip().lower()
    if token in ("1", "true", "yes", "on"):
        return True
    if token in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{name} must be a boolean, got {raw!r}")


def _parse_int_list(name: str, raw) -> list[int]:
    """Comma list of integers; ``a..b`` expands to a, 2a, 4a, ... <= b."""
    out: list[int] = []
    for token in str(raw).split(","):
        token = token.strip()
        if not token:
            raise ConfigError(f"empty entry in {name} list {raw!r}")
        if ".." in token:
            lo_text, hi_text = token.split("..", 1)
            lo = _to_int(name, lo_text, 1)
            hi = _to_int(name, hi_text)
            if hi < lo:
                raise ConfigError(f"range {token!r} in {name} is empty")
            value = lo
            while value <= hi:
                out.append(value)
                value *= 2
        else:
            out.append(_to_int(name, token, 1))
    return out


def _choice(name: str, raw, allowed: tuple[str, ...]) -> str:
    token = str(raw).strip()
    if token not in allowed:
        raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {raw!r}")
    return token


# ---------------------------------------------------------------------------
# the key table

_PARSERS = {
    "model": partial(_choice, allowed=tuple(_VARIANT_PARAMS)),
    "r": _to_float,
    "d": _to_float,
    "arpoly": _to_floats,
    "mapoly": _to_floats,
    "kmax": partial(_to_int, lo=1),
    "tol": _to_positive_float,
    "format": partial(_choice, allowed=("csv", "json")),
    "out": lambda name, raw: str(raw),
    "N": partial(_to_int, lo=0),
    "n": _parse_int_list,
    "m": partial(_to_int, lo=0),
    "source": partial(_choice, allowed=("levinson", "explicit", "both")),
    "terms": _to_bool,
    "j": partial(_to_int, lo=1),
    "k": _parse_int_list,
    "u": partial(_to_int, lo=0),
}

#: keys every subcommand accepts; None means unset
_COMMON = {"model": None, "r": None, "d": None, "arpoly": None, "mapoly": None,
           "format": "csv", "out": None}

#: truncation-policy keys and their TruncationPolicy fields, in meta order;
#: a subcommand takes only those that reach its output
_POLICY = {"kmax": "K", "tol": "tol_tail"}

#: each subcommand's keys with their built-in defaults
_DEFAULTS = {
    "coeffs": {**_COMMON, "N": "32"},
    # kmax caps the long-memory --terms columns; no other output reads K
    "predict": {**_COMMON, "kmax": None, "tol": None, "n": None, "m": "0",
                "source": "both", "terms": False},
    "rate": {**_COMMON, "tol": None, "n": "64..512", "j": "1"},
    "baxter": {**_COMMON, "tol": None, "n": "16..512"},
    "dkscale": {**_COMMON, "tol": None, "n": "512,1024,2048", "k": "1,2,3", "u": "0"},
}


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
    """Merge defaults, config file, and flags, then parse every value once."""
    raw = dict(_DEFAULTS[ns.command])
    if ns.config is not None:
        for key, value in _read_config_file(ns.config).items():
            if key not in raw:
                raise ConfigError(f"unknown config key {key!r} for {ns.command}")
            raw[key] = value
    flags = {key: getattr(ns, key) for key in raw}
    raw.update((key, value) for key, value in flags.items() if value is not None)
    cfg = {key: None if value is None else _PARSERS[key](key, value)
           for key, value in raw.items()}
    cfg["command"] = ns.command
    return cfg


def _build_model(cfg: dict):
    variant = cfg["model"]
    if variant is None:
        raise ConfigError("--model is required")
    for param in ("r", "d", "arpoly", "mapoly"):
        if cfg[param] is not None and param not in _VARIANT_PARAMS[variant]:
            raise ConfigError(f"--{param} does not apply to model {variant!r}")
    if variant == "ar1":
        if cfg["r"] is None:
            raise ConfigError("model ar1 requires --r")
        return Ar1(cfg["r"])
    if variant == "farima":
        if cfg["d"] is None:
            raise ConfigError("model farima requires --d")
        return Farima(cfg["d"], ar_poly=cfg["arpoly"] or (1.0,),
                      ma_poly=cfg["mapoly"] or (1.0,))
    if cfg["mapoly"] is None or cfg["arpoly"] is None:
        raise ConfigError("model explicit requires --mapoly (the c sequence) "
                          "and --arpoly (the a sequence)")
    return ExplicitModel(c=cfg["mapoly"], a=cfg["arpoly"])


def _build_policy(cfg: dict):
    overrides = {field: cfg[key] for key, field in _POLICY.items()
                 if cfg.get(key) is not None}
    return dataclasses.replace(DEFAULT_POLICY, **overrides)


# ---------------------------------------------------------------------------
# rendering

def _fmt_floats(values, null: bool = False):
    # 17 significant digits round-trip a double; + 0.0 folds -0.0 into plain
    # 0; JSON has no nan or inf, so with null a non-finite value is null
    values = np.asarray(values, dtype=float) + 0.0
    cells = map("%.17g".__mod__, values.tolist())
    if null and not np.isfinite(values).all():
        return np.where(np.isfinite(values), list(cells), "null").tolist()
    return cells


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "".join(_fmt_floats([value], null=True))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _rows(cols: dict, left: str = "", right: str = "", null: bool = False):
    """Each row's cells, comma-joined between left and right.  A column is
    formatted once: integers by str, floats by _fmt_floats.  Rows are filled
    by map over the columns, which makes no per-row tuple for the garbage
    collector."""
    cells = [map(str, col.tolist()) if col.dtype.kind in "iu" else _fmt_floats(col, null)
             for col in map(np.asarray, cols.values())]
    return map((left + ",".join(["{}"] * len(cols)) + right).format, *cells)


def _render_csv(cols: dict) -> str:
    return "\n".join([",".join(cols), *_rows(cols)]) + "\n"


def _render_json(meta: dict, cols: dict) -> str:
    meta_body = ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in meta.items())
    cols_body = ",".join(json.dumps(c) for c in cols)
    rows_body = ",".join(_rows(cols, "[", "]", null=True))
    return ('{"meta":{' + meta_body + '},"columns":[' + cols_body
            + '],"rows":[' + rows_body + "]}\n")


def _emit(cfg: dict, meta: dict, cols: dict) -> None:
    text = _render_csv(cols) if cfg["format"] == "csv" else _render_json(meta, cols)
    if not cfg["out"]:
        sys.stdout.write(text)
        return
    try:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {cfg['out']}: {exc}") from exc


def _meta(cfg: dict, model, extra: dict) -> dict:
    """The resolved configuration; model parameters are read off the model."""
    if isinstance(model, Ar1):
        params = {"r": model.r}
    elif isinstance(model, Farima):
        params = {"d": model.d, "arpoly": model.ar_poly.coefficients,
                  "mapoly": model.ma_poly.coefficients}
    else:
        params = {"mapoly": model.c, "arpoly": model.a}
    meta: dict = {"command": cfg["command"], "model": cfg["model"]}
    for key, value in params.items():
        # coefficient sequences print as one comma-separated string
        meta[key] = ",".join(_fmt_floats(value)) if isinstance(value, tuple) else value
    meta.update(extra)
    meta.update((key, cfg[key]) for key in (*_POLICY, "format") if key in cfg)
    return meta


# ---------------------------------------------------------------------------
# subcommands

def _cmd_coeffs(cfg: dict):
    model = _build_model(cfg)
    N = cfg["N"]
    c = expand_ma(model, N).values
    a = expand_ar(model, N).values
    gamma = autocov(model, N).values
    phi = phi_for_model(model, N) if N >= 1 else np.empty(0)
    # the predictor weight sequence starts at lag 1; the n = 0 cell holds 0
    cols = {"n": range(N + 1), "c": c, "a": a, "gamma": gamma,
            "phi": np.concatenate(([0.0], phi))}
    return _meta(cfg, model, {"N": N}), cols


def _cmd_predict(cfg: dict):
    model = _build_model(cfg)
    if cfg["n"] is None:
        raise ConfigError("predict requires --n")
    if len(cfg["n"]) != 1:
        raise ConfigError(f"predict takes a single n, got {len(cfg['n'])} values")
    (n,), m, source, terms = cfg["n"], cfg["m"], cfg["source"], cfg["terms"]
    if terms and source == "levinson":
        raise ConfigError("--terms requires the explicit source")
    policy = _build_policy(cfg)

    extra: dict = {"n": n, "m": m, "source": source, "terms": terms, "sigma2": None}
    cols: dict = {"j": range(1, n + 1)}
    if source in ("levinson", "both"):
        table = multistep_normal_solve(autocov(model, n + m), n, m)
        cols["phi_levinson"] = table.coefficients
        extra["sigma2"] = table.sigma2
    if source in ("explicit", "both"):
        result = finite_predictor_multistep(model, n, m, policy)
        cols["phi_explicit"] = result.table.coefficients
    if source == "both":
        extra["max_abs_diff"] = check_routes(result, cols["phi_levinson"])
        cols["abs_diff"] = np.abs(cols["phi_levinson"] - cols["phi_explicit"])
    if terms:
        g = np.array([s.terms for s in result.series]).T
        cols.update((f"g{k}", col) for k, col in enumerate(g, 1))
    return _meta(cfg, model, extra), cols


def _cmd_rate(cfg: dict):
    model = _build_model(cfg)
    report = rate_experiment(model, cfg["j"], cfg["n"], _build_policy(cfg))
    cols = dict(zip(("n", "phi_nj", "rate"), zip(*report.entries)))
    cols["limit"] = [report.theoretical_limit] * len(report.entries)
    extra = {"j": cfg["j"], "n": sorted(set(cfg["n"])), "limit": report.theoretical_limit,
             "extrapolated": report.extrapolated}
    return _meta(cfg, model, extra), cols


def _cmd_baxter(cfg: dict):
    model = _build_model(cfg)
    report = baxter_experiment(model, cfg["n"], _build_policy(cfg))
    extra = {"n": sorted(set(cfg["n"])), "sup_ratio": report.sup_ratio}
    return _meta(cfg, model, extra), dict(zip(("n", "lhs", "rhs", "ratio"),
                                              zip(*report.entries)))


def _cmd_dkscale(cfg: dict):
    model = _build_model(cfg)
    report = dk_scaling_experiment(model, cfg["k"], cfg["u"], cfg["n"],
                                   _build_policy(cfg))
    extra = {"k": sorted(set(cfg["k"])), "u": cfg["u"], "n": sorted(set(cfg["n"]))}
    return _meta(cfg, model, extra), dict(zip(("k", "n", "n_dk", "target"),
                                              zip(*report.entries)))


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


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports a malformed command line as a ConfigError
    (one stderr line, exit 2) instead of printing usage and exiting."""

    def error(self, message):
        raise ConfigError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="predictorlab",
        description="Finite-past predictor coefficients of stationary "
                    "processes, two independent ways, with long-memory "
                    "asymptotics experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in _DEFAULTS.items():
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--config", metavar="PATH",
                        help="key=value file merged between defaults and flags")
        for key in keys:
            if key == "terms":
                sp.add_argument("--terms", action="store_const", const=True,
                                help="append per-stage series term columns")
            elif key == "out":
                sp.add_argument("--out", metavar="PATH",
                                help="output path (default: standard output)")
            else:
                # a choice key lists its values in the usage text
                allowed = getattr(_PARSERS[key], "keywords", {}).get("allowed")
                sp.add_argument(f"--{key}",
                                metavar="{%s}" % ",".join(allowed) if allowed else None)
    return parser


def _fail(code: int, token: str, exc: Exception) -> int:
    message = " ".join(str(exc).split())
    sys.stderr.write(f"predictorlab: error={token}: {message}\n")
    return code


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one line, like the errors, without the source
    location Python's default format adds."""
    text = " ".join(str(message).split())
    sys.stderr.write(f"predictorlab: warning: {text}\n")


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _warn
        try:
            cfg = _resolve(_build_parser().parse_args(argv))
            meta, cols = _HANDLERS[cfg["command"]](cfg)
            _emit(cfg, meta, cols)
            return 0
        except SystemExit as exc:
            # --help prints and exits; the parser reports every error by raising
            return 0 if exc.code is None else int(exc.code)
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
