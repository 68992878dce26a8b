"""Batch command-line front door.

Subcommands: coeffs, cylinder, psi, dimension, sample, lcs-experiment,
selftest.  Results are emitted as CSV (default) or JSON with deterministic
bytes for a fixed configuration and seed.

Exit codes: 0 success; 1 internal numeric failure; 2 hypothesis or size-cap
violation; 64 malformed symbol spec / usage.  ``main`` maps error classes to
them through ``_EXIT_CODES``.  ``--threads`` is accepted and has no effect.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dimension, lcs, measure, mixing, sampler, selftest
from .errors import ConditioningError, HypothesisError, SizeCapError, SymbolSpecError
from .symbol import Symbol, symbol_from_json

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 64


def _load_symbol(text: str) -> Symbol:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read symbol file: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed symbol JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return symbol_from_json(spec)
    except SymbolSpecError as exc:
        raise SymbolSpecError(f"invalid symbol spec: {exc}") from exc


def _parse_int_list(text: str, what: str) -> list[int]:
    """Accept 'a', 'a..b', comma lists, and 2^k tokens."""

    def one(tok: str) -> int:
        tok = tok.strip()
        if tok.startswith("2^"):
            return 2 ** int(tok[2:])
        return int(tok)

    out: list[int] = []
    try:
        for part in text.split(","):
            if ".." in part:
                lo, hi = part.split("..")
                out.extend(range(one(lo), one(hi) + 1))
            else:
                out.append(one(part))
    except ValueError as exc:
        raise ValueError(f"cannot parse {what}: {text!r}") from exc
    if not out:
        raise ValueError(f"empty {what}")
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, columns: list[str], rows: list[dict], meta: dict | None = None) -> None:
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
        if args.format == "csv":
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")
        else:
            doc = {"rows": rows}
            if meta:
                doc["meta"] = meta
            json.dump(doc, out, indent=2, sort_keys=True, default=_fmt)
            out.write("\n")
    finally:
        if args.out is not None:
            out.close()


# -- subcommands -----------------------------------------------------------


def _cmd_coeffs(args) -> int:
    sym = _load_symbol(args.symbol)
    ns = np.arange(0, args.nmax + 1)
    cs = sym.coeffs(ns)
    rows = [{"n": int(n), "re": float(c.real), "im": float(c.imag)} for n, c in zip(ns, cs)]
    _emit(args, ["n", "re", "im"], rows)
    return EXIT_OK


def _cmd_cylinder(args) -> int:
    sym = _load_symbol(args.symbol)
    rows = []
    if args.word:
        words = args.word
    elif args.N:
        if args.N > 12:
            raise SizeCapError("cylinder enumeration caps at N = 12")
        logs = measure.cylinder_log_probs_direct(sym, args.N)
        words = None
        for bits, lp in zip(measure.word_bits(args.N), logs):
            rows.append({"word": measure._word_str(bits), "probability": math.exp(lp),
                         "log2_probability": lp / math.log(2)})
    else:
        raise ValueError("cylinder: provide --word or --N")
    if words is not None:
        for w in words:
            lp = measure.cylinder_log_prob(sym, w)
            rows.append(
                {"word": w, "probability": math.exp(lp), "log2_probability": lp / math.log(2)}
            )
    _emit(args, ["word", "probability", "log2_probability"], rows)
    return EXIT_OK


def _cmd_psi(args) -> int:
    sym = _load_symbol(args.symbol)
    ells = _parse_int_list(args.ell, "--ell")
    rows = []
    for ell in ells:
        rep = mixing.psi_bound_report(sym, ell, args.truncation)
        fin = mixing.psi_finite_window(sym, ell, args.N)
        rows.append(
            {
                "ell": ell,
                "lower_bound": rep.lower_bound,
                "finite_window_N": fin.N,
                "finite_window_value": fin.value,
                "upper_bound": rep.upper_bound,
                "tau": rep.tau,
                "upper_approximate": rep.upper_approximate,
            }
        )
    _emit(
        args,
        ["ell", "lower_bound", "finite_window_N", "finite_window_value", "upper_bound", "tau",
         "upper_approximate"],
        rows,
    )
    return EXIT_OK


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse {what}: {text!r}") from exc


def _cmd_dimension(args) -> int:
    sym = _load_symbol(args.symbol)
    beta_grid = _parse_float_list(args.beta_grid, "--beta-grid") if args.beta_grid else None
    est = dimension.dim_q_estimate(sym, args.q, args.nmax, beta_grid=beta_grid)
    rows = []
    for n, l2, e in zip(est.table.N, est.table.log2_S_N, est.table.estimate_N):
        rows.append(
            {
                "q": args.q,
                "N": int(n),
                "log2_S_N": float(l2),
                "estimate_N": float(e),
                "fekete_lower": est.fekete_lower,
                "last_estimate": est.last_estimate,
                "certified": est.certified,
                "szego_lower": est.szego_lower,
                "szego_upper": est.szego_upper,
            }
        )
    _emit(
        args,
        ["q", "N", "log2_S_N", "estimate_N", "fekete_lower", "last_estimate", "certified",
         "szego_lower", "szego_upper"],
        rows,
    )
    return EXIT_OK


def _cmd_sample(args) -> int:
    sym = _load_symbol(args.symbol)
    seqs = sampler.sample_many(sym, args.n, args.trajectories, args.seed)
    header = {"symbol": sym.spec_dict(), "seed": args.seed, "n": args.n}
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
        out.write(json.dumps(header, sort_keys=True) + "\n")
        for seq in seqs:
            out.write((seq.to_hex() if args.encoding == "hex" else seq.to01()) + "\n")
    finally:
        if args.out is not None:
            out.close()
    return EXIT_OK


def _cmd_lcs(args) -> int:
    sym = _load_symbol(args.symbol)
    ns = _parse_int_list(args.ngrid, "--ngrid")
    rows_data = lcs.rate_experiment(sym, ns, args.trials, args.seed)
    rows = [
        {
            "n": r.n,
            "trials": r.trials,
            "mean_Mn": r.mean_Mn,
            "std_Mn": r.std_Mn,
            "Mn_over_ln_n": r.ratio,
            "log_Mn_over_log_n": r.ratio_loglog,
            "target": r.target,
            "target_certified": r.target_certified,
        }
        for r in rows_data
    ]
    _emit(
        args,
        ["n", "trials", "mean_Mn", "std_Mn", "Mn_over_ln_n", "log_Mn_over_log_n", "target",
         "target_certified"],
        rows,
    )
    return EXIT_OK


def _cmd_selftest(args) -> int:
    return EXIT_OK if selftest.run_selftest() else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppkit",
        description="Exact finite-window computations for stationary determinantal processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, symbol=True):
        if symbol:
            p.add_argument("--symbol", required=True,
                           help="inline JSON symbol spec, or @file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("coeffs", help="Fourier coefficients fhat(0..nmax)")
    common(p)
    p.add_argument("--nmax", type=int, default=16)
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("cylinder", help="exact cylinder probabilities")
    common(p)
    p.add_argument("--word", action="append", help="0/1 word (repeatable)")
    p.add_argument("--N", type=int, default=None, help="enumerate all words of length N")
    p.set_defaults(fn=_cmd_cylinder)

    p = sub.add_parser("psi", help="mixing bounds per gap ell")
    common(p)
    p.add_argument("--ell", default="1..6", help="gaps, e.g. 3 or 1..8 or 1,2,5")
    p.add_argument("--N", type=int, default=4, help="finite-window size")
    p.add_argument("--truncation", type=int, default=100_000)
    p.set_defaults(fn=_cmd_psi)

    p = sub.add_parser("dimension", help="moment sums and dimension estimates")
    common(p)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--beta-grid", default=None,
                   help="comma-separated betas in [-1,1] for the upper bound")
    p.set_defaults(fn=_cmd_dimension)

    p = sub.add_parser("sample", help="sample process prefixes")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trajectories", type=int, default=1)
    p.add_argument("--encoding", choices=("ascii", "hex"), default="ascii")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("lcs-experiment", help="longest-common-substring growth law")
    common(p)
    p.add_argument("--ngrid", default="2^10,2^12", help="prefix lengths, e.g. 2^12..  or 1024,4096")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(fn=_cmd_lcs)

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    common(p, symbol=False)
    p.set_defaults(fn=_cmd_selftest)
    return parser


def _json_diagnostic(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


# (error classes, exit code, stderr line); the first row that matches wins
_EXIT_CODES = (
    ((HypothesisError, SizeCapError, ConditioningError), EXIT_HYPOTHESIS, _json_diagnostic),
    ((ArithmeticError, np.linalg.LinAlgError), EXIT_NUMERIC, _json_diagnostic),
    ((ValueError,), EXIT_USAGE, lambda exc: f"error: {exc}"),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        _, code, line = next(row for row in _EXIT_CODES if isinstance(exc, row[0]))
        print(line(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
