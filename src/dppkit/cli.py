"""Batch command-line front door.

Subcommands: coeffs, cylinder, psi, dimension, sample, lcs-experiment,
selftest.  ``main`` loads the symbol once and passes it to the subcommand's
handler, which returns its column names and its rows; ``_emit`` writes them
to ``--out`` (default stdout) as CSV (default) or JSON, with deterministic
bytes for a fixed configuration and seed.  ``sample`` returns no columns,
only lines: a JSON header, then the bits of each trajectory.

Each subcommand registers only the options it reads (the README lists
them): ``--symbol`` and ``--out`` on all but selftest, ``--format`` on all
but sample and selftest, ``--seed`` on sample and lcs-experiment only;
selftest takes none.

Exit codes: 0 success; 1 internal numeric failure; 2 hypothesis or size-cap
violation, or an input too large for memory (``MemoryError``); 64 malformed
symbol spec / usage.  ``main`` maps error classes to them through
``_EXIT_CODES``.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import reprlib  # an error line quotes a rejected value cut to 30 characters
import sys

import numpy as np

from . import dimension, lcs, measure, mixing, sampler, selftest
from .errors import ConditioningError, HypothesisError, SizeCapError, SymbolSpecError
from .symbol import DEFAULT_TRUNCATION, Symbol, symbol_from_json

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
        return symbol_from_json(text)
    except SymbolSpecError as exc:
        raise SymbolSpecError(f"invalid symbol spec: {exc}") from exc


_INT_TOKEN = re.compile(r"[+-]?[0-9]{1,24}|2\^(?:6[0-3]|[1-5]?[0-9])")


def _int(text: str) -> int:
    """One integer token, as every integer option reads it: a decimal of at most 24
    digits (every bound checked is below 10^20, so a value past one is still refused
    by name), or 2^k for 0 <= k <= 63, its form checked before ``int`` reads it."""
    tok = text.strip()
    if not _INT_TOKEN.fullmatch(tok):
        raise argparse.ArgumentTypeError(f"invalid int value: {reprlib.repr(text)}")
    return 2 ** int(tok[2:]) if tok.startswith("2^") else int(tok)


def _bounded_int(lo: int, hi: int | None = None):
    """An argparse ``type``: an int in [lo, hi] (no upper bound when None), so a value
    out of range is a usage error naming its flag.  Size caps stay in the library."""

    def parse(text: str) -> int:
        value = _int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f"at least {lo}" if value < lo else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _parse_int_list(text: str, what: str, least: int) -> list[int]:
    """Accept 'a', 'a..b' and comma lists of them, each value at least ``least``.
    Each range is checked by its ends, and the count against 2^20, before any
    is expanded."""
    spans = []
    try:
        for part in text.split(","):
            ends = part.split("..")
            lo, hi = map(_int, ends if len(ends) == 2 else ends * 2)
            if lo <= hi:
                spans.append((lo, hi))
    except (ValueError, argparse.ArgumentTypeError) as exc:  # a bad token, or a part 'a..b..c'
        raise ValueError(f"cannot parse {what}: {reprlib.repr(text)}") from exc
    if not spans:
        raise ValueError(f"empty {what}")
    if min(lo for lo, _ in spans) < least:
        raise ValueError(f"{what} must be at least {least}, got {min(lo for lo, _ in spans)}")
    if sum(hi - lo + 1 for lo, hi in spans) > 2 ** 20:
        raise ValueError(f"{what} lists more than 2^20 values")
    return [value for lo, hi in spans for value in range(lo, hi + 1)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # numpy floats too, printed as plain floats
        return repr(float(value))
    return str(value)


def _emit(args, columns: tuple[str, ...] | None, rows: list) -> None:
    """Write rows to ``--out`` (default stdout): CSV or JSON keyed by the
    column names, or, when ``columns`` is None, one preformatted line per row."""
    try:
        out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from exc
    try:
        if columns is None:
            out.writelines(line + "\n" for line in rows)
        elif args.format == "csv":
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(map(_fmt, row)) + "\n")
        else:
            doc = {"rows": [dict(zip(columns, row)) for row in rows]}
            json.dump(doc, out, indent=2, sort_keys=True, default=_fmt)
            out.write("\n")
    finally:
        if args.out is not None:
            out.close()


# -- subcommands: each returns (column names, rows) ------------------------


def _cmd_coeffs(sym: Symbol, args):
    ns = np.arange(0, args.nmax + 1)
    rows = [(int(n), float(c.real), float(c.imag)) for n, c in zip(ns, sym.coeffs(ns))]
    return ("n", "re", "im"), rows


def _cmd_cylinder(sym: Symbol, args):
    if args.word and args.N is not None:
        raise ValueError("cylinder: give --word or --N, not both")
    if args.word:
        logs = [(w, measure.cylinder_log_prob(sym, w)) for w in args.word]
    elif args.N is not None:
        # first, so the library's 1 <= N <= 14 gate runs before word_bits forms 2^N words
        log_probs = measure.cylinder_log_probs_direct(sym, args.N)
        logs = zip(map(measure._word_str, measure.word_bits(args.N)), log_probs)
    else:
        raise ValueError("cylinder: provide --word or --N")
    rows = [(w, math.exp(lp), lp / math.log(2)) for w, lp in logs]
    return ("word", "probability", "log2_probability"), rows


def _cmd_psi(sym: Symbol, args):
    ells = _parse_int_list(args.ell, "--ell", 1)
    if args.truncation <= max(ells):
        raise ValueError(
            f"psi: --truncation {args.truncation} must exceed the largest --ell, {max(ells)}")
    rows = []
    for ell in ells:
        rep = mixing.psi_bound_report(sym, ell, args.truncation)
        fin = mixing.psi_finite_window(sym, ell, args.N)
        rows.append((ell, rep.lower_bound, fin.N, fin.value, rep.upper_bound, rep.tau,
                     rep.upper_approximate))
    return ("ell", "lower_bound", "finite_window_N", "finite_window_value", "upper_bound", "tau",
            "upper_approximate"), rows


def _cmd_dimension(sym: Symbol, args):
    est = dimension.dim_q_estimate(sym, args.q, args.nmax)
    szego = ((dimension.corr_dim_szego_lower(sym), dimension.corr_dim_szego_upper(sym))
             if args.q == 2 else (None, None))
    summary = (est.fekete_lower, est.last_estimate, est.certified) + szego
    rows = [(args.q, int(n), float(l2), float(e)) + summary
            for n, l2, e in zip(est.table.N, est.table.log2_S_N, est.table.estimate_N)]
    return ("q", "N", "log2_S_N", "estimate_N", "fekete_lower", "last_estimate", "certified",
            "szego_lower", "szego_upper"), rows


def _cmd_sample(sym: Symbol, args):
    """A JSON header line, then one line of bits per trajectory (no columns)."""
    seqs = sampler.sample_many(sym, args.n, args.trajectories, args.seed)
    header = {"symbol": sym.spec_dict(), "seed": args.seed, "n": args.n}
    bits = [seq.to_hex() if args.encoding == "hex" else seq.to01() for seq in seqs]
    return None, [json.dumps(header, sort_keys=True)] + bits


def _cmd_lcs(sym: Symbol, args):
    ns = _parse_int_list(args.ngrid, "--ngrid", 2)
    rows = [(r.n, r.trials, r.mean_Mn, r.std_Mn, r.ratio, r.ratio_loglog, r.target,
             r.target_certified) for r in lcs.rate_experiment(sym, ns, args.trials, args.seed)]
    return ("n", "trials", "mean_Mn", "std_Mn", "Mn_over_ln_n", "log_Mn_over_log_n", "target",
            "target_certified"), rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppkit",
        description="Exact finite-window computations for stationary determinantal processes",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True, seed=None):
        p.exit_on_error = False  # main prints a bad option value as one line
        p.add_argument("--symbol", required=True, help="inline JSON symbol spec, or @file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--seed", type=seed, default=0)

    p = sub.add_parser("coeffs", help="Fourier coefficients fhat(0..nmax)")
    common(p)
    p.add_argument("--nmax", type=_bounded_int(0, 2 ** 59), default=16)  # 0..nmax fit an array
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("cylinder", help="exact cylinder probabilities")
    common(p)
    p.add_argument("--word", action="append", help="0/1 word (repeatable)")
    p.add_argument("--N", type=_bounded_int(1), default=None,
                   help="enumerate all words of length N")
    p.set_defaults(fn=_cmd_cylinder)

    p = sub.add_parser("psi", help="mixing bounds per gap ell")
    common(p)
    p.add_argument("--ell", default="1..6", help="gaps, e.g. 3 or 1..8 or 1,2,5")
    p.add_argument("--N", type=_bounded_int(1), default=4, help="finite-window size")
    p.add_argument("--truncation", type=_bounded_int(2), default=DEFAULT_TRUNCATION)
    p.set_defaults(fn=_cmd_psi)

    p = sub.add_parser("dimension", help="moment sums and dimension estimates")
    common(p)
    p.add_argument("--q", type=_bounded_int(2), default=2)
    p.add_argument("--nmax", type=_bounded_int(1), default=12)
    p.set_defaults(fn=_cmd_dimension)

    p = sub.add_parser("sample", help="sample process prefixes")
    common(p, fmt=False, seed=_bounded_int(0))
    p.add_argument("--n", type=_bounded_int(1), required=True)
    p.add_argument("--trajectories", type=_bounded_int(1), default=1)
    p.add_argument("--encoding", choices=("ascii", "hex"), default="ascii")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("lcs-experiment", help="longest-common-substring growth law")
    common(p, seed=_bounded_int(0, 2 ** 64 - 1))
    p.add_argument("--ngrid", default="2^10,2^12", help="prefix lengths, e.g. 2^12..  or 1024,4096")
    p.add_argument("--trials", type=_bounded_int(1), default=20)
    p.set_defaults(fn=_cmd_lcs)

    sub.add_parser("selftest", help="run the built-in invariant battery")
    return parser


def _json_diagnostic(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


# (error classes, exit code, stderr line); the first row that matches wins
_EXIT_CODES = (
    ((HypothesisError, SizeCapError, ConditioningError), EXIT_HYPOTHESIS, _json_diagnostic),
    # an input too large to hold; numpy raises a private subclass, named here by its base
    ((MemoryError,), EXIT_HYPOTHESIS,
     lambda exc: json.dumps({"error": "MemoryError", "message": str(exc)})),
    ((ArithmeticError, np.linalg.LinAlgError), EXIT_NUMERIC, _json_diagnostic),
    ((ValueError,), EXIT_USAGE, lambda exc: f"error: {exc}"),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.command == "selftest":
        return EXIT_OK if selftest.run_selftest() else EXIT_NUMERIC
    try:
        _emit(args, *args.fn(_load_symbol(args.symbol), args))
    except (ValueError, ArithmeticError, MemoryError) as exc:
        _, code, line = next(row for row in _EXIT_CODES if isinstance(exc, row[0]))
        print(line(exc), file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
