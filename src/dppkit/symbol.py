"""Symbols on the circle: [0,1]-valued functions held as Fourier data.

Every downstream module consumes a symbol only through its Fourier
coefficients fhat(n); pointwise evaluation exists for range checks and
quadrature.  Coefficients satisfy fhat(-n) = conj(fhat(n)) exactly for
every family (symbols are real-valued).
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import HypothesisError, SymbolSpecError, require_int

RANGE_TOL = 1e-10
RANGE_GRID = 4096
DEFAULT_TRUNCATION = 100_000
ONE_SIDED_TOL = 1e-9
LOG_MIN_NORMAL = math.log(sys.float_info.min)

FAMILIES = (
    "constant",
    "raised_cosine",
    "poisson",
    "trig_poly",
    "power_decay",
    "arc_indicator",
)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SymbolSpecError(msg)


def _finite(family: str, **params) -> list[float]:
    """Each parameter as a float; a bool, a value that is not a ``numbers.Real``
    (numpy's bool, a complex, a string, None) or a non-finite one is refused."""
    out = []
    for name, v in params.items():
        try:
            out.append(float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else math.nan)
        except OverflowError:  # an int past the float range
            out.append(math.nan)
        _require(math.isfinite(out[-1]), f"{family}: parameter {name} must be a finite number")
    return out


@dataclass(frozen=True, eq=False)
class Symbol:
    """A symbol f: T -> [0,1], specified by family plus parameters.

    Use the classmethod constructors (``Symbol.constant`` etc.) or
    :func:`symbol_from_json`; the raw constructor performs no validation.
    ``table`` holds fhat(0..B) for constant, raised_cosine and trig_poly, as
    part of their representation (None for the other families).
    """

    family: str
    params: dict = field(default_factory=dict)
    table: np.ndarray | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, a: float) -> "Symbol":
        (a,) = _finite("constant", a=a)
        return cls("constant", {"a": a}, np.array([a], dtype=complex))

    @classmethod
    def raised_cosine(cls, a: float, b: float) -> "Symbol":
        """f(t) = a + b*cos(2*pi*t)."""
        a, b = _finite("raised_cosine", a=a, b=b)  # + 0.0: a zero coefficient reads +0.0, whatever the sign
        return cls("raised_cosine", {"a": a, "b": b}, np.array([a + 0.0, b / 2.0 + 0.0], dtype=complex))

    @classmethod
    def poisson(cls, c: float, r: float) -> "Symbol":
        """f(t) = c*(1-r^2)/(1-2r*cos(2*pi*t)+r^2); fhat(n) = c*r^|n|."""
        c, r = _finite("poisson", c=c, r=r)
        _require(abs(r) < 1, "poisson: need |r| < 1")
        return cls("poisson", {"c": c, "r": r})

    @classmethod
    def trig_poly(cls, coeffs: "np.ndarray | list[complex]") -> "Symbol":
        """Band-limited symbol from the coefficients fhat(0..B); fhat(-n) = conj(fhat(n))."""
        table = np.asarray(coeffs, dtype=object).ravel()  # as given: numpy reads [True, 0.1] as floats
        _require(all(isinstance(v, numbers.Complex) and not isinstance(v, bool) for v in table),
                 "trig_poly: coefficients must be numbers")
        try:
            table = table.astype(complex)
        except OverflowError:  # an int past the float range
            raise SymbolSpecError("trig_poly: non-finite coefficient") from None
        _require(table.size >= 1, "trig_poly: need at least fhat(0)")
        _require(bool(np.all(np.isfinite(table))), "trig_poly: non-finite coefficient")
        _require(abs(table[0].imag) == 0.0, "trig_poly: fhat(0) must be real")
        return cls("trig_poly", {}, table)

    @classmethod
    def power_decay(cls, a: float, c: float, p: float, cutoff: int) -> "Symbol":
        """fhat(0) = a, fhat(n) = c/|n|^p for 1 <= |n| <= cutoff."""
        a, c, p = _finite("power_decay", a=a, c=c, p=p)
        try:
            cutoff = require_int(cutoff, 1, None, "power_decay: cutoff must be an integer >= 1")
        except ValueError as exc:
            raise SymbolSpecError(str(exc)) from exc
        _require(p > 0, "power_decay: need p > 0")
        return cls("power_decay", {"a": a, "c": c, "p": p, "cutoff": cutoff})

    @classmethod
    def arc_indicator(cls, alpha: float, beta: float) -> "Symbol":
        """Indicator of the arc [alpha, beta) on [0,1); the whole circle has constant(1.0)'s table."""
        alpha, beta = _finite("arc_indicator", alpha=alpha, beta=beta)
        _require(0.0 <= alpha < beta <= 1.0, "arc_indicator: need 0 <= alpha < beta <= 1")
        table = np.array([1.0], dtype=complex) if beta - alpha >= 1.0 else None
        return cls("arc_indicator", {"alpha": alpha, "beta": beta}, table)

    # -- coefficients ---------------------------------------------------

    def coeff(self, n: int) -> complex:
        """Fourier coefficient fhat(n)."""
        return complex(self.coeffs(np.array([n]))[0])

    def coeffs(self, ns) -> np.ndarray:
        """Vectorized fhat over an integer array: float64 when
        ``has_real_coeffs`` holds, complex otherwise."""
        ns = np.asarray(ns)
        a = np.abs(ns)
        fam, p = self.family, self.params
        if self.table is not None:
            tab = self.table.real if self.has_real_coeffs else self.table
            out = np.zeros(ns.shape, dtype=tab.dtype)
            mask = a < tab.size
            vals = tab[a[mask]]
            out[mask] = np.where(ns[mask] >= 0, vals, np.conj(vals))
            return out
        if fam == "poisson":
            return p["c"] * np.float_power(p["r"], a)
        if fam == "power_decay":
            mask = (a >= 1) & (a <= p["cutoff"])
            return (np.where(ns == 0, p["a"], 0.0)
                    + np.where(mask, p["c"] * np.float_power(np.maximum(a, 1), -p["p"]), 0.0))
        if fam == "arc_indicator":
            al, be = p["alpha"], p["beta"]
            out = np.full(ns.shape, be - al, dtype=complex)
            nz = ns != 0
            nn = ns[nz].astype(float)
            out[nz] = (np.exp(-2j * np.pi * nn * al) - np.exp(-2j * np.pi * nn * be)) / (2j * np.pi * nn)
            return out
        raise SymbolSpecError(f"unknown family {fam!r}")

    @cached_property
    def fhat0(self) -> float:
        return self.coeff(0).real

    @cached_property
    def bandwidth(self) -> int | None:
        """Exact bandwidth for band-limited families, else None."""
        fam = self.family
        if self.table is not None:
            nz = np.nonzero(self.table)[0]
            return int(nz[-1]) if nz.size else 0
        if fam == "power_decay":
            return int(self.params["cutoff"]) if self.params["c"] != 0.0 else 0
        if fam == "poisson":
            return 0 if self.params["r"] == 0.0 or self.params["c"] == 0.0 else None
        return None

    @cached_property
    def geometric(self) -> tuple[float, float] | None:
        """(c, r) with fhat(n) = c r^|n| for a non-degenerate poisson symbol
        (c != 0 and r != 0), else None."""
        if self.family != "poisson" or self.bandwidth is not None:
            return None
        return self.params["c"], self.params["r"]

    @cached_property
    def has_real_coeffs(self) -> bool:
        """True when every fhat(n) is real (even symbol): ``coeffs`` is then
        float64, and every matrix formed from it real."""
        if self.table is not None:
            return bool(np.all(self.table.imag == 0.0))
        return self.family != "arc_indicator"

    # -- pointwise values ----------------------------------------------

    def eval(self, t) -> np.ndarray | float:
        """Pointwise f(t) for t in [0,1); vectorized."""
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float)) % 1.0
        fam, p = self.family, self.params
        if fam == "poisson":
            c, r = p["c"], p["r"]
            out = c * (1 - r * r) / (1 - 2 * r * np.cos(2 * np.pi * t) + r * r)
        elif fam == "arc_indicator":
            out = ((t >= p["alpha"]) & (t < p["beta"])).astype(float)
        else:
            out = self._eval_series(t)
        return float(out[0]) if scalar else out

    def _eval_series(self, t: np.ndarray) -> np.ndarray:
        bw = self.bandwidth
        out = np.full(t.shape, self.fhat0)
        chunk = 512
        for lo in range(1, bw + 1, chunk):
            ns = np.arange(lo, min(lo + chunk, bw + 1))
            cs = self.coeffs(ns)
            phases = np.exp(2j * np.pi * np.outer(t, ns))
            out = out + 2.0 * (phases @ cs).real
        return out

    def values_on_grid(self, m: int = RANGE_GRID) -> np.ndarray:
        """f at t_k = k/m, k = 0..m-1 (exact Fourier synthesis for coefficient families)."""
        fam = self.family
        if fam in ("constant", "raised_cosine", "poisson", "arc_indicator"):
            return np.asarray(self.eval(np.arange(m) / m), dtype=float)
        bw = self.bandwidth
        big = -(-(2 * bw + 2) // m) * m  # the least multiple of m that is >= 2 bw + 2
        c = np.zeros(big // 2 + 1, dtype=complex)
        c[: bw + 1] = self.coeffs(np.arange(bw + 1))
        vals = np.fft.irfft(c * big, n=big)
        return vals[:: big // m]

    # -- range information ----------------------------------------------

    @cached_property
    def _extrema(self) -> tuple[float, float]:
        fam, p = self.family, self.params
        if fam == "poisson":
            c, r = p["c"], abs(p["r"])
            lo, hi = c * (1 - r) / (1 + r), c * (1 + r) / (1 - r)
            return (lo, hi) if c >= 0 else (hi, lo)
        if self.bandwidth is None:  # an arc short of the whole circle
            return 0.0, 1.0
        if self.bandwidth <= 1:  # fhat(0) + 2 |fhat(1)| cos(2 pi t + phase)
            amp = 2.0 * abs(self.coeff(1))
            return self.fhat0 - amp, self.fhat0 + amp
        vals = self.values_on_grid(RANGE_GRID)
        return float(vals.min()), float(vals.max())

    @property
    def f_min(self) -> float:
        return self._extrema[0]

    @property
    def f_max(self) -> float:
        return self._extrema[1]

    @property
    def range_ok(self) -> bool:
        """Whether min/max of f lie in [0 - tol, 1 + tol]: tol is RANGE_TOL where
        they come from the grid (bandwidth >= 2), and 0 where they are closed form."""
        tol = RANGE_TOL if (self.bandwidth or 0) >= 2 else 0.0
        return self.f_min >= -tol and self.f_max <= 1.0 + tol

    # -- identity ---------------------------------------------------------

    def spec_dict(self) -> dict:
        """Canonical JSON-able specification (round-trips through symbol_from_json)."""
        if self.family == "trig_poly":
            coeffs = [
                {"n": int(n), "re": float(c.real), "im": float(c.imag)}
                for n, c in enumerate(self.table)
            ]
            return {"family": "trig_poly", "coeffs": coeffs}
        return {"family": self.family, "params": dict(self.params)}

    @cached_property
    def fingerprint(self) -> str:
        blob = json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- operations ------------------------------------------------------------


def require_range(sym: Symbol) -> None:
    """Raise HypothesisError unless 0 <= f <= 1 within tolerance."""
    if not sym.range_ok:
        raise HypothesisError(
            f"symbol range [{sym.f_min:.6g}, {sym.f_max:.6g}] leaves [0,1]"
        )


def contraction_margin(sym: Symbol) -> float:
    """tau = min(inf f, 1 - sup f); a non-positive value means the margin hypothesis fails."""
    return min(sym.f_min, 1.0 - sym.f_max)


def one_sidedness(sym: Symbol) -> int:
    """+1 if f >= 1/2, -1 if f <= 1/2 (each to ONE_SIDED_TOL), 0 otherwise."""
    if sym.f_min >= 0.5 - ONE_SIDED_TOL:
        return 1
    if sym.f_max <= 0.5 + ONE_SIDED_TOL:
        return -1
    return 0


@dataclass(frozen=True)
class TailSum:
    """Partial sum of n*|fhat(n)|^2 over cutoff_ell < n <= truncation_n.

    ``remainder_bound`` bounds the dropped tail beyond the truncation when
    the family's decay gives one (band-limited: 0; geometric / power with
    p > 1: closed form; otherwise None and the sum is flagged approximate).
    A geometric remainder may underflow to 0.0, so 0.0 does not mean the
    sum is exact.

    ``log_total`` is the log of ``value`` + ``remainder_bound`` (0 when
    None), formed from the log-coefficients, where that total passes below
    the normal float range (so its linear form loses digits or reads 0.0);
    None elsewhere.  A non-degenerate poisson symbol gives the log of its
    full tail sum_{n > ell} n |fhat(n)|^2 once the factor c^2 r^(2 ell + 2)
    is below the normal range.  It is None, too, where every coefficient in
    the range is exactly 0: the linear 0.0 is then exact.
    """

    cutoff_ell: int
    truncation_n: int
    value: float
    remainder_bound: float | None
    log_total: float | None

    @property
    def certified_total(self) -> float | None:
        """Upper bound on the full infinite sum, when available."""
        if self.remainder_bound is None:
            return None
        return self.value + self.remainder_bound


def tail_sum(sym: Symbol, ell: int, truncation: int = DEFAULT_TRUNCATION) -> TailSum:
    """Sum of n*|fhat(n)|^2 for ell < n <= truncation, with its remainder
    bound and log total (see ``TailSum``), each family's formula in one place."""
    need = "tail_sum: need 0 <= ell < truncation"
    ell = require_int(ell, 0, None, need)
    truncation = require_int(truncation, ell + 1, None, need)
    bw = sym.bandwidth
    hi = truncation if bw is None else min(truncation, bw)
    value = log_total = None
    rest = 0.0 if hi == bw else None  # a truncation at or past the bandwidth drops nothing
    if sym.geometric is not None:
        # sum_{n > t} n |fhat(n)|^2 = c^2 x^(t+1) (1 + t y) / y^2 with x = r^2 and
        # y = 1 - x, formed as (1 - r)(1 + r) so that it keeps its digits as r -> 1
        c, r = map(abs, sym.geometric)
        y = (1.0 - r) * (1.0 + r)
        head, rest = (c * c * r ** (2 * t + 2) * (1.0 + t * y) / (y * y) for t in (ell, truncation))
        if 2.0 * rest <= head:  # the difference cancels at most one bit
            value = head - rest
        log_head = 2.0 * math.log(c) + (2 * ell + 2) * math.log(r)
        if log_head < LOG_MIN_NORMAL:
            log_total = log_head + math.log1p(ell * y) - 2.0 * math.log(y)
    elif sym.family == "power_decay" and rest is None and sym.params["p"] > 1.0:
        # sum_{t < n <= cutoff} c^2 n^(1-2p) <= c^2 integral_t^inf x^(1-2p) dx
        c, p = sym.params["c"], sym.params["p"]
        rest = c * c * truncation ** (2 - 2 * p) / (2 * p - 2)
    if value is None and hi > ell:
        ns = np.arange(ell + 1, hi + 1)
        mags = np.abs(sym.coeffs(ns))
        value = float(np.sum(ns * mags ** 2))
        if sym.geometric is None and value + (rest or 0.0) < sys.float_info.min:
            if sym.family == "power_decay":  # its lookup reads 0.0 once c / n^p underflows
                log_c, p = math.log(abs(sym.params["c"])), sym.params["p"]
                terms = np.log(ns) + 2.0 * (log_c - p * np.log(ns))
                if hi < bw and p > 1.0:  # the remainder, even where its linear form reads 0.0
                    terms = np.append(terms, 2.0 * log_c + (2.0 - 2.0 * p) * math.log(hi)
                                      - math.log(2.0 * p - 2.0))
            else:
                with np.errstate(divide="ignore"):
                    terms = np.log(ns) + 2.0 * np.log(mags)
            top = float(terms.max())
            if top > -math.inf:
                log_total = top + math.log(float(np.sum(np.exp(terms - top))))
    return TailSum(ell, int(truncation), 0.0 if value is None else value, rest, log_total)


def g_coeff_fn(sym: Symbol) -> Callable[[np.ndarray], np.ndarray]:
    """Coefficient lookup for g = 2f - 1 (ghat(n) = 2 fhat(n) - delta_0).

    This is the range gate: every route that forms g comes through here, and
    ``require_range`` refuses a symbol with |g| > 1 before any coefficient
    is read.
    """
    require_range(sym)

    def ghat(ns):
        ns = np.asarray(ns)
        return 2.0 * sym.coeffs(ns) - (ns == 0)

    return ghat


# -- JSON ingestion ----------------------------------------------------------


def symbol_from_json(spec) -> Symbol:
    """Build a Symbol from a JSON object / JSON text per the external schema.

    Accepted shapes: {"family": <name>, "params": {...}} and
    {"family": "trig_poly", "coeffs": [{"n": 0, "re": 0.5, "im": 0.0}, ...]}
    with only n >= 0 entries (Hermitian completion is implied).  Bad JSON text
    is a plain ValueError; this checks the shape, the constructors the values.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"malformed symbol JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(spec, dict):
        raise SymbolSpecError("symbol spec must be a JSON object")
    family = spec.get("family")
    if family not in FAMILIES:
        raise SymbolSpecError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "trig_poly":
        extra = set(spec) - {"family", "coeffs"}
        _require(not extra, f"unknown fields in trig_poly spec: {sorted(extra)}")
        entries = spec.get("coeffs")
        _require(isinstance(entries, list) and entries, "trig_poly: 'coeffs' must be a non-empty list")
        seen: dict[int, complex] = {}
        for ent in entries:
            _require(isinstance(ent, dict), "trig_poly: each coefficient must be an object")
            extra = set(ent) - {"n", "re", "im"}
            _require(not extra, f"unknown fields in coefficient entry: {sorted(extra)}")
            n = ent.get("n")
            _require(isinstance(n, int) and not isinstance(n, bool), "coefficient index n must be an integer")
            _require(n >= 0, f"coefficient index n={n} rejected: only n >= 0 accepted")
            _require(n not in seen, f"duplicate coefficient index n={n}")
            seen[n] = complex(*_finite("trig_poly", re=ent.get("re", 0.0), im=ent.get("im", 0.0)))
        table = np.zeros(max(seen) + 1, dtype=complex)
        table[list(seen)] = list(seen.values())
        return Symbol.trig_poly(table)

    extra = set(spec) - {"family", "params"}
    _require(not extra, f"unknown fields in symbol spec: {sorted(extra)}")
    params = spec.get("params")
    _require(isinstance(params, dict), "'params' must be an object")
    ctor = getattr(Symbol, family)
    expected = inspect.signature(ctor).parameters
    _require(set(params) == set(expected),
             f"{family}: expected params {sorted(expected)}, got {sorted(params)}")
    return ctor(**params)
