"""A seeded contract fuzz of ``dppkit psi``.

Argument lists are drawn from one fixed-seed numpy Generator over the six
symbol families, with parameters at their edges: |r| near 1, c near 0,
coefficients at the range edge, and interior zero coefficients.  Every case
must meet the exit-code and bytes contract:

- the exit code is 0, 2 or 64, the same for CSV and JSON;
- at a nonzero exit, stdout is empty;
- at exit 0, stderr is empty (no warning either), no value is nan, and the
  JSON rows carry the CSV's numbers;
- every printed upper_bound is at least finite_window_value and at least
  lower_bound.  The finite-window value may sit below the lower bound: it is
  psi_N(ell) <= psi(ell).
"""
import csv
import io
import json
import warnings

import numpy as np
import pytest

from dppkit.cli import main

SEED = 20261020
CASES = 200

# draws that exit 1 with "cylinder determinant is negative": each diagonal
# 1 +- g0 of a window is formed from g0 = 2 fhat(0) - 1 after it is rounded
DIRECTION_6 = pytest.mark.xfail(
    strict=True, reason="ROADMAP direction 6: 1 +- g0 cancellation at |r| near 1 and c near 0")
KNOWN_FAILURES = {149}  # poisson(1e-12, -0.999999)


def _pick(rng, *options):
    return options[int(rng.integers(len(options)))]


def _tiny(rng) -> float:
    return float(10.0 ** -rng.integers(1, 13))


def _near_one(rng) -> float:
    return 1.0 - float(10.0 ** -rng.integers(1, 10))


def _symbol(rng) -> dict:
    family = _pick(rng, "constant", "raised_cosine", "poisson", "trig_poly", "power_decay",
                   "arc_indicator")
    if family == "constant":
        return {"family": family, "params": {"a": _pick(rng, 0.0, 1.0, _tiny(rng), _near_one(rng),
                                                         float(rng.uniform()))}}
    if family == "raised_cosine":
        a = _pick(rng, float(rng.uniform()), _tiny(rng), _near_one(rng))
        edge = min(a, 1.0 - a)
        b = _pick(rng, edge, -edge, edge * float(rng.uniform(-1, 1)), _tiny(rng) * edge, 0.0)
        return {"family": family, "params": {"a": a, "b": b}}
    if family == "poisson":
        r = _pick(rng, _near_one(rng), -_near_one(rng), float(rng.uniform(-1, 1)), 0.0, 1.0)
        edge = (1.0 - abs(r)) / (1.0 + abs(r))  # f_max = 1 at c = edge
        c = _pick(rng, edge, edge * _tiny(rng), edge * float(rng.uniform()), _tiny(rng), 0.0)
        return {"family": family, "params": {"c": c, "r": r}}
    if family == "trig_poly":
        bw = int(rng.integers(1, 9))
        raw = rng.uniform(-1, 1, bw) + 1j * _pick(rng, 0.0, 1.0) * rng.uniform(-1, 1, bw)
        raw[:-1] *= rng.uniform(size=bw - 1) < 0.6  # interior zeros
        c0 = _pick(rng, 0.5, float(rng.uniform()), _tiny(rng), _near_one(rng))
        raw *= _pick(rng, 1.0, float(rng.uniform())) * min(c0, 1.0 - c0) / (2 * np.abs(raw).sum())
        coeffs = [{"n": 0, "re": c0, "im": 0.0}] + [
            {"n": k + 1, "re": float(z.real), "im": float(z.imag)} for k, z in enumerate(raw)]
        return {"family": family, "coeffs": coeffs}
    if family == "power_decay":
        a = _pick(rng, 0.5, float(rng.uniform()), _tiny(rng), _near_one(rng))
        p = _pick(rng, float(rng.uniform(0.3, 3.0)), 0.5, 2.0, 8.0)
        cutoff = int(rng.integers(1, 65))
        edge = min(a, 1.0 - a) / (2.0 * float(np.sum(np.arange(1, cutoff + 1) ** -p)))
        c = _pick(rng, edge, -edge, edge * float(rng.uniform()), _tiny(rng) * edge)
        return {"family": family, "params": {"a": a, "c": c, "p": p, "cutoff": cutoff}}
    alpha = _pick(rng, 0.0, float(rng.uniform()))
    width = _pick(rng, 1.0 - alpha, _tiny(rng) * (1.0 - alpha), float(rng.uniform()) * (1.0 - alpha))
    return {"family": family, "params": {"alpha": alpha, "beta": alpha + width}}


def _argv(rng) -> list[str]:
    spec = json.dumps(_symbol(rng))
    lo = int(rng.integers(1, 7))
    ell = _pick(rng, str(lo), f"{lo}..{lo + int(rng.integers(1, 4))}", f"{lo},{lo + 3}")
    argv = ["psi", "--symbol", spec, "--ell", ell, "--N", str(int(rng.integers(1, 5)))]
    if rng.uniform() < 0.2:  # a short tail, flagged approximate, or one that no gap fits
        argv += ["--truncation", str(int(rng.integers(2, 200)))]
    return argv


def _draws() -> list:
    rng = np.random.default_rng(SEED)
    out = []
    for i in range(CASES):
        argv = _argv(rng)
        marks = [DIRECTION_6] if i in KNOWN_FAILURES else []
        out.append(pytest.param(argv, id=f"{i:03d}-{json.loads(argv[2])['family']}", marks=marks))
    return out


def _run(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


def _csv_value(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        return float(text)


@pytest.mark.parametrize("argv", _draws())
def test_psi_contract(argv, capsys):
    code, out, err = _run(argv, capsys)
    json_code, json_out, json_err = _run(argv + ["--format", "json"], capsys)
    assert code in (0, 2, 64), (code, err)
    assert (json_code, json_err) == (code, err)
    if code != 0:
        assert out == json_out == ""
        return
    assert err == ""
    assert "nan" not in out.lower() and "nan" not in json_out.lower()
    rows = [{k: _csv_value(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(out))]
    assert rows == json.loads(json_out)["rows"]
    for row in rows:
        if row["upper_bound"] is not None:
            assert row["upper_bound"] >= row["finite_window_value"]
            assert row["upper_bound"] >= row["lower_bound"]
