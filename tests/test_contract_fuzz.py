"""A seeded contract fuzz of ``dppkit psi``, ``sample``, ``dimension``,
``cylinder`` and ``lcs-experiment``.

Argument lists are drawn from fixed-seed numpy Generators over the six
symbol families, with parameters at their edges: |r| near 1, c near 0,
coefficients at the range edge, and interior zero coefficients.  Every psi
case must meet the exit-code and bytes contract:

- the exit code is 0, 2 or 64, the same for CSV and JSON;
- at a nonzero exit, stdout is empty;
- at exit 0, stderr is empty (no warning either), no value is nan, and the
  JSON rows carry the CSV's numbers;
- every printed upper_bound is at least finite_window_value and at least
  lower_bound.  The finite-window value may sit below the lower bound: it is
  psi_N(ell) <= psi(ell).

Every sample case, at 1-3 trajectories and up to 400 bits (past the first
move of a complex window-3 chain's buffer), must meet its own:

- the exit code is 0, 2 or 64, the same for both encodings;
- at a nonzero exit, stdout is empty;
- at exit 0, stderr is empty, the header is valid JSON, every bit line is
  n long (hex: n bits padded to whole bytes), hex and ascii carry the same
  bits, a rerun prints the same bytes, and line i is the one-trajectory
  run at seed s ^ i.

Every dimension case, at q in {2, 3} and --nmax 1-10, must meet its own:

- the exit code is 0, 2 or 64, the same for CSV and JSON;
- at a nonzero exit, stdout is empty;
- at exit 0, stderr is empty, the JSON rows carry the CSV's numbers, a
  rerun prints the same bytes, the N column runs 1..nmax, log2_S_N does
  not increase with N (within 1e-12 relative), fekete_lower is the largest
  estimate_N and last_estimate the last one, and the Szego columns are
  filled only at q = 2.

Every cylinder case, at --N 1-10 or 1-3 --word of length 1-40, must meet
its own:

- the exit code is 0, 1, 2 or 64, the same for CSV and JSON;
- at a nonzero exit, stdout is empty;
- at exit 0, stderr is empty, the JSON rows carry the CSV's values, a rerun
  prints the same bytes, log2_probability is log2 of probability within
  1e-12 relative wherever the probability is positive, and at --N the
  probabilities sum to 1 within 1e-9.

Every lcs-experiment case, at 1-4 --ngrid values in 2..2^8 and --trials
2-3, runs both matrix roots: the moment sums of the default dim2 (to
DIM2_NMAX) and the sampler's chains.  It must meet its own:

- the exit code is 0, 2 or 64, the same for CSV and JSON;
- at a nonzero exit, stdout is empty;
- at exit 0, stderr is empty, the JSON rows carry the CSV's numbers, a
  rerun prints the same bytes, and the n column lists the --ngrid values
  with the --trials count on each row.
"""
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from dppkit import Symbol
from dppkit.cli import main

from oracles import psi_finite_window_mp

SEED = 20261020  # psi; sample, dimension, cylinder and lcs-experiment draw from SEED + 1 .. SEED + 4


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


def _psi_argv(rng) -> list[str]:
    spec = json.dumps(_symbol(rng))
    lo = int(rng.integers(1, 7))
    ell = _pick(rng, str(lo), f"{lo}..{lo + int(rng.integers(1, 4))}", f"{lo},{lo + 3}")
    argv = ["psi", "--symbol", spec, "--ell", ell, "--N", str(int(rng.integers(1, 5)))]
    if rng.uniform() < 0.2:  # a short tail, flagged approximate, or one that no gap fits
        argv += ["--truncation", str(int(rng.integers(2, 200)))]
    return argv


def _draws(seed: int, count: int, draw) -> list:
    """``count`` argument lists drawn by ``draw`` from one Generator seeded
    ``seed``, each with the id of its number and its symbol's family."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        argv = draw(rng)
        out.append(pytest.param(argv, id=f"{i:03d}-{json.loads(argv[2])['family']}"))
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


PSI_DRAWS = _draws(SEED, 200, _psi_argv)


@pytest.mark.parametrize("argv", PSI_DRAWS)
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


def _sample_argv(rng) -> list[str]:
    return ["sample", "--symbol", json.dumps(_symbol(rng)), "--n", str(int(rng.integers(1, 401))),
            "--trajectories", str(int(rng.integers(1, 4))), "--seed", str(int(rng.integers(2 ** 32)))]


def _bit_lines(argv, capsys, encoding):
    code, out, err = _run(argv + ["--encoding", encoding], capsys)
    lines = out.splitlines()
    if code == 0:
        assert err == ""
        assert json.loads(lines[0])["n"] == int(argv[argv.index("--n") + 1])
    return code, out, lines[1:]


@pytest.mark.parametrize("argv", _draws(SEED + 1, 100, _sample_argv))
def test_sample_contract(argv, capsys):
    n, seed = (int(argv[argv.index(flag) + 1]) for flag in ("--n", "--seed"))
    code, out, ascii_lines = _bit_lines(argv, capsys, "ascii")
    hex_code, hex_out, hex_lines = _bit_lines(argv, capsys, "hex")
    assert code in (0, 2, 64)
    assert hex_code == code
    if code != 0:
        assert out == hex_out == ""
        return
    assert len(ascii_lines) == len(hex_lines) == int(argv[argv.index("--trajectories") + 1])
    for text, packed in zip(ascii_lines, hex_lines):
        assert len(text) == n and set(text) <= {"0", "1"}
        assert len(packed) == 2 * -(-n // 8)
        assert np.array_equal(np.unpackbits(np.frombuffer(bytes.fromhex(packed), np.uint8))[:n],
                              np.array(list(text), dtype=np.uint8))
    assert _run(argv + ["--encoding", "ascii"], capsys)[1] == out
    for i, text in enumerate(ascii_lines):
        single = argv[:argv.index("--trajectories")] + ["--seed", str(seed ^ i)]
        assert _bit_lines(single, capsys, "ascii")[2] == [text]


def _dimension_argv(rng) -> list[str]:
    return ["dimension", "--symbol", json.dumps(_symbol(rng)), "--q", str(_pick(rng, 2, 3)),
            "--nmax", str(int(rng.integers(1, 11)))]


@pytest.mark.parametrize("argv", _draws(SEED + 2, 100, _dimension_argv))
def test_dimension_contract(argv, capsys):
    q, nmax = (int(argv[argv.index(flag) + 1]) for flag in ("--q", "--nmax"))
    code, out, err = _run(argv, capsys)
    json_code, json_out, json_err = _run(argv + ["--format", "json"], capsys)
    assert code in (0, 2, 64), (code, err)
    assert (json_code, json_err) == (code, err)
    if code != 0:
        assert out == json_out == ""
        return
    assert err == ""
    rows = [{k: _csv_value(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(out))]
    assert rows == json.loads(json_out)["rows"]
    assert _run(argv, capsys)[1] == out
    assert [row["N"] for row in rows] == list(range(1, nmax + 1))
    log2s = [row["log2_S_N"] for row in rows]
    for a, b in zip(log2s, log2s[1:]):
        assert b <= a + 1e-12 * max(abs(a), abs(b)), (a, b)
    estimates = [row["estimate_N"] for row in rows]
    assert all(row["fekete_lower"] == max(estimates) for row in rows)
    assert all(row["last_estimate"] == estimates[-1] for row in rows)
    for row in rows:
        assert row["q"] == q
        assert (row["szego_lower"] is not None, row["szego_upper"] is not None) == (q == 2, q == 2)


def test_psi_draw_149_matches_mpmath(capsys):
    # poisson(1e-12, -0.999999), once refused with "cylinder determinant is
    # negative": each marginal window's diagonal came from the rounded g0.
    # Its three finite-window values against 50-digit determinants
    argv = PSI_DRAWS[149].values[0]
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["ell"]) for row in rows] == [6, 7, 8]
    sym = Symbol.poisson(1e-12, -0.999999)
    assert json.loads(argv[2]) == {"family": "poisson", "params": {"c": 1e-12, "r": -0.999999}}
    for row in rows:
        want = psi_finite_window_mp(sym, int(row["ell"]), 4)
        assert float(row["finite_window_value"]) == pytest.approx(want, rel=1e-15)


def _cylinder_argv(rng) -> list[str]:
    argv = ["cylinder", "--symbol", json.dumps(_symbol(rng))]
    if rng.uniform() < 0.5:
        return argv + ["--N", str(int(rng.integers(1, 11)))]
    for _ in range(int(rng.integers(1, 4))):
        argv += ["--word", "".join(map(str, rng.integers(0, 2, int(rng.integers(1, 41)))))]
    return argv


@pytest.mark.parametrize("argv", _draws(SEED + 3, 100, _cylinder_argv))
def test_cylinder_contract(argv, capsys):
    code, out, err = _run(argv, capsys)
    json_code, json_out, json_err = _run(argv + ["--format", "json"], capsys)
    assert code in (0, 1, 2, 64), (code, err)
    assert (json_code, json_err) == (code, err)
    if code != 0:
        assert out == json_out == ""
        return
    assert err == ""
    rows = [{"word": row["word"], "probability": float(row["probability"]),
             "log2_probability": float(row["log2_probability"])}
            for row in csv.DictReader(io.StringIO(out))]
    assert rows == json.loads(json_out)["rows"]
    assert _run(argv, capsys)[1] == out
    for row in rows:
        if row["probability"] > 0.0:
            assert row["log2_probability"] == pytest.approx(math.log2(row["probability"]), rel=1e-12)
    if "--N" in argv:
        n = int(argv[argv.index("--N") + 1])
        assert len(rows) == 2 ** n
        assert math.fsum(row["probability"] for row in rows) == pytest.approx(1.0, abs=1e-9)
    else:
        assert [row["word"] for row in rows] == argv[4::2]


def _lcs_argv(rng) -> list[str]:
    spec = json.dumps(_symbol(rng))
    lo = int(rng.integers(2, 2 ** 8 + 1))
    powers = sorted({int(k) for k in rng.integers(1, 9, int(rng.integers(1, 4)))})
    ngrid = _pick(rng, ",".join(f"2^{k}" for k in powers), str(lo),
                  f"{lo}..{min(lo + int(rng.integers(1, 4)), 2 ** 8)}")
    return ["lcs-experiment", "--symbol", spec, "--ngrid", ngrid, "--trials", str(int(rng.integers(2, 4))),
            "--seed", str(int(rng.integers(2 ** 32)))]


def _ngrid_values(text: str) -> list[int]:
    """The n of each row, read off the --ngrid forms the draws use."""
    if ".." in text:
        lo, hi = map(int, text.split(".."))
        return list(range(lo, hi + 1))
    return [2 ** int(v[2:]) if v.startswith("2^") else int(v) for v in text.split(",")]


@pytest.mark.parametrize("argv", _draws(SEED + 4, 60, _lcs_argv))
def test_lcs_experiment_contract(argv, capsys):
    code, out, err = _run(argv, capsys)
    json_code, json_out, json_err = _run(argv + ["--format", "json"], capsys)
    assert code in (0, 2, 64), (code, err)
    assert (json_code, json_err) == (code, err)
    if code != 0:
        assert out == json_out == ""
        return
    assert err == ""
    rows = [{k: _csv_value(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(out))]
    assert rows == json.loads(json_out)["rows"]
    assert _run(argv, capsys)[1] == out
    assert [row["n"] for row in rows] == _ngrid_values(argv[argv.index("--ngrid") + 1])
    assert all(row["trials"] == int(argv[argv.index("--trials") + 1]) for row in rows)
