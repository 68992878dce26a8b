import argparse
import json
import math
import pathlib
import re
import shlex
import shutil

import numpy as np
import pytest

import dppkit
from dppkit import Symbol, cli, cylinder_prob
from dppkit.cli import build_parser, main
from dppkit.measure import word_bits

from oracles import cylinder_log_probs_mp, s_n_q_mp

POISSON = '{"family":"poisson","params":{"c":0.5,"r":0.25}}'
FAIR = '{"family":"constant","params":{"a":0.5}}'
RC_BAD = '{"family":"raised_cosine","params":{"a":0.5,"b":0.9}}'
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(["coeffs", "--symbol", POISSON, "--nmax", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[2][1]) == pytest.approx(1.0 / 32.0)


def test_coeffs_json(capsys):
    code, out, _ = run_cli(["coeffs", "--symbol", POISSON, "--nmax", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0] == {"n": 0, "re": 0.5, "im": 0.0}


def test_coeffs_empty_rows(capsys):
    # a negative --nmax is a usage error, not a header with no rows; --nmax 0
    # prints the one row fhat(0)
    code, out, err = run_cli(["coeffs", "--symbol", POISSON, "--nmax", "-1"], capsys)
    assert code == 64 and out == "" and err == "error: argument --nmax: must be at least 0, got -1\n"
    code, out, _ = run_cli(["coeffs", "--symbol", POISSON, "--nmax", "0"], capsys)
    assert code == 0 and out == "n,re,im\n0,0.5,0.0\n"
    code, out, _ = run_cli(["coeffs", "--symbol", POISSON, "--nmax", "0", "--format", "json"],
                           capsys)
    assert code == 0 and json.loads(out) == {"rows": [{"n": 0, "re": 0.5, "im": 0.0}]}


def test_cylinder_word(capsys):
    code, out, _ = run_cli(["cylinder", "--symbol", POISSON, "--word", "11"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "word,probability,log2_probability"
    word, prob, log2p = row.split(",")
    assert word == "11"
    sym = Symbol.poisson(0.5, 0.25)
    assert float(prob) == pytest.approx(cylinder_prob(sym, "11"), rel=1e-12)
    assert float(log2p) == pytest.approx(math.log2(float(prob)), rel=1e-9)


def test_cylinder_enumeration_sums_to_one(capsys):
    code, out, _ = run_cli(["cylinder", "--symbol", POISSON, "--N", "6"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 64
    total = sum(float(r.split(",")[1]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_cylinder_enumeration_prints_plain_floats(capsys):
    # every field after the word parses as a float: the log2 column read np.float64(...)
    code, out, _ = run_cli(["cylinder", "--symbol", POISSON, "--N", "3"], capsys)
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert all(math.isfinite(float(field)) for field in line.split(",")[1:]), line


def test_psi_rows(capsys):
    code, out, _ = run_cli(["psi", "--symbol", POISSON, "--ell", "1..3", "--N", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "ell,lower_bound,finite_window_N,finite_window_value,upper_bound,tau,upper_approximate"
    )
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[5]) == pytest.approx(1.0 / 6.0, rel=1e-9)


@pytest.mark.parametrize(
    "spec, approximate",
    [
        ('{"family":"power_decay","params":{"a":0.5,"c":0.01,"p":1.0,"cutoff":1000000}}', True),
        (POISSON, False),
    ],
)
def test_psi_rows_flag_approximate_upper_bound(capsys, spec, approximate):
    code, out, _ = run_cli(["psi", "--symbol", spec, "--ell", "1", "--N", "1"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[4] != "" and row[6] == str(approximate)
    code, out, _ = run_cli(
        ["psi", "--symbol", spec, "--ell", "1", "--N", "1", "--format", "json"], capsys
    )
    assert json.loads(out)["rows"][0]["upper_approximate"] is approximate


def test_psi_truncation_not_past_largest_ell_is_usage_error(capsys):
    # the message named tail_sum, a function the command line never shows
    code, out, err = run_cli(["psi", "--symbol", POISSON, "--ell", "1..8", "--N", "2",
                              "--truncation", "5"], capsys)
    assert code == 64 and out == ""
    assert err == "error: psi: --truncation 5 must exceed the largest --ell, 8\n"
    code, _, err = run_cli(["psi", "--symbol", POISSON, "--ell", "3", "--N", "2",
                            "--truncation", "4"], capsys)
    assert code == 0 and err == ""


def test_psi_zero_coefficients_in_truncated_range(capsys):
    # fhat(2) = fhat(3) = 0: the upper bound read nan
    spec = '{"family":"trig_poly","coeffs":[{"n":0,"re":0.5},{"n":1,"re":0.1},{"n":4,"re":0.01}]}'
    code, out, err = run_cli(["psi", "--symbol", spec, "--ell", "1", "--N", "2",
                              "--truncation", "3"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "1,0.0,2,0.00043402777777777786,5e-324,0.28,True"


def test_psi_small_margin_prints_inf(capsys):
    # tau = 2e-4 > 0, and the upper bound passes the float range: it exited 1
    spec = '{"family":"trig_poly","coeffs":[{"n":0,"re":0.5},{"n":1,"re":0.2},{"n":2,"re":0.0499}]}'
    code, out, err = run_cli(["psi", "--symbol", spec, "--ell", "1..2", "--N", "2"], capsys)
    assert code == 0 and err == ""
    assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["inf", "0.0"]


def test_psi_upper_not_applicable_is_empty_field(capsys):
    arc = '{"family":"arc_indicator","params":{"alpha":0.0,"beta":0.5}}'
    code, out, _ = run_cli(["psi", "--symbol", arc, "--ell", "1", "--N", "1"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[4] == ""  # upper bound not applicable at tau = 0


def test_dimension_uniform(capsys):
    code, out, _ = run_cli(
        ["dimension", "--symbol", FAIR, "--q", "2", "--nmax", "8"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,N,log2_S_N,estimate_N,fekete_lower")
    for line in lines[1:]:
        assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-12)


def test_dimension_beta_grid_flag(capsys):
    # --beta-grid 0.0,0.5 once reached szego_upper = -log2(5/8) here; the
    # default search reaches it unaided, and the flag is a usage error
    biased = '{"family":"constant","params":{"a":0.75}}'
    code, out, _ = run_cli(["dimension", "--symbol", biased, "--nmax", "2"], capsys)
    assert code == 0
    import math
    row = out.strip().splitlines()[1].split(",")
    assert float(row[8]) == pytest.approx(-math.log2(5 / 8), abs=1e-9)
    code, out, err = run_cli(
        ["dimension", "--symbol", biased, "--nmax", "2", "--beta-grid", "0.0,0.5"], capsys
    )
    assert code == 64 and out == ""
    assert "unrecognized arguments: --beta-grid 0.0,0.5" in err


def test_sample_determinism_and_header(capsys):
    args = ["sample", "--symbol", POISSON, "--n", "64", "--seed", "9", "--trajectories", "2"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    lines = out1.strip().splitlines()
    header = json.loads(lines[0])
    assert header["n"] == 64 and header["seed"] == 9
    assert set(lines[1]) <= {"0", "1"} and len(lines[1]) == 64
    assert len(lines) == 3


def test_sample_hex_encoding(capsys):
    code, out, _ = run_cli(
        ["sample", "--symbol", FAIR, "--n", "16", "--seed", "3", "--encoding", "hex"], capsys
    )
    assert code == 0
    bits_line = out.strip().splitlines()[1]
    assert len(bits_line) == 4
    int(bits_line, 16)


def test_lcs_experiment_csv(capsys):
    code, out, _ = run_cli(
        ["lcs-experiment", "--symbol", FAIR, "--ngrid", "2^8,2^9", "--trials", "4", "--seed", "5"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "n,trials,mean_Mn,std_Mn,Mn_over_ln_n,log_Mn_over_log_n,target,target_certified"
    )
    assert len(lines) == 3
    assert int(lines[1].split(",")[0]) == 256


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        ["coeffs", "--symbol", FAIR, "--nmax", "1", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "n,re,im"


@pytest.mark.parametrize("argv, code, error", [
    (["sample", "--symbol", POISSON, "--n", str(10 ** 20)], 2,
     "SizeCapError: sample_prefix: need 1 <= n <= 2^62"),
    (["psi", "--symbol", '{"family":"arc_indicator","params":{"alpha":0.1,"beta":0.45}}',
      "--truncation", str(10 ** 19), "--ell", "1", "--N", "1"], 2,
     "SizeCapError: tail_sum: a summed truncation must be at most 2^62"),
    (["coeffs", "--symbol", FAIR, "--nmax", str(10 ** 20)], 64, "argument --nmax: must be in [0, "),
    (["coeffs", "--symbol", '{"family":"trig_poly","coeffs":[{"n":0,"re":0.5},{"n":%d,"re":0.01}]}'
      % 10 ** 20], 64, "coefficient index n=100000000000000000000 rejected: past the cap 2^62"),
    # a trig_poly table or an --nmax index range numpy cannot index once exited 64 with
    # its "array is too big", and a one-number sample 2 with an empty MemoryError
    *[(["coeffs", "--symbol", '{"family":"trig_poly","coeffs":[{"n":0,"re":0.5},{"n":%d,"re":0.01}]}' % n],
       2, f"SizeCapError: trig_poly: coefficient index n={n} needs a table of {n + 1} coefficients, past "
       "what an array can index")
      for n in (2 ** 59 - 1, 2 ** 62)],
    (["coeffs", "--symbol", FAIR, "--nmax", "2^60"], 64,
     f"argument --nmax: must be in [0, {2 ** 59}], got {2 ** 60}"),
    (["sample", "--symbol", POISSON, "--n", "2^60"], 2,
     "MemoryError: Unable to allocate 1.00 EiB for an array with shape (1152921504606846976,)"),
    # a malformed or unknown spec, a bad word, a symbol out of range and a capped count
    (["cylinder", "--symbol", "{oops", "--word", "1"], 64, "malformed symbol JSON at line 1 column 2"),
    (["cylinder", "--symbol", '{"family":"constant","params":{"a":0.5},"mystery":1}', "--word", "1"], 64,
     "unknown fields in symbol spec: ['mystery']"),
    (["cylinder", "--symbol", FAIR, "--word", "10a"], 64, "cylinder word must be a non-empty 0/1 string"),
    (["cylinder", "--symbol", RC_BAD, "--word", "1"], 2, "HypothesisError: symbol range ["),
    (["psi", "--symbol", '{"family":"power_decay","params":{"a":0.5,"c":0.1,"p":0.75,"cutoff":1000000}}'],
     2, "HypothesisError: symbol range ["),
    (["dimension", "--symbol", FAIR, "--nmax", "30"], 2, "SizeCapError: s_n_q_table: need 1 <= n_max <= 22"),
    # a band-limited symbol whose window the sampler caps, for each command that samples
    *[([command, "--symbol", '{"family":"power_decay","params":{"a":0.5,"c":0.01,"p":2,"cutoff":1000000}}',
        flag, "4096"], 2, "SizeCapError: exact sampling caps the window width at 2048, got 4096")
      for command, flag in (("sample", "--n"), ("lcs-experiment", "--ngrid"))],
], ids=["sample-n", "psi-truncation", "coeffs-nmax", "trig-poly-n", "trig-poly-n-2^59-1", "trig-poly-n-2^62",
        "coeffs-nmax-2^60", "sample-n-2^60", "malformed-json", "unknown-field", "bad-word", "range-cylinder",
        "range-psi", "cap-dimension-nmax", "wide-band-sample", "wide-band-lcs-experiment"])
def test_oversized_count_is_refused_by_name(argv, code, error, capsys):
    # an oversized count once exited 64 with numpy's "Maximum allowed size exceeded"
    # or "array is too big", or with an empty message; no allocation named succeeds.
    # Exit 2 prints a JSON diagnostic, whose error class a row names before its ": "
    got, out, err = run_cli(argv, capsys)
    assert got == code and out == ""
    assert "Maximum allowed" not in err and "array is too big" not in err
    if code == 2:
        name, _, error = error.partition(": ")
        diag = json.loads(err)
        assert diag["error"] == name
        err = diag["message"]
    assert error in err


def test_closed_form_tail_takes_any_truncation(capsys):
    # a poisson tail is a closed form: no array of the truncation's size is formed
    code, out, _ = run_cli(["psi", "--symbol", POISSON, "--truncation", str(10 ** 20), "--ell", "1",
                            "--N", "1"], capsys)
    assert code == 0 and len(out.splitlines()) == 2


def test_unresolved_prefix_mass_exit_2(capsys):
    # arc_indicator(0.1, 0.45) has range exactly [0, 1]: some words are too
    # improbable to resolve, past N = 9 for the batched determinant and past
    # N = 10 for the moment-sum walk's Schur blocks
    arc = '{"family":"arc_indicator","params":{"alpha":0.1,"beta":0.45}}'
    for argv, position in ((["dimension", "--symbol", arc, "--q", "2", "--nmax", "11"], 10),
                           (["cylinder", "--symbol", arc, "--N", "10"], 9)):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "ConditioningError"
        assert re.fullmatch(rf"prefix mass \S+ too small to resolve at position {position}: "
                            r"\|s\| = \S+, imaginary residue \S+", diag["message"])
        assert "np.float64" not in diag["message"]
    code, out, _ = run_cli(["dimension", "--symbol", arc, "--q", "2", "--nmax", "10"], capsys)
    assert code == 0 and len(out.splitlines()) == 11
    code, out, _ = run_cli(["cylinder", "--symbol", arc, "--N", "8"], capsys)
    assert code == 0 and len(out.splitlines()) == 2 ** 8 + 1


def _raising(exc_type):
    def raise_planted(*args, **kwargs):
        raise exc_type("planted")

    return raise_planted


@pytest.mark.parametrize(
    "argv, planted, code, error",
    [
        (["psi", "--symbol", "@missing.json"], None, 64, "cannot read symbol file"),
        (["psi", "--symbol", POISSON, "--ell", "1..x"], None, 64, "cannot parse --ell"),
        (["cylinder", "--symbol", POISSON], None, 64, "cylinder: provide --word or --N"),
        (["psi", "--symbol", POISSON, "--ell", "1"], dppkit.ConditioningError, 2,
         "ConditioningError"),
        (["psi", "--symbol", POISSON, "--ell", "1"], dppkit.NumericsError, 1, "NumericsError"),
        (["psi", "--symbol", POISSON, "--ell", "1"], np.linalg.LinAlgError, 1, "LinAlgError"),
        (["cylinder", "--symbol", POISSON, "--N", "0"], None, 64,
         "argument --N: must be at least 1, got 0"),
        (["coeffs", "--symbol", POISSON, "--out", "nodir/x.csv"], None, 64, "cannot write --out: "),
        (["cylinder", "--symbol", POISSON, "--word", "1", "--N", "3"], None, 64,
         "cylinder: give --word or --N, not both"),
        (["dimension", "--symbol", FAIR, "--nmax", "0"], None, 64,
         "argument --nmax: must be at least 1, got 0"),
        (["psi", "--symbol", POISSON, "--ell", "5..3"], None, 64, "empty --ell"),
        (["psi", "--symbol", POISSON, "--ell", "1"], MemoryError, 2, "MemoryError"),
        (["psi", "--symbol", POISSON, "--ell", str(2 ** 63 - 1), "--N", "2", "--truncation",
          str(2 ** 63)], None, 2, "SizeCapError: gap ell must be in [1, 2^62]"),
        # a 2^k token takes k in [0, 63]; 2^300000 once escaped as Python's
        # integer-string limit, and 2^1000 reached the --truncation message
        (["psi", "--symbol", POISSON, "--ell", "2^300000"], None, 64, "cannot parse --ell: '2^300000'"),
        (["psi", "--symbol", POISSON, "--ell", "2^1000"], None, 64, "cannot parse --ell: '2^1000'"),
        (["psi", "--symbol", POISSON, "--ell", "1,2^-1"], None, 64, "cannot parse --ell: '1,2^-1'"),
        (["lcs-experiment", "--symbol", FAIR, "--ngrid", "2^4..2^64"], None, 64,
         "cannot parse --ngrid: '2^4..2^64'"),
        (["lcs-experiment", "--symbol", FAIR, "--ngrid", "2^63"], None, 2,
         "SizeCapError: rate_experiment: n_grid must contain integers >= 2 and < 2^31"),
        # every integer token is read by one rule, and a long one is echoed
        # cut; a 41-digit --ell was once echoed whole in the --truncation message
        (["psi", "--symbol", POISSON, "--ell", str(10 ** 40)], None, 64,
         "cannot parse --ell: '100000000000...0000000000000'"),
        (["lcs-experiment", "--symbol", FAIR, "--ngrid", "2^4," + "7" * 50], None, 64,
         "cannot parse --ngrid: '2^4,77777777...7777777777777'"),
        (["sample", "--symbol", FAIR, "--n", str(10 ** 40)], None, 64,
         "argument --n: invalid int value: '100000000000...0000000000000'"),
        (["psi", "--symbol", POISSON, "--ell", "1..2", "--N", "2^64"], None, 64,
         "argument --N: invalid int value: '2^64'"),
        (["psi", "--symbol", POISSON, "--truncation", "1"], None, 64,
         "argument --truncation: must be at least 2, got 1"),
        (["psi", "--symbol", POISSON, "--ell", "1..2^63"], None, 64,
         "--ell lists more than 2^20 values"),
        # once numpy's "Maximum allowed dimension exceeded", from the range gate's grid
        (["psi", "--symbol", '{"family":"power_decay","params":{"a":0.5,"c":0.1,"p":2,"cutoff":'
          + str(10 ** 20) + "}}", "--ell", "1", "--N", "1"], None, 64,
         "invalid symbol spec: power_decay: cutoff must be an integer in [1, 2^62]"),
        # once numpy's "array is too big" at exit 64, from the range grid's FFT
        (["psi", "--symbol", '{"family":"power_decay","params":{"a":0.5,"c":0.1,"p":2,"cutoff":'
          + str(2 ** 60) + "}}", "--ell", "1", "--N", "1"], None, 2,
         f"SizeCapError: power_decay: cutoff {2 ** 60} needs a range-grid FFT of {2 ** 61 + 4096} points, "
         "past what an array can index"),
    ],
)
def test_exit_code_table(tmp_path, monkeypatch, capsys, argv, planted, code, error):
    monkeypatch.chdir(tmp_path)
    if planted is not None:
        monkeypatch.setattr(dppkit.mixing, "psi_finite_window", _raising(planted))
    got, out, err = run_cli(argv, capsys)
    assert got == code and out == ""
    if code == 64:
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
    else:
        name, _, message = error.partition(": ")
        assert json.loads(err) == {"error": name, "message": message or "planted"}


WHOLE_ARC = '{"family":"arc_indicator","params":{"alpha":0.0,"beta":1.0}}'


def test_whole_arc_cylinders_are_those_of_constant_one(capsys):
    # the arc that covers the circle is the constant 1, coefficient for coefficient
    code, out, _ = run_cli(["cylinder", "--symbol", WHOLE_ARC, "--N", "2"], capsys)
    one = run_cli(["cylinder", "--symbol", '{"family":"constant","params":{"a":1.0}}', "--N", "2"], capsys)
    assert code == 0 and (code, out) == one[:2] and len(out.splitlines()) == 5


@pytest.mark.parametrize("spec, what", [
    ('{"family":"constant","params":{"a":1.0}}', "marginal"),
    ('{"family":"constant","params":{"a":0.0}}', "marginal"),
    ('{"family":"arc_indicator","params":{"alpha":0.75,"beta":0.751}}', "joint"),
    (WHOLE_ARC, "marginal"),
], ids=["constant-1", "constant-0", "arc-0.75-0.751", "whole-arc"])
def test_psi_vanishing_cylinder_exit_2(capsys, spec, what):
    # a word of zero mass passes the range gate: a conditioning failure, as in
    # correlation_ratio, not an internal one
    code, out, err = run_cli(["psi", "--symbol", spec, "--ell", "1..2", "--N", "2"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ConditioningError",
                               "message": f"vanishing {what} in finite-window enumeration"}


def _array_memory_error() -> MemoryError:
    """numpy's own MemoryError subclass, as an allocation too large for
    memory raises it, built without allocating anything."""
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError((2 ** 40,), np.dtype(np.float64))


@pytest.mark.parametrize("argv, where", [
    (["sample", "--symbol", FAIR, "--n", str(2 ** 40)], "sampler.sample_many"),
    (["lcs-experiment", "--symbol", FAIR, "--ngrid", "2^40"], "lcs.rate_experiment"),
])
def test_numpy_memory_error_exits_2(monkeypatch, capsys, argv, where):
    # planted where the CLI calls the library: no test allocates a large array
    exc = _array_memory_error()
    assert isinstance(exc, MemoryError) and type(exc) is not MemoryError

    def raise_planted(*args, **kwargs):
        raise exc

    module, name = where.split(".")
    monkeypatch.setattr(getattr(dppkit, module), name, raise_planted)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "MemoryError", "message": str(exc)}


def test_lcs_experiment_refuses_a_seed_past_64_bits(capsys):
    argv = ["lcs-experiment", "--symbol", FAIR, "--ngrid", "2^4", "--trials", "1"]
    code, out, err = run_cli(argv + ["--seed", str(2 ** 64)], capsys)
    assert (code, out, err) == (
        64, "", f"error: argument --seed: must be in [0, {2 ** 64 - 1}], got {2 ** 64}\n")
    code, out, _ = run_cli(argv + ["--seed", str(2 ** 64 - 1)], capsys)
    assert code == 0 and len(out.splitlines()) == 2


@pytest.mark.parametrize("argv", [
    ["coeffs", "--nmax", "-1"],
    ["psi", "--ell", "0"],
    ["psi", "--N", "0"],
    ["dimension", "--nmax", "0"],
    ["dimension", "--q", "1"],
    ["cylinder", "--N", "0"],
    ["sample", "--n", "0"],
    ["sample", "--n", "4", "--trajectories", "0"],
    ["sample", "--n", "4", "--seed", "-1"],
    ["lcs-experiment", "--trials", "0"],
    ["lcs-experiment", "--ngrid", "1"],
    ["lcs-experiment", "--seed", "-1"],
    ["lcs-experiment", "--seed", str(2 ** 64)],
], ids=" ".join)
def test_usage_errors_name_the_flag(capsys, argv):
    # a count or seed below its bound (or a seed past 2^64 - 1 for
    # lcs-experiment) is refused at parse time, in one line that names the
    # flag the user set (the last one in argv), not the library function
    # behind it
    code, out, err = run_cli(argv[:1] + ["--symbol", POISSON] + argv[1:], capsys)
    assert code == 64 and out == "" and err.count("\n") == 1
    assert re.match(rf"error: (argument )?{argv[-2]}[: ]", err)
    assert not re.search(r"[a-z]+_[a-z_]+:", err)


def test_power_of_two_tokens_take_k_from_0_to_63():
    # past 2^63 a token is a parse error (see test_exit_code_table); up to it,
    # the library's caps see the value
    assert cli._parse_int_list("2^0,2^63", "--ell", 1) == [1, 2 ** 63]


@pytest.mark.parametrize("token, value", [
    ("7", 7), (" 7 ", 7), ("+7", 7), ("-7", -7), ("2^0", 1), ("2^9", 512), ("2^63", 2 ** 63),
    ("9" * 24, 10 ** 24 - 1),
    ("9" * 25, None), ("2^64", None), ("2^-1", None), ("2^07", None), ("2^300000", None),
    ("1_000", None), ("1e3", None), ("3.0", None), ("", None), ("٣", None),
])
def test_one_integer_token_rule(token, value):
    # a decimal of at most 24 digits or 2^k for k in [0, 63], read by its form
    # before int() sees it, on every integer option alike
    if value is None:
        with pytest.raises(argparse.ArgumentTypeError, match="invalid int value"):
            cli._int(token)
    else:
        assert cli._int(token) == value


def test_integer_lists_are_counted_before_they_are_expanded():
    # a range was once expanded before any bound was read, so 1..2^30 would
    # have asked for about 43 GB; 1..2^20,2^21 is one value past the count cap
    for text in ("1..2^63", "2^62..2^63", "1..2^20,2^21"):
        with pytest.raises(ValueError, match="^--ell lists more than 2\\^20 values$"):
            cli._parse_int_list(text, "--ell", 1)
    assert cli._parse_int_list("3..5,2^4, 9..8,1", "--ngrid", 1) == [3, 4, 5, 16, 1]
    with pytest.raises(ValueError, match="must be at least 2, got 1"):
        cli._parse_int_list("1..2^62", "--ngrid", 2)


def test_scalar_counts_take_power_of_two_tokens(capsys):
    # --n 2^4 was an invalid int value while --ngrid 2^4 parsed
    code, out, _ = run_cli(["sample", "--symbol", FAIR, "--n", "2^4", "--seed", "2^3"], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0])["n"] == 16 and len(out.splitlines()[1]) == 16
    assert out == run_cli(["sample", "--symbol", FAIR, "--n", "16", "--seed", "8"], capsys)[1]


def _readme_cli_examples() -> list[list[str]]:
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    commands = shlex.split(block.replace("\\\n", " "))
    examples, current = [], None
    for tok in commands:
        if tok == "dppkit":
            current = []
            examples.append(current)
        else:
            current.append(tok)
    return [argv for argv in examples if argv != ["selftest"]]


def _golden_bytes(name, argv, tmp_path, monkeypatch, capsys) -> str:
    """Run argv in tmp_path (holding symbol.json) and compare its exit code,
    stdout and stderr with tests/golden/<name>.txt.  A missing golden is
    written and the test fails, so a new one is never accepted unread; write
    goldens only from a commit whose CLI bytes are known good."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "symbol.json").write_text(POISSON, encoding="utf-8")
    code, out, err = run_cli(argv, capsys)
    got = f"$ dppkit {shlex.join(argv)}\nexit: {code}\n--- stdout\n{out}--- stderr\n{err}"
    path = GOLDEN / f"{name}.txt"
    if not path.exists():
        path.write_text(got, encoding="utf-8")
        pytest.fail(f"wrote missing golden {path.name}")
    assert got == path.read_text(encoding="utf-8")
    return code


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys, request, argv):
    name = f"readme-{request.node.callspec.id}"
    assert _golden_bytes(name, argv, tmp_path, monkeypatch, capsys) == 0


ARC = '{"family":"arc_indicator","params":{"alpha":0.1,"beta":0.45}}'
TRIG = ('{"family":"trig_poly","coeffs":[{"n":0,"re":0.5},{"n":1,"re":0.1,"im":0.12},'
        '{"n":2,"re":-0.05,"im":0.07}]}')
GOLDEN_CASES = {
    # out-of-range symbols on every subcommand (coeffs needs no range)
    "range-coeffs": ["coeffs", "--symbol", RC_BAD, "--nmax", "2"],
    "range-cylinder-word": ["cylinder", "--symbol", RC_BAD, "--word", "1"],
    "range-cylinder-N": ["cylinder", "--symbol", RC_BAD, "--N", "3"],
    "range-psi": ["psi", "--symbol", RC_BAD, "--ell", "1"],
    "range-psi-power-decay": ["psi", "--symbol", '{"family":"power_decay","params":'
                              '{"a":0.5,"c":0.1,"p":0.75,"cutoff":1000000}}'],
    "range-dimension": ["dimension", "--symbol", RC_BAD, "--nmax", "4"],
    "range-sample": ["sample", "--symbol", RC_BAD, "--n", "8"],
    "range-sample-iid": ["sample", "--symbol", '{"family":"constant","params":{"a":1.5}}',
                         "--n", "8"],
    "range-lcs": ["lcs-experiment", "--symbol", RC_BAD, "--ngrid", "16", "--trials", "2"],
    # usage errors and size caps
    "usage-missing-file": ["psi", "--symbol", "@missing.json"],
    "usage-bad-ell": ["psi", "--symbol", POISSON, "--ell", "1..x"],
    "usage-cylinder-no-word": ["cylinder", "--symbol", POISSON],
    "usage-cylinder-N0": ["cylinder", "--symbol", POISSON, "--N", "0"],
    "usage-bad-word": ["cylinder", "--symbol", FAIR, "--word", "10a"],
    "usage-malformed-json": ["cylinder", "--symbol", "{oops", "--word", "1"],
    "usage-unknown-field": ["cylinder", "--symbol",
                            '{"family":"constant","params":{"a":0.5},"mystery":1}', "--word", "1"],
    "usage-out-nodir": ["coeffs", "--symbol", POISSON, "--out", "nodir/x.csv"],
    "cap-cylinder-N15": ["cylinder", "--symbol", POISSON, "--N", "15"],
    "cap-psi-N8": ["psi", "--symbol", POISSON, "--ell", "1", "--N", "8"],
    "cap-dimension-nmax30": ["dimension", "--symbol", FAIR, "--nmax", "30"],
    # moment sums below 2^(N - 1022), which subnormal terms can move by more than one ulp
    "underflow-dimension-q200": ["dimension", "--symbol",
                                 '{"family":"poisson","params":{"c":0.75,"r":0.125}}',
                                 "--q", "200", "--nmax", "14"],
    # Szego columns of a symbol whose quadrature bounds are not 1.0
    "dimension-poisson-q2": ["dimension", "--symbol",
                             '{"family":"poisson","params":{"c":0.75,"r":0.125}}',
                             "--q", "2", "--nmax", "8"],
    # symbols with range exactly [0, 1], and a complex band-limited symbol
    "arc-cylinder-N8": ["cylinder", "--symbol", ARC, "--N", "8"],
    "arc-cylinder-N10": ["cylinder", "--symbol", ARC, "--N", "10"],
    "arc-dimension-nmax10": ["dimension", "--symbol", ARC, "--nmax", "10"],
    "arc-psi": ["psi", "--symbol", ARC, "--ell", "1..3", "--N", "5"],
    "trig-cylinder-N": ["cylinder", "--symbol", TRIG, "--N", "5"],
    "trig-cylinder-word": ["cylinder", "--symbol", TRIG, "--word", "0110", "--word", "111"],
    "trig-psi": ["psi", "--symbol", TRIG, "--ell", "1..3", "--N", "3", "--format", "json"],
    "trig-sample": ["sample", "--symbol", TRIG, "--n", "64", "--seed", "5", "--trajectories", "2"],
}


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_cli_bytes_match_golden(tmp_path, monkeypatch, capsys, name):
    _golden_bytes(name, GOLDEN_CASES[name], tmp_path, monkeypatch, capsys)


def test_arc_dimension_golden_is_within_an_ulp_of_mpmath():
    # the ten moment sums the golden prints, from the full-state Schur
    # blocks of a symbol with range exactly [0, 1], against 50 digits
    text = (GOLDEN / "arc-dimension-nmax10.txt").read_text(encoding="utf-8")
    rows = text.split("--- stdout\n", 1)[1].split("--- stderr", 1)[0].splitlines()[1:]
    got = np.array([float(row.split(",")[2]) for row in rows])
    want = np.array([float(v) for v in s_n_q_mp(Symbol.arc_indicator(0.1, 0.45), 10, 2)])
    assert got.size == 10
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


# The goldens whose bytes the CPU kernel decides.  An AVX2-only CPU is
# emulated by OpenBLAS's Haswell kernel with numpy's AVX-512 loops off; on
# this setting LAPACK's determinants of the ill-conditioned arc windows and of
# the complex trig_poly windows round differently, and nothing else moves.
# The moment-sum walk runs no LAPACK or BLAS call, so arc-dimension-nmax10
# holds there; turning numpy's AVX2 loops off too (x86-64-v2) moves it, as
# numpy's complex products then round its Schur blocks differently.
KERNEL_DEPENDENT_GOLDENS = {"arc-cylinder-N8", "arc-cylinder-N10", "arc-psi", "trig-cylinder-N"}
EMULATED_AVX2 = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _emulates_avx2() -> bool:
    """The emulation needs OpenBLAS's runtime kernel choice and AVX-512 loops to turn off."""
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return __cpu_features__.get("AVX512F", False) and "openblas" in blas.get("name", "")


@pytest.mark.skipif(not _emulates_avx2(), reason="needs OpenBLAS and a CPU with AVX512F")
def test_goldens_that_depend_on_the_cpu_kernel(fresh_python):
    proc = fresh_python("-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", __file__, "-k",
                        "test_cli_bytes_match_golden or test_readme_cli_examples_exit_0", **EMULATED_AVX2)
    moved = set(re.findall(r"^FAILED \S+::\w+\[([^\]]+)\]", proc.stdout, re.M))
    assert moved == KERNEL_DEPENDENT_GOLDENS, proc.stdout[-2000:]
    assert f"{len(GOLDEN_CASES) + len(_readme_cli_examples()) - len(moved)} passed" in proc.stdout


def test_workflow_names_tests_that_exist_under_the_emulation_they_check(fresh_python):
    # the CI step that runs tests under EMULATED_AVX2 names some by node ID and
    # sets the emulation in two env blocks: a renamed test, or a changed
    # feature list, would otherwise drop out of it silently
    text = (README.parent / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    blocks = re.findall(r"^( +)env:\n((?:\1  .*\n)+)", text, re.M)
    assert [dict(line.strip().split(": ", 1) for line in block.splitlines()) for _, block in blocks] == [
        EMULATED_AVX2, EMULATED_AVX2]
    named = re.findall(r"'(tests/[^']+::[^']+)'", text)
    assert len(named) == 3
    proc = fresh_python("-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
                        *[str(README.parent / node) for node in named])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(named) <= set(proc.stdout.splitlines())


def _readme_option_table() -> dict[str, set[str]]:
    table = README.read_text(encoding="utf-8").split("| subcommand | options |", 1)[1]
    rows = [line.split("|")[1:3] for line in table.split("\n\n", 1)[0].splitlines()
            if line.startswith("| `")]
    return {name.strip(" `"): set(re.findall(r"`([^`]+)`", options)) for name, options in rows}


def test_readme_quick_tour_runs():
    # the README's python block runs as written, as the CLI block does
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    assert "dk.lcs_length(seq, " in block
    exec(compile(block, str(README), "exec"), {})


def test_readme_option_table_matches_parser():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    registered = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert registered == _readme_option_table()


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--symbol", FAIR, "--n", "8", "--seed", "3", "--format", "json"],
        ["selftest", "--out", "f"],
        ["selftest", "--seed", "1"],
        ["psi", "--symbol", POISSON, "--ell", "1", "--N", "1", "--seed", "1"],
        ["coeffs", "--symbol", POISSON, "--seed", "1"],
        # --threads and --beta-grid are retired: every computation is
        # serial, and the beta search already reaches the convex minimum
        ["selftest", "--threads", "1"],
        ["lcs-experiment", "--symbol", FAIR, "--ngrid", "2^8", "--trials", "6", "--threads", "4"],
        ["dimension", "--symbol", '{"family":"constant","params":{"a":0.75}}', "--nmax", "2",
         "--beta-grid", "0.0,0.5"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_unread_options_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 64 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert not (tmp_path / "f").exists()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 64


def test_console_entry_point(fresh_python):
    proc = fresh_python("-m", "dppkit.cli", "cylinder", "--symbol", FAIR, "--word", "101")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "word,probability,log2_probability"


@pytest.mark.parametrize("c,r,N", [(1e-12, -0.999999, 4), (1e-17, -1e-12, 3)])
def test_cylinder_enumeration_of_a_near_empty_process_matches_mpmath(capsys, c, r, N):
    # f <= 2e-6 and f <= 1e-17: a diagonal 1 + theta g0 from the rounded g0
    # once made some determinants negative ("cylinder determinant is
    # negative", exit 1); each word against 60 digits from the exact
    # fhat(n) = c r^|n| (the worst reads 9.0e-11 and 7.1e-15)
    spec = json.dumps({"family": "poisson", "params": {"c": c, "r": r}})
    code, out, err = run_cli(["cylinder", "--symbol", spec, "--N", str(N)], capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [word for word, _, _ in rows] == ["".join(map(str, bits)) for bits in word_bits(N).tolist()]
    for (_, _, log2_p), want in zip(rows, cylinder_log_probs_mp(c, r, N)):
        assert abs(float(log2_p) * math.log(2.0) - float(want)) <= 1e-10


def test_zero_determinant_writes_nothing_to_stderr(fresh_python):
    # a window of determinant 0 is mass 0 by the probability rule, not a numpy warning
    proc = fresh_python("-m", "dppkit", "cylinder", "--symbol", '{"family":"constant","params":{"a":1.0}}',
                        "--word", "0")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "word,probability,log2_probability"


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert out.splitlines() == [f"PASS {name}" for name in (
        "symbol closed-form values",
        "cylinder hand values",
        "prefix states vs cylinder determinants",
        "determinant identities",
        "finite-window psi vs cylinder sums",
        "lcs packed codes and prefix doubling vs dp",
    )]


def _skewed_blocks(when: str) -> str:
    """A plant that skews by one part in 10^6 the Schur blocks a stack forms where ``when`` holds."""
    return ("from dppkit.measure import _SchurBlocks\n"
            "form = _SchurBlocks._form\n"
            "def skewed(self):\n"
            "    lone = len(self.kids) == 1\n"
            "    form(self)\n"
            f"    if {when}:\n"
            "        self.block = self.block * (1.0 + 1e-6)\n"
            "_SchurBlocks._form = skewed\n")


def _skewed_pivot(when: str) -> str:
    """A plant that skews by one part in 10^6 the pivot column a chain step forms where ``when`` holds."""
    return ("from dppkit.measure import _SchurChain\n"
            "step = _SchurChain.step\n"
            "def skewed(self, tp, s):\n"
            "    step(self, tp, s)\n"
            f"    if {when}:\n"
            "        self.rows[self.row] *= 1.0 + 1e-6\n"
            "        self.alphas[0] = self.rows.item(self.row, 0)\n"
            "_SchurChain.step = skewed\n")


def _skewed_psi_grid(least_r: int) -> str:
    """A plant that skews by one part in 10^6 the finite-window deviation grids of r >= least_r."""
    return ("import dppkit.mixing\n"
            "grid = dppkit.mixing._deviation_grid\n"
            "def skewed(x, y):\n"
            "    dev = grid(x, y)\n"
            f"    return dev * (1.0 + 1e-6) if x.shape[1] >= {least_r} else dev\n"
            "dppkit.mixing._deviation_grid = skewed\n")


# Each plant breaks one route that selftest must catch: a patch run before
# selftest in the interpreter that runs it, or (line, broken) for the one line
# of measure.py that a copy of the package breaks.  Under each set of
# interpreter flags of its row, selftest exits 1 and prints FAIL for the row's
# check and the row's text; with "only", that FAIL is the only one.
BOTH, OPTIMIZED = ((), ("-O",)), (("-O",),)
PREFIX_STATES, FINITE_WINDOW = "prefix states vs cylinder determinants", "finite-window psi vs cylinder sums"
SELFTEST_PLANTS = {
    # python -O strips assert statements; the battery must still catch a
    # broken cylinder probability and exit 1
    "cylinder-prob": ("import dppkit.measure\ndppkit.measure.cylinder_prob = lambda *args, **kwargs: 0.25\n",
                      OPTIMIZED, "cylinder hand values", "", False),
    # a one-number extension whose log_prob drifts by 1e-11 per bit fails
    # the battery's check against the batched determinants, also under -O
    "one-number-drift": ("from dppkit.measure import PrefixState\n"
                         "extend = PrefixState.extend\n"
                         "def drift(self, bit):\n"
                         "    child = extend(self, bit)\n"
                         "    if child._x is not None:\n"
                         "        child.log_prob += 1e-11\n"
                         "    return child\n"
                         "PrefixState.extend = drift\n", OPTIMIZED, PREFIX_STATES, "", False),
    # the moment-sum walk's Schur blocks (a whole level's children formed
    # together) off by one part in 10^6 fail the battery's moment-sum
    # check, with and without -O
    "skewed-blocks": (_skewed_blocks("True"), BOTH, PREFIX_STATES, "S_8 vs determinants of trig_poly", False),
    # the blocks of a Schur-block stack formed for one child, the shape a
    # depth-first or word-by-word walk forms, off by one part in 10^6: the
    # level-order moment sums never form such a stack, so only the walk of
    # every word catches it, with and without -O
    "skewed-lone-child": (_skewed_blocks("lone"), BOTH, PREFIX_STATES, "log mu of word 0 of trig_poly", True),
    # the replay walks the sampler's own Schur chain; each pivot column it
    # forms, off by one part in 10^6, moves the replayed conditionals of the
    # trimmed and the full-state chain off the cylinder-determinant ratios,
    # and fails the replay, also under -O
    "skewed-chain-pivot": (_skewed_pivot("self.left"), OPTIMIZED, PREFIX_STATES, "", True),
    # the same skew only where a step reads a formed view of a buffer that
    # moves, the route of every windowed chain longer than its buffer: of the
    # replays, only the 140-bit power_decay chain at reach 64 takes it (bits
    # 64 .. 75), so the 24-bit replays alone passed this plant
    "skewed-formed-view": (
        _skewed_pivot("self.views and self.left > self.reach and self.row >= self.reach"),
        OPTIMIZED, PREFIX_STATES, "of power_decay", True),
    # the sampler's Schur chain adding its gemv against the stored columns
    # where it should subtract it: the replay's trig_poly chain draws
    # another bit at seed 7 (bit 14), and the arc_indicator chain leaves
    # [0, 1] at both seeds; the formed-view and the sliced route share this
    # one update line
    "broken-schur-step": (("        np.subtract(g, (dk * a0.conj()) @ a, out=c)\n",
                           "        np.add(g, (dk * a0.conj()) @ a, out=c)\n"), BOTH, PREFIX_STATES, "", False),
    # a deviation grid off by one part in 10^6 fails the battery's check
    # against the cylinder sums, also under -O; at r >= 3 only the per-pair
    # slogdet route of arc_indicator is skewed
    "skewed-psi-grid-every-r": (_skewed_psi_grid(0), OPTIMIZED, FINITE_WINDOW, "", True),
    "skewed-psi-grid-slogdet-route": (_skewed_psi_grid(3), OPTIMIZED, FINITE_WINDOW, "", True),
}


@pytest.mark.parametrize("name", SELFTEST_PLANTS)
def test_selftest_catches_a_plant(fresh_python, tmp_path, name):
    plant, runs, check, text, only = SELFTEST_PLANTS[name]
    path = pathlib.Path(dppkit.__file__).parents[1]  # the package's own, or a broken copy
    if isinstance(plant, str):  # patched before selftest, in its interpreter
        args = ["-c", plant + "import runpy, sys\nsys.argv = ['dppkit', 'selftest']\n"
                "runpy.run_module('dppkit', run_name='__main__')\n"]
    else:  # one line of measure.py broken in a copy of the package
        line, broken = plant
        shutil.copytree(path / "dppkit", tmp_path / "dppkit", ignore=shutil.ignore_patterns("__pycache__"))
        source = (tmp_path / "dppkit" / "measure.py").read_text()
        assert source.count(line) == 1
        (tmp_path / "dppkit" / "measure.py").write_text(source.replace(line, broken))
        args, path = ["-m", "dppkit", "selftest"], tmp_path
    for flags in runs:
        proc = fresh_python(*args, flags=flags, path=path)
        assert proc.returncode == 1, (flags, proc.stdout + proc.stderr)
        assert f"FAIL {check}" in proc.stdout and text in proc.stdout, (flags, proc.stdout)
        assert not only or proc.stdout.count("FAIL") == 1, (flags, proc.stdout)
