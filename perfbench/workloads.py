"""The four benchmark workloads and their output checks.

Each workload is a fixed list of jobs; a job is one library call sequence as
a user would make it, with its work units computed from its inputs.  A run
repeats the job list for a number of cycles, shuffled per cycle by the
workload seed.  The seed also fixes the sampler and trial seeds of every job,
so every cycle repeats the same inputs: each job's output must then equal its
cycle-0 output bit for bit, and the costly oracle checks run once per job.

Symbol parameters are fixed constants; only the seed varies between runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import dppkit as dk
from dppkit import Symbol

# fhat(0..3) of a band-limited symbol with complex coefficients; its range is
# [0.216, 0.793], so every hypothesis the workloads rely on holds.
COMPLEX_TRIG = (0.5, 0.1 + 0.05j, 0.02 - 0.01j, 0.03j)

# Counters the traced run checks against the work computed from the inputs.
COUNTED = ("measure.extend.calls", "mixing.psi_finite_window.pairs", "lcs.lcs_length.chars")


def complex_trig() -> Symbol:
    return Symbol.trig_poly(list(COMPLEX_TRIG))


def seed_of(seed: int, *key: int) -> int:
    """A 63-bit seed drawn from the workload seed and a job key."""
    state = np.random.SeedSequence([seed % 2 ** 63, *key]).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 31 ^ int(state[1])


@dataclass
class Job:
    """One call sequence.  ``check`` returns a failure message or None and
    runs outside the timed region; ``fingerprint`` gives the output bytes
    compared across cycles and hashed into the output digest."""

    key: str
    units: int
    run: Callable[[], object]
    fingerprint: Callable[[object], bytes]
    check: Callable[[object], str | None]
    expect: dict = field(default_factory=dict)   # traced counter -> exact value
    tag: str = ""    # the input property the focus layer's cost depends on


@dataclass
class Plan:
    jobs: list
    symbols: list
    warm_up: Callable[[], None]
    final_check: Callable[[list], list] = lambda outputs: []


def _expect(extend=0, pairs=0, chars=0) -> dict:
    return dict(zip(COUNTED, (extend, pairs, chars)))


# -- dimension-tree ---------------------------------------------------------


def build_dimension_tree(seed: int) -> Plan:
    """dim_q_estimate for q in {2, 3} and n_max in {12, 13, 14}; one unit is
    a prefix-tree node, 2^(n_max+1) - 2 per call.

    Why: the moment-sum tree is about 90% PrefixState.extend, used as a
    branching tree with the full inverse corner.  Real and complex symbols
    and three depths; each q=2/q=3 pair walks the same tree twice.
    """
    symbols = [Symbol.poisson(0.75, 0.125), Symbol.raised_cosine(0.75, 0.25), complex_trig()]
    names = ["poisson(0.75,0.125)", "raised_cosine(0.75,0.25)", "trig_poly(complex,B=3)"]
    oracle: dict = {}

    def reference(i: int, q: int) -> np.ndarray:
        # moment sums from subset determinants: sigma_n_2 = 2^N S_N^(2) and
        # the parity-tuple sum = 2^(2N) S_N^(3)
        if (i, q) not in oracle:
            sym = symbols[i]
            if q == 2:
                ref = [math.log2(dk.sigma_n_2(sym, n)) - n for n in range(1, 13)]
            else:
                ref = [math.log2(dk.sigma_n_q_walsh(sym, n, 3)) - 2 * n for n in range(1, 7)]
            oracle[i, q] = np.array(ref)
        return oracle[i, q]

    def make(i: int, q: int, n_max: int) -> Job:
        sym = symbols[i]

        def check(est) -> str | None:
            ref = reference(i, q)
            err = float(np.max(np.abs(est.table.log2_S_N[: ref.size] - ref)))
            return None if err <= 1e-9 else f"log2 S_N differs from the oracle by {err:.3g}"

        nodes = 2 ** (n_max + 1) - 2
        return Job(
            key=f"{names[i]} q={q} n_max={n_max}",
            units=nodes,
            run=lambda: dk.dim_q_estimate(sym, q, n_max),
            fingerprint=lambda est: est.table.log2_S_N.tobytes(),
            check=check,
            expect=_expect(extend=nodes),
            tag=f"n_max{n_max}",
        )

    def warm_up() -> None:
        for sym in symbols:
            dk.dim_q_estimate(sym, 2, 4)

    jobs = [make(i, q, n) for i in range(3) for q in (2, 3) for n in (12, 13, 14)]
    return Plan(jobs, symbols, warm_up)


# -- psi-window -------------------------------------------------------------


ELLS = range(1, 9)


def build_psi_window(seed: int) -> Plan:
    """For N in {5, 6, 7} and ell = 1..8: psi_bound_report,
    psi_finite_window, allones_lower_witness and correlation_ratio on the
    argmax pair; one unit is a word pair, 4^N per finite-window call.

    Why: the batched 2N x 2N slogdet in mixing is about 90% of the time, with
    no prefix extension.  It also runs the single-matrix toeplitz route and
    the 10^5-term tail sum of symbol, and sets the memory peak.
    """
    symbols = [Symbol.poisson(0.5, 0.25), Symbol.poisson(0.75, 0.125), complex_trig()]
    names = ["poisson(0.5,0.25)", "poisson(0.75,0.125)", "trig_poly(complex,B=3)"]

    def sequence(sym, N: int) -> list:
        out = []
        for ell in ELLS:
            bounds = dk.psi_bound_report(sym, ell)
            finite = dk.psi_finite_window(sym, ell, N)
            witness = dk.allones_lower_witness(sym, ell, N)
            ratio = dk.correlation_ratio(sym, finite.argmax_word, finite.argmax_word_prime, ell)
            out.append((bounds, finite, witness, ratio))
        return out

    def check(out) -> str | None:
        # the psi sandwich at the acceptance tolerances, and the argmax pair
        # recomputed by the single-pair route
        for bounds, finite, witness, ratio in out:
            if bounds.upper_bound is None:
                return f"ell={bounds.ell}: no upper bound"
            if witness > finite.value + 1e-12 or finite.value > bounds.upper_bound + 1e-9:
                return (f"ell={bounds.ell}: sandwich fails: {witness!r} <= {finite.value!r}"
                        f" <= {bounds.upper_bound!r}")
            if abs(abs(ratio.ratio - 1.0) - finite.value) > 1e-8 * max(1.0, finite.value):
                return f"ell={bounds.ell}: correlation_ratio gives {ratio.ratio!r}, grid {finite.value!r}"
        return None

    def fingerprint(out) -> bytes:
        values = [(b.lower_bound, b.upper_bound, f.value, f.argmax_word, f.argmax_word_prime, w, r.ratio)
                  for b, f, w, r in out]
        return repr(values).encode()

    def make(i: int, N: int) -> Job:
        sym = symbols[i]
        pairs = len(ELLS) * 4 ** N
        return Job(
            key=f"{names[i]} N={N}",
            units=pairs,
            run=lambda: sequence(sym, N),
            fingerprint=fingerprint,
            check=check,
            expect=_expect(pairs=pairs),
            tag=f"N{N}",
        )

    def warm_up() -> None:
        for sym in symbols:
            dk.psi_bound_report(sym, 1)
            finite = dk.psi_finite_window(sym, 1, 2)
            dk.allones_lower_witness(sym, 1, 2)
            dk.correlation_ratio(sym, finite.argmax_word, finite.argmax_word_prime, 1)

    jobs = [make(i, N) for i in range(3) for N in (5, 6, 7)]
    return Plan(jobs, symbols, warm_up)


# -- sample-chain -----------------------------------------------------------

CHECK_BITS = 512
TRAJECTORIES = 2


# (name, automatic window, trajectory length): the lengths give every job
# about the same cost, so job latencies form one cluster and their median
# and tail do not sit on a gap between job kinds
SAMPLE_CHAINS = (
    ("raised_cosine(0.5,0.25)", 1, 2 ** 13),
    ("trig_poly(complex,B=3)", 3, 2 ** 13),
    ("poisson(0.5,0.25)", 27, 3 * 2 ** 11),
    ("power_decay(0.5,0.1,2,64)", 64, 2 ** 12),
)


def build_sample_chain(seed: int) -> Plan:
    """sample_many with 2 trajectories on symbols whose automatic windows are
    1, 3, 27 and 64; one unit is a sampled bit.

    Why: the same measure layer as dimension-tree, but as one long windowed
    chain (extend plus conditional_one per bit) rather than a branching
    tree, so a tree-side gain that costs the chain shows here.  Window width
    is the input property sampler cost depends on.
    """
    symbols = [
        Symbol.raised_cosine(0.5, 0.25),
        complex_trig(),
        Symbol.poisson(0.5, 0.25),
        Symbol.power_decay(0.5, 0.1, 2, 64),
    ]
    full_state: dict = {}

    def make(i: int) -> Job:
        sym = symbols[i]
        name, window, n = SAMPLE_CHAINS[i]
        job_seed = seed_of(seed, 3, i)

        def check(trajectories) -> str | None:
            # the windowed chain against the full-state route, same seeds
            for t, traj in enumerate(trajectories):
                if traj.seed != job_seed ^ t or len(traj) != n:
                    return f"trajectory {t} has seed {traj.seed} and length {len(traj)}"
                if traj.seed not in full_state:
                    full_state[traj.seed] = dk.sample_prefix(sym, CHECK_BITS, traj.seed, window=None).bits
                if not np.array_equal(traj.bits[:CHECK_BITS], full_state[traj.seed]):
                    return f"trajectory {t}: first {CHECK_BITS} bits differ from the full-state route"
            return None

        bits = TRAJECTORIES * n
        return Job(
            key=f"{name} n={n}",
            units=bits,
            run=lambda: dk.sample_many(sym, n, TRAJECTORIES, job_seed),
            fingerprint=lambda trajs: b"".join(np.packbits(t.bits).tobytes() for t in trajs),
            check=check,
            expect=_expect(extend=bits),
            tag=f"w{window}",
        )

    def warm_up() -> None:
        for sym in symbols:
            dk.sample_many(sym, 64, TRAJECTORIES, 0)

    return Plan([make(i) for i in range(len(SAMPLE_CHAINS))], symbols, warm_up)


# -- lcs-growth -------------------------------------------------------------

LCS_TRIALS = 2
LCS_DP_N = 2 ** 14
# criterion 9 of the acceptance suite: relative tolerance of mean M_n / ln n
# against (2 / ln 2) / dim2, with dim2 the exact i.i.d. value
LCS_SYMBOLS = ((0.5, 1.0, 0.15), (0.75, -math.log2(5.0 / 8.0), 0.20))


def lcs_trial_inputs(sym, n: int, seed: int, trial: int):
    """The two prefixes of trial t of row 0, derived from
    SeedSequence((seed, (0, t))) as rate_experiment documents."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2 ** 64 - 1), spawn_key=(0, trial))
    sx, sy = (int(v) for v in ss.generate_state(2, dtype=np.uint64))
    return dk.sample_prefix(sym, n, sx).bits, dk.sample_prefix(sym, n, sy).bits


def build_lcs_growth(seed: int) -> Plan:
    """rate_experiment with 2 trials, dim2 given, on constant(0.5) and
    constant(0.75) for n in {2^14, 2^15, 2^16}; one unit is a character
    processed, 2n per trial.

    Why: lcs_length is about 99% of the time and the i.i.d. sampler fast path
    bypasses measure, so the predicted change for a prefix-engine change
    is none.
    """
    symbols = [Symbol.constant(a) for a, _, _ in LCS_SYMBOLS]

    def make(index: int, i: int, n: int) -> Job:
        sym = symbols[i]
        a, dim2, _ = LCS_SYMBOLS[i]
        job_seed = seed_of(seed, 4, index)

        def check(row) -> str | None:
            if row.n != n or row.trials != LCS_TRIALS:
                return f"row reports n={row.n}, trials={row.trials}"
            if n != LCS_DP_N:
                return None
            # M_n of every trial from the quadratic oracle
            values = np.array([
                dk.lcs_length_dp(*lcs_trial_inputs(sym, n, job_seed, t), n) for t in range(LCS_TRIALS)
            ], dtype=float)
            if row.mean_Mn != values.mean() or row.std_Mn != values.std(ddof=1):
                return f"M_n mean/std {row.mean_Mn}/{row.std_Mn} vs oracle values {values.tolist()}"
            return None

        chars = LCS_TRIALS * 2 * n
        return Job(
            key=f"constant({a}) n={n}",
            units=chars,
            run=lambda: dk.rate_experiment(sym, [n], LCS_TRIALS, job_seed, dim2=dim2)[0],
            fingerprint=lambda row: repr((row.mean_Mn, row.std_Mn)).encode(),
            check=check,
            expect=_expect(chars=chars),
            tag=f"n{n}",
        )

    specs = [(i, n) for i in range(2) for n in (2 ** 14, 2 ** 15, 2 ** 16)]
    jobs = [make(index, i, n) for index, (i, n) in enumerate(specs)]

    def final_check(outputs: list) -> list:
        failures = []
        for a, dim2, tol in LCS_SYMBOLS:
            rows = [out for job, out in zip(jobs, outputs) if job.key.startswith(f"constant({a}) ")]
            mean_ratio = float(np.mean([row.ratio for row in rows]))
            target = (2.0 / math.log(2.0)) / dim2
            if abs(mean_ratio - target) > tol * target:
                failures.append(f"constant({a}): mean M_n/ln n = {mean_ratio:.4f}, "
                                f"target {target:.4f} +- {tol:.0%}")
        return failures

    def warm_up() -> None:
        for sym, (_, dim2, _) in zip(symbols, LCS_SYMBOLS):
            dk.rate_experiment(sym, [256], LCS_TRIALS, 0, dim2=dim2)

    return Plan(jobs, symbols, warm_up, final_check)


@dataclass(frozen=True)
class Workload:
    unit: str
    build: Callable[[int], Plan]
    focus: str          # the layer this workload isolates
    cycle_s: float      # one cycle's job time at the seed commit, sets the cycle count
    min_cycles: int     # keeps the tail percentile inside the costliest kind of job


WORKLOADS = {
    "dimension-tree": Workload("nodes", build_dimension_tree, "measure.extend", 9.6, 3),
    "psi-window": Workload("pairs", build_psi_window, "mixing.psi_finite_window", 3.1, 4),
    "sample-chain": Workload("bits", build_sample_chain, "sampler.sample_prefix", 2.0, 7),
    "lcs-growth": Workload("chars", build_lcs_growth, "lcs.lcs_length", 1.65, 6),
}
