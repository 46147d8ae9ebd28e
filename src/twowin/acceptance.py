"""Executable acceptance checklist.

Each criterion function runs one end-to-end property at desk scale and
returns (passed, detail); ``run_all`` names and times it as a
CriterionResult with a one-line verdict.  The test suite asserts
them individually; the CLI selftest prints the lines and sets the exit code.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .signal_model import (
    GridSpec,
    Signal,
    global_phase_align,
    phase_residuals,
    random_nonseparable,
)
from .window_engine import build_window
from .stft_engine import (
    DIFFERENCE_IDENTITY_TOL,
    MeasurementSet,
    TimeNodes,
    check_difference_identity,
    default_anchor,
    measure,
)
from .local_recovery import (
    AmbiguityViolation,
    autocorrelation_from_magnitudes,
    direct_autocorrelation,
    recover_local,
    slot_reflect,
)
from .stitcher import SeparableInputError, reconstruct
from .counterexample_forge import (
    forge_quasiperiodic_flip,
    forge_rational_lattice,
    forge_separable,
    forge_wide_step,
)
from .verifier import (
    OracleConfig,
    alphabet_family,
    is_conjugate_twist_mate,
    pair_equivalent,
    trig_family,
    uniqueness_oracle,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}: {self.detail}"


def criterion_1() -> Tuple[bool, str]:
    """Roundtrip: reconstruct(measure(f)) matches f for 200 seeded signals."""
    start = time.perf_counter()  # for the 60 s budget
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    combos = [(a, b) for a in (1.0, 0.5) for b in (0.25, 0.5)]
    max_res = 0.0
    count = 0
    for ci, (a, b) in enumerate(combos):
        pair = build_window("rectangular", grid, b=b)
        gap = 2 * grid.B - a
        n_gap = grid.cells_spanned(gap)
        support_len = grid.horizon - n_gap + 1
        nodes = TimeNodes.lattice_covering(grid, a)
        for k in range(50):
            f = random_nonseparable(grid, support_len, gap, seed=ci * 50 + k)
            report = reconstruct(measure(f, pair, nodes), pair)
            max_res = max(max_res, global_phase_align(report.signal, f).residual)
            count += 1
    elapsed = time.perf_counter() - start
    passed = count == 200 and max_res <= 1e-8 and elapsed < 60.0
    return passed, (
        f"{count} roundtrips, max aligned residual {max_res:.2e}, {elapsed:.1f}s (budget 60s)"
    )


def criterion_2() -> Tuple[bool, str]:
    """Sharpness of a <= B: wide-step pairs collide, oracle finds violations."""
    worst_dev = 0.0
    worst_dist = np.inf
    for seed in (3, 4, 5):
        fp = forge_wide_step(seed=seed)
        worst_dev = max(worst_dev, fp.params["measurement_sup_dev"])
        worst_dist = min(worst_dist, fp.min_distance)
    grid = GridSpec(B=1.0, L=4, origin=4, horizon=8)
    pair = build_window("rectangular", grid)
    family, desc = alphabet_family(grid, [3, 4, 5, 6])
    report = uniqueness_oracle(
        OracleConfig(grid, pair, TimeNodes.lattice(1.5, range(-1, 2))), family, desc
    )
    passed = worst_dev <= 1e-10 and worst_dist >= 0.1 and report.violation_count >= 1
    return passed, (
        f"forge sup dev {worst_dev:.2e}, min distance {worst_dist:.3f}, "
        f"a>B oracle violations {report.violation_count}"
    )


def criterion_3() -> Tuple[bool, str]:
    """Separability sharpness: the gap pair collides and reconstruction
    refuses it loudly."""
    worst_dev = 0.0
    worst_dist = np.inf
    junction_errors = 0
    silent = 0
    for seed in (0, 1, 2):
        fp = forge_separable(seed=seed)
        worst_dev = max(worst_dev, fp.params["measurement_sup_dev"])
        worst_dist = min(worst_dist, fp.min_distance)
        try:
            reconstruct(measure(fp.f, fp.pair, fp.nodes), fp.pair)
            silent += 1
        except SeparableInputError as err:
            if str(err).startswith("separable input"):
                junction_errors += 1
    passed = worst_dev <= 1e-10 and worst_dist >= 0.1 and junction_errors == 3 and silent == 0
    return passed, (
        f"sup dev {worst_dev:.2e}, min distance {worst_dist:.3f}, "
        f"junction errors {junction_errors}/3, silent outputs {silent}"
    )


def criterion_4() -> Tuple[bool, str]:
    """Exact two-window difference identity at every node and bin."""
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    pair = build_window("rectangular", grid)
    nodes = TimeNodes.lattice_covering(grid, 1.0)
    rng = np.random.default_rng(2024)
    # each row draws its real part, then its imaginary part
    samples = np.stack([
        rng.standard_normal(grid.horizon) + 1j * rng.standard_normal(grid.horizon)
        for _ in range(50)
    ])
    max_defect = check_difference_identity(samples, pair, nodes.times)
    passed = max_defect <= DIFFERENCE_IDENTITY_TOL
    return passed, (
        f"max defect {max_defect:.2e} over 50 signals x {len(nodes.times)} nodes x "
        f"{2 * grid.L} bins"
    )


def _random_segments(seed: int) -> Iterator[Tuple[np.ndarray, MeasurementSet]]:
    """500 seeded random segments h of 2 to 10 cells, each with its
    rectangular-window measurement at the one node t = 0."""
    rng = np.random.default_rng(seed)
    for _ in range(500):
        L = int(rng.integers(2, 11))
        grid = GridSpec(B=1.0, L=L, origin=L // 2, horizon=L)
        pair = build_window("rectangular", grid)
        h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        yield h, measure(Signal(grid, h), pair, TimeNodes(mode="lattice", times=(0.0,)))


def criterion_5() -> Tuple[bool, str]:
    """Local dichotomy: survivors are only the segment and its mate."""
    ambiguity_errors = 0
    bad_survivors = 0
    missing_truth = 0
    for h, ms in _random_segments(55):
        try:
            cls = recover_local(ms.mags[0, 0], ms.mags[1, 0], ms.pair)
        except AmbiguityViolation:
            ambiguity_errors += 1
            continue
        mate = slot_reflect(h)
        allowed = [h] + ([mate] if mate is not None else [])
        if not any(phase_residuals(rep, h) <= 1e-6 for rep in cls.representatives):
            missing_truth += 1
        for rep in cls.representatives:
            if not any(phase_residuals(rep, cand) <= 1e-6 for cand in allowed):
                bad_survivors += 1
    passed = ambiguity_errors == 0 and bad_survivors == 0 and missing_truth == 0
    return passed, (
        f"500 segments: {ambiguity_errors} ambiguity errors, "
        f"{bad_survivors} foreign survivors, {missing_truth} missing the true segment"
    )


def criterion_6() -> Tuple[bool, str]:
    """Autocorrelation inversion against the direct correlation sum."""
    max_dev = 0.0
    for h, ms in _random_segments(66):
        got = autocorrelation_from_magnitudes(ms.mags[0, 0], ms.grid.delta)
        want = direct_autocorrelation(h)
        max_dev = max(max_dev, float(np.max(np.abs(got - want))))
    passed = max_dev <= 1e-10
    return passed, f"max deviation {max_dev:.2e} over 500 segments"


def criterion_7() -> Tuple[bool, str]:
    """Two-line periodic scans: incommensurate offset clean, rational offset
    violations all of the conjugate-twist form."""
    grid = GridSpec(B=1.0, L=9, origin=9, horizon=18)
    pair = build_window("rectangular", grid)
    T = 2.0
    samples, coeffs, desc = trig_family(grid, T, degree=3)
    inc = uniqueness_oracle(
        OracleConfig(grid, pair, TimeNodes.two_lines(0.0, grid.delta)), samples, desc
    )
    rat = uniqueness_oracle(
        OracleConfig(grid, pair, TimeNodes.two_lines(0.0, 3 * grid.delta)),
        samples,
        desc,
        violation_cap=10 ** 6,
    )
    structural = all(
        is_conjugate_twist_mate(coeffs[i], coeffs[j]) for i, j in rat.violation_rows
    )
    passed = inc.violation_count == 0 and rat.violation_count > 0 and structural
    return passed, (
        f"incommensurate violations {inc.violation_count}, rational violations "
        f"{rat.violation_count} (all conjugate-twist mates: {structural})"
    )


def criterion_8() -> Tuple[bool, str]:
    """Quasi-periodic flip pair reproduces the step picture exactly."""
    fp = forge_quasiperiodic_flip()
    grid = fp.f.grid
    B, T, alpha = grid.B, fp.params["T"], fp.params["alpha"]
    x = grid.coords()
    in1 = np.abs(x) < B - 1e-12
    in2 = np.abs(x - alpha * T) < B - 1e-12
    same = bool(np.allclose(fp.f.samples[in1], fp.g.samples[in1], atol=1e-14))
    flipped = bool(np.allclose(fp.f.samples[in2], -fp.g.samples[in2], atol=1e-14))
    dev = fp.params["measurement_sup_dev"]
    labels = np.array(fp.params["figure_abscissae"])
    on_grid = all(grid.is_multiple(v) for v in labels)
    jumps = set()
    for sig in (fp.f, fp.g):
        where = np.nonzero(sig.samples[1:] != sig.samples[:-1])[0] + 1
        for k in where:
            if -B - 1e-12 <= x[k] <= B + T + 1e-12:
                jumps.add(round(float(x[k]), 9))
    contained = jumps <= {round(float(v), 9) for v in labels}
    passed = same and flipped and dev <= 1e-10 and on_grid and contained
    return passed, (
        f"agree on (-B,B): {same}, flip on (aT-B,aT+B): {flipped}, sup dev {dev:.1e}, "
        f"breakpoints {sorted(jumps)} within the eight labeled abscissae: {contained}"
    )


def criterion_9() -> Tuple[bool, str]:
    """Lattice insufficiency: equal on the lattice, split by any anchor."""
    fp = forge_rational_lattice()
    grid = fp.f.grid
    a = fp.params["a"]
    lattice_dev = fp.params["measurement_sup_dev"]
    ms = [round(t / a) for t in fp.nodes.times]
    min_anchor_dev = np.inf
    for anchor in (
        default_anchor(a, grid.horizon),
        a * (0.5 + 1.0 / 7.0),
        a * 0.31830988618,
    ):
        nodes = TimeNodes.lattice_plus_anchor(a, ms, anchor)
        mf = measure(fp.f, fp.pair, nodes)
        mg = measure(fp.g, fp.pair, nodes)
        dev = np.max(np.abs(mf.mags - mg.mags), axis=2)
        min_anchor_dev = min(min_anchor_dev, float(dev[:, nodes.anchor_index].max()))
    passed = lattice_dev <= 1e-10 and min_anchor_dev >= 1e-3
    return passed, (
        f"lattice sup dev {lattice_dev:.2e}, least anchor deviation {min_anchor_dev:.3f} "
        f"over 3 incommensurate anchors"
    )


def criterion_10() -> Tuple[bool, str]:
    """Oracle and pipeline agree classwise on exhaustively scanned families."""
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, desc = alphabet_family(grid, [0, 1, 2, 3])
    disagreements = 0
    scanned = 0
    for a in (1.0, 0.5):
        nodes = TimeNodes.lattice_covering(grid, a)
        report = uniqueness_oracle(OracleConfig(grid, pair, nodes), family, desc)
        ambiguous = set(report.ambiguous_rows)
        for i in range(len(family)):
            unique = i not in ambiguous
            scanned += 1
            f = Signal(grid, family[i].copy())
            try:
                rep = reconstruct(measure(f, pair, nodes), pair)
                ok = pair_equivalent(
                    rep.signal.samples, f.samples, allow_reflection=True, tol=1e-6
                )
                outcome_unique = ok and rep.ambiguity in (
                    "phase_only", "phase_or_reflection"
                )
            except Exception:
                outcome_unique = False
            if unique != outcome_unique:
                disagreements += 1
    passed = disagreements == 0
    return passed, f"{scanned} reconstructions over 2 node sets, {disagreements} disagreements"


#: Every criterion by number, with the name its line carries.
CRITERIA: Dict[int, Tuple[str, Callable[[], Tuple[bool, str]]]] = {
    1: ("roundtrip", criterion_1),
    2: ("wide-step sharpness", criterion_2),
    3: ("separable sharpness", criterion_3),
    4: ("difference identity", criterion_4),
    5: ("local dichotomy", criterion_5),
    6: ("autocorrelation oracle", criterion_6),
    7: ("periodic two-line scans", criterion_7),
    8: ("quasi-periodic flip", criterion_8),
    9: ("lattice insufficiency", criterion_9),
    10: ("oracle/pipeline consistency", criterion_10),
}


def run_all(numbers: Optional[Sequence[int]] = None) -> List[CriterionResult]:
    """Run the selected criteria (all by default), never raising: an
    exception inside a criterion becomes a FAIL line under its name."""
    results = []
    for k in sorted(numbers) if numbers else sorted(CRITERIA):
        name, criterion = CRITERIA[k]
        start = time.perf_counter()
        try:
            passed, detail = criterion()
        except Exception as err:  # noqa: BLE001 - report, don't crash the suite
            passed, detail = False, f"raised {type(err).__name__}: {err}"
            traceback.print_exc()
        results.append(CriterionResult(k, name, bool(passed), detail, time.perf_counter() - start))
    return results
