"""The four seeded workloads: their inputs, the timed call and the output check.

Every workload is a closed loop with one caller: item ``i`` is prepared
(untimed), run (timed) and checked (untimed) before item ``i + 1`` starts.
Items come in cycles that keep the input mix balanced, and a run always
ends on a whole cycle.  The seed only shapes the generated inputs; the
library sees nothing but those inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from twowin import stft_engine, stitcher, verifier
from twowin.signal_model import GridSpec, Signal, global_phase_align, random_nonseparable
from twowin.stft_engine import TimeNodes
from twowin.verifier import (
    FINGERPRINT_QUANTUM,
    OracleConfig,
    alphabet_family,
    is_conjugate_twist_mate,
    pair_equivalent,
    trig_family,
)
from twowin.window_engine import build_window

#: Aligned roundtrip residual above which a reconstruction counts as wrong
#: (the tolerance of acceptance criterion 1).
ROUNDTRIP_TOL = 1e-8

#: Violations materialised per scan, as in acceptance criteria 7 and 10.
VIOLATION_CAP = 10 ** 6

OK, ERROR, WRONG = "ok", "error", "wrong"


@dataclass(frozen=True)
class Calls:
    """The layer entry points the benchmark calls at its own call sites.

    The traced run swaps in wrappers that record a span per call.
    """

    measure: Callable
    reconstruct: Callable
    uniqueness_oracle: Callable


UNTRACED = Calls(stft_engine.measure, stitcher.reconstruct, verifier.uniqueness_oracle)


@dataclass
class Item:
    """One timed call and the check of what it returned.

    ``check`` gets the return value, or ``None`` with the exception when the
    call raised, and answers ``OK``, ``ERROR`` (a raised error the item did
    not expect: a failure, but no wrong output) or ``WRONG`` (a returned
    result that is wrong).  ``signals`` and ``cells`` count the input
    signals and their horizon cells; ``kind`` names the input class of the
    mix the item belongs to.  Items with the same ``key`` repeat one input;
    ``None`` marks an input no other item repeats.
    """

    run: Callable[[Calls], Any]
    check: Callable[[Any, Optional[BaseException]], str]
    signals: int
    cells: int
    kind: str
    key: Any = None


def _signal_seeds(seed: int, stream: int, n: int) -> List[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2 ** 31, size=n)]


@dataclass(frozen=True)
class _Roundtrip:
    """reconstruct(measure(f)) at one grid, window and lattice."""

    grid: GridSpec
    pair: Any
    nodes: TimeNodes
    support_len: int
    gap: float

    @classmethod
    def build(cls, grid: GridSpec, a: float, b: float) -> "_Roundtrip":
        gap = 2 * grid.B - a
        n_gap = int(np.ceil(gap / grid.delta - 1e-9))
        return cls(
            grid=grid,
            pair=build_window("rectangular", grid, b=b),
            nodes=TimeNodes.lattice_covering(grid, a),
            support_len=grid.horizon - n_gap + 1,
            gap=gap,
        )

    def signal(self, seed: int) -> Signal:
        return random_nonseparable(self.grid, self.support_len, self.gap, seed=seed)

    def item(self, f: Signal) -> Item:
        def run(calls: Calls):
            return calls.reconstruct(calls.measure(f, self.pair, self.nodes), self.pair)

        def check(report, exc) -> str:
            if exc is not None:
                return ERROR
            residual = global_phase_align(report.signal, f).residual
            return OK if residual <= ROUNDTRIP_TOL else WRONG

        kind = f"h{self.grid.horizon}-a{self.nodes.a}-b{self.pair.b}"
        return Item(run, check, signals=1, cells=self.grid.horizon, kind=kind)


MIX_GRID = GridSpec(B=1.0, L=8, origin=32, horizon=64)


class Workload:
    """Inputs for one run; ``prepare(i)`` gives item ``i`` of the sequence."""

    name: str
    #: Items per cycle; a run measures whole cycles.
    cycle: int
    #: Rough wall time of one cycle on a 2-core Xeon with Python 3.11.  It
    #: fixes how many cycles a run of given seconds holds, so the item set,
    #: and every count, depends on the seed and seconds alone.
    nominal_cycle_s: float
    #: Fewest cycles in a run, however short --seconds is.
    min_cycles = 1

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.n_cycles = max(self.min_cycles, round(seconds / self.nominal_cycle_s))

    def items(self) -> int:
        """Items in a run."""
        return self.cycle * self.n_cycles

    def warm_up(self, calls: Calls) -> None:
        """One horizon-64 roundtrip outside the timed set, so lazy set-up in
        numpy and the library is paid before timing starts."""
        case = _Roundtrip.build(MIX_GRID, 1.0, 0.25)
        case.item(case.signal(0)).run(calls)

    def prepare(self, i: int) -> Item:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {}


class RoundtripMix(Workload):
    """Criterion 1's mix: horizon 64, L = 8, a in {1, 0.5} x b in {0.25, 0.5}."""

    name = "roundtrip-mix"
    cycle = 4
    nominal_cycle_s = 0.65

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.cases = [
            _Roundtrip.build(MIX_GRID, a, b) for a in (1.0, 0.5) for b in (0.25, 0.5)
        ]
        seeds = _signal_seeds(seed, 1, self.items())
        self.signals = [self.cases[k % self.cycle].signal(s) for k, s in enumerate(seeds)]

    def prepare(self, i: int) -> Item:
        return self.cases[i % self.cycle].item(self.signals[i])


class RoundtripLong(Workload):
    """Long signals: horizon 1024 then 4096, L = 8, a = B, b = 0.25."""

    name = "roundtrip-long"
    cycle = 2
    nominal_cycle_s = 11.6
    min_cycles = 2  # one cycle is two calls, too few to average out host noise
    HORIZONS = (1024, 4096)

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.cases = [
            _Roundtrip.build(GridSpec(B=1.0, L=8, origin=h // 2, horizon=h), 1.0, 0.25)
            for h in self.HORIZONS
        ]
        seeds = _signal_seeds(seed, 2, self.items())
        self.signals = [self.cases[k % self.cycle].signal(s) for k, s in enumerate(seeds)]

    def prepare(self, i: int) -> Item:
        return self.cases[i % self.cycle].item(self.signals[i])


class OraclePeriodic(Workload):
    """Criterion 7: two-line scans of the degree-3 trig family, offsets
    delta (incommensurate) and 3 delta (rational)."""

    name = "oracle-periodic"
    cycle = 2
    nominal_cycle_s = 2.8
    GRID = GridSpec(B=1.0, L=9, origin=9, horizon=18)
    #: (class count, violation count) of each scan over the 78,125 rows,
    #: which no row order may change.
    REFERENCE = ((19532, 0), (19521, 176))
    _PROBE = np.random.default_rng(0).standard_normal(GRID.horizon)

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        grid = self.GRID
        pair = build_window("rectangular", grid)
        self.samples, self.coeffs, self.desc = trig_family(grid, 2.0, degree=3)
        self.configs = [
            OracleConfig(grid, pair, TimeNodes.two_lines(0.0, grid.delta)),
            OracleConfig(grid, pair, TimeNodes.two_lines(0.0, 3 * grid.delta)),
        ]
        self._key = None  # each row's projection on _PROBE, made at the first check
        self._rows = (-1, self.samples)

    def warm_up(self, calls: Calls) -> None:
        for config in self.configs:
            calls.uniqueness_oracle(config, self.samples[:625], self.desc)

    def _shuffled(self, scan_pass: int) -> np.ndarray:
        # one row order per pass, drawn when the pass starts
        if self._rows[0] != scan_pass:
            rng = np.random.default_rng([self.seed, 3, scan_pass])
            self._rows = (scan_pass, self.samples[rng.permutation(len(self.samples))])
        return self._rows[1]

    def _row(self, f: Signal) -> Optional[int]:
        """The family row that holds ``f``, found by its projection on a
        fixed vector; ``None`` when the family holds no such row.  The
        projections are made at the first check, so neither the timed
        set-up nor its memory carry this lookup."""
        if self._key is None:
            self._key = self.samples @ self._PROBE
        i = int(np.argmin(np.abs(self._key - f.samples @ self._PROBE)))
        return i if np.allclose(self.samples[i], f.samples, rtol=0, atol=1e-12) else None

    def _mates(self, f: Signal, g: Signal) -> bool:
        """Whether a violating pair are family rows that are conjugate-twist
        mates; a row the family does not hold is no mate."""
        i, j = self._row(f), self._row(g)
        return i is not None and j is not None and is_conjugate_twist_mate(
            self.coeffs[i], self.coeffs[j])

    def prepare(self, i: int) -> Item:
        scan = i % 2
        rows = self._shuffled(i // 2)
        config = self.configs[scan]
        want_classes, want_violations = self.REFERENCE[scan]

        def run(calls: Calls):
            return calls.uniqueness_oracle(config, rows, self.desc, violation_cap=VIOLATION_CAP)

        def check(report, exc) -> str:
            if exc is not None:
                return ERROR
            right = (
                report.class_count == want_classes
                and report.violation_count == want_violations
                and len(report.violations) == want_violations
                and all(self._mates(f, g) for f, g in report.violations)
            )
            return OK if right else WRONG

        return Item(run, check, signals=len(rows), cells=len(rows) * self.GRID.horizon,
                    kind=("incommensurate", "rational")[scan])


class PipelineExhaustive(Workload):
    """Criterion 10: every member of the 4-letter family on 4 cells is
    reconstructed at a = 1 and a = 0.5 and checked against its oracle class."""

    name = "pipeline-exhaustive"
    cycle = 512
    nominal_cycle_s = 1.5
    GRID = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    STEPS = (1.0, 0.5)
    #: (class count, violation count, members in violating classes) of the
    #: oracle scan at each step.
    REFERENCE = ((151, 0, 0), (151, 0, 0))

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        grid = self.GRID
        self.pair = build_window("rectangular", grid)
        rng = np.random.default_rng([seed, 4])
        family, self.desc = alphabet_family(grid, [0, 1, 2, 3])
        self.family = family[rng.permutation(len(family))]
        self.nodes = [TimeNodes.lattice_covering(grid, a) for a in self.STEPS]
        self.scans = [self.oracle_classes(nodes) for nodes in self.nodes]
        self.setup_ok = [s[:3] for s in self.scans] == list(self.REFERENCE)
        self.orders = [rng.permutation(self.cycle) for _ in range(self.n_cycles)]

    def oracle_classes(self, nodes: TimeNodes) -> tuple:
        """Oracle counts, and which members sit in a class with a collision
        that no equivalence explains (criterion 10's grouping rule)."""
        family = self.family
        report = verifier.uniqueness_oracle(
            OracleConfig(self.GRID, self.pair, nodes), family, self.desc,
            violation_cap=VIOLATION_CAP,
        )
        mags = stft_engine.measure_batch(family, self.GRID, self.pair, nodes)
        keys = np.round(mags.reshape(len(family), -1) / FINGERPRINT_QUANTUM).astype(np.int64)
        groups: Dict[bytes, List[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key.tobytes(), []).append(i)
        ambiguous = np.zeros(len(family), dtype=bool)
        for members in groups.values():
            if any(
                not pair_equivalent(family[p], family[q], allow_reflection=True)
                for x, p in enumerate(members)
                for q in members[x + 1:]
            ):
                ambiguous[members] = True
        return report.class_count, report.violation_count, int(ambiguous.sum()), ambiguous

    def warm_up(self, calls: Calls) -> None:
        f = Signal(self.GRID, self.family[0].copy())
        calls.reconstruct(calls.measure(f, self.pair, self.nodes[0]), self.pair)

    def prepare(self, i: int) -> Item:
        order = self.orders[i // self.cycle]
        step, member = divmod(int(order[i % self.cycle]), len(self.family))
        f = Signal(self.GRID, self.family[member].copy())
        nodes = self.nodes[step]
        unique = not self.scans[step][3][member]

        def run(calls: Calls):
            return calls.reconstruct(calls.measure(f, self.pair, nodes), self.pair)

        def check(report, exc) -> str:
            if exc is not None:
                return ERROR if unique or not self.setup_ok else OK
            outcome_unique = pair_equivalent(
                report.signal.samples, f.samples, allow_reflection=True, tol=1e-6
            ) and report.ambiguity in ("phase_only", "phase_or_reflection")
            return OK if self.setup_ok and outcome_unique == unique else WRONG

        return Item(run, check, signals=1, cells=self.GRID.horizon, kind=f"a{nodes.a}",
                    key=(step, member))

    def describe(self) -> Dict[str, Any]:
        return {
            "oracle_scans": [
                {"a": a, "classes": s[0], "violations": s[1], "ambiguous_members": s[2]}
                for a, s in zip(self.STEPS, self.scans)
            ],
            "oracle_matches_reference": self.setup_ok,
        }


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (RoundtripMix, RoundtripLong, OraclePeriodic, PipelineExhaustive)
}
