"""Refusals of exact data at small sizes: one fixed, seeded sweep.

Every input is a nonseparable signal over the letters (0, 1, i, -1) on the
grid GridSpec(B=1, L=L, origin=2L, horizon=4L), measured on the lattice
that covers the horizon and reconstructed from its own exact magnitudes.
A correct package returns every one of them; the sweep counts the ones it
refuses and the ones it returns wrong.

    python3 scripts/exact_sweep.py                    # this checkout's src/
    python3 scripts/exact_sweep.py --src OTHER/src    # any other checkout's src/

For each L in {4, 8, 12, 16} and each (b, a) with b in {0.25, 0.5} and
a in {1, 0.5}:

- ``np.random.default_rng([L, int(4*b), int(2*a)])`` draws 300 rows (15 at
  L = 16, where an input takes about 0.02 s: 0.012-0.033 s on a 2-core
  machine with one BLAS thread), each ``rng.integers(0, 4, 4L)``, read as
  letters;
- a row that ``is_separable(f, 2B - a)`` flags is skipped;
- a returned signal is right when ``pair_equivalent(..., tol=1e-6)`` holds,
  allowing the reflection unless the report says ``phase_only``;
- a returned signal's distance to the truth is ``phase_residuals`` of the
  two, or of the report's alternative and the truth when that is closer.

It prints one count line per (L, b, a), with the largest distance of a
returned row and that row, each refused or wrong row with its message, and
one total line per L.  Under each count line, a line of its own gives how
many returned rows took the whole-lattice fallback: ``reconstruct`` called
``stitcher.align_overlaps`` twice for them, the sparse pass refused.  Two checkouts that refuse the same rows
with the same messages print the same lines.  It exits 1 when any row comes
back wrong, so it can serve as a check; a refusal alone leaves the exit 0.

A second block counts the edge nodes that ``recover_local`` refuses far from
the grid origin, where the forward map's roundoff grows with |x|.  For each
L in {4, 8, 12} and horizon in {1024, 4096, 16384, 65536, 262144}, on
GridSpec(B=1, L=L, origin=horizon/2, horizon=horizon):

- ``random_nonseparable`` draws seeds 0-49 (0-9 at L = 12) with support
  horizon - cells_spanned(2B - a) + 1, for a in {1, 0.5};
- each is measured, for b in {0.25, 0.5}, only at its edge nodes: the first
  and the last L*delta/a + 1 nodes of the lattice that covers the horizon;
- every edge node is recovered with the lattice's largest magnitude as scale.

It prints one count line per (L, horizon) and, under it, each refusal
message with its count.

A third block recovers single nodes whose content has repeated unit-circle
roots, the inputs on which the root solver is least accurate.
``np.random.default_rng(CIRCLE_SEED)`` draws 200 contents once, each as:

- one or two angles uniform in [-pi, pi), each a root of multiplicity 1-3;
- L uniform in max(4, circle roots + 1) .. 12, and L - 1 - (circle roots)
  free roots, complex standard normal;
- the content is the monic polynomial of those roots, lowest degree first,
  measured at the one node of GridSpec(B=1, L=L, origin=L//2, horizon=L)
  with the rectangular window and b = 0.25.

It prints each refusal with its message and one count line that gives the
largest distance (``phase_residuals``) of a returned class to the truth or
to the truth's slot mate.  A class farther than 1e-6 from both counts as wrong,
and makes the script exit 1 like a wrong row of the first block.

A fourth block reconstructs single-node contents whose unit-circle roots
are all triple, the multiplicity at which the eigensolver splits a root
farthest.  ``np.random.default_rng(TRIPLE_SEED)`` draws 300 contents once,
each as:

- one or two angles uniform in [-pi, pi), each a root of multiplicity 3;
- L uniform in 7 .. 12, and L - 1 - (circle roots) free roots, complex
  standard normal;
- the content is the monic polynomial of those roots, lowest degree first,
  on GridSpec(B=1, L=L, origin=L//2, horizon=L) with the rectangular
  window and b = 0.25, measured at the one node of the lattice of step
  L//2 cells (the widest whole-cell step up to B) and reconstructed.

A returned signal is right or wrong by the first block's rule, and the
block prints each refusal or wrong row with its message and one count line
that gives the largest distance of a returned signal, as the first block
measures it.  A wrong row makes the script exit 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
LETTERS = np.array([0, 1, 1j, -1], dtype=np.complex128)
#: rows drawn per (b, a), by L
ROWS = {4: 300, 8: 300, 12: 300, 16: 15}
CIRCLE_SEED = 2026
CIRCLE_CONTENTS = 200
TRIPLE_SEED = 20261020
TRIPLE_CONTENTS = 300


def sweep(tw, L: int, b: float, a: float):
    """Yield (row, outcome, detail, distance, searches) for every
    nonseparable row of one (L, b, a): outcome is "ok", "refused" or "wrong",
    distance is None for a refused row, and searches counts the row's
    ``stitcher.align_overlaps`` calls, so a returned row with two took the
    whole-lattice fallback."""
    grid = tw.GridSpec(B=1.0, L=L, origin=2 * L, horizon=4 * L)
    pair = tw.build_window("rectangular", grid, b=b)
    nodes = tw.TimeNodes.lattice_covering(grid, a)
    rng = np.random.default_rng([L, int(4 * b), int(2 * a)])
    align, calls = tw.stitcher.align_overlaps, []

    def counted(*args, **kwargs):
        calls.append(None)
        return align(*args, **kwargs)

    for row in range(ROWS[L]):
        f = tw.Signal(grid, LETTERS[rng.integers(0, 4, 4 * L)])
        if tw.is_separable(f, 2 * grid.B - a):
            continue
        calls.clear()
        tw.stitcher.align_overlaps = counted
        try:
            rep = tw.reconstruct(tw.measure(f, pair, nodes), pair)
        except Exception as exc:  # every refusal is counted with its message
            yield row, "refused", f"{type(exc).__name__}: {exc}", None, len(calls)
            continue
        finally:
            tw.stitcher.align_overlaps = align
        right = tw.pair_equivalent(
            rep.signal.samples, f.samples,
            allow_reflection=rep.ambiguity != "phase_only", tol=1e-6,
        )
        distance = min(
            tw.phase_residuals(g.samples, f.samples)
            for g in (rep.signal, rep.alternative) if g is not None
        )
        yield row, "ok" if right else "wrong", rep.ambiguity, distance, len(calls)


def edge_refusals(tw, L: int, horizon: int, seeds: range):
    """Count the edge nodes of one (L, horizon) and tally ``recover_local``'s
    refusals among them by message; returns (nodes, {message: count})."""
    grid = tw.GridSpec(B=1.0, L=L, origin=horizon // 2, horizon=horizon)
    nodes, refusals = 0, {}
    for a in (1.0, 0.5):
        gap = 2 * grid.B - a
        times = tw.TimeNodes.lattice_covering(grid, a).times
        edge = round(L * grid.delta / a) + 1
        lattice = tw.TimeNodes.lattice(a, [round(t / a) for t in times[:edge] + times[-edge:]])
        for seed in seeds:
            f = tw.random_nonseparable(grid, horizon - grid.cells_spanned(gap) + 1, gap, seed=seed)
            for b in (0.25, 0.5):
                pair = tw.build_window("rectangular", grid, b=b)
                mags = tw.measure(f, pair, lattice).mags
                scale = float(np.max(mags))
                for phi, psi in zip(*mags):
                    nodes += 1
                    try:
                        tw.recover_local(phi, psi, pair, scale=scale)
                    except Exception as exc:  # every refusal is counted by message
                        key = f"{type(exc).__name__}: {exc}"
                        refusals[key] = refusals.get(key, 0) + 1
    return nodes, refusals


def circle_contents():
    """The third block's contents, drawn once: a list of complex vectors."""
    rng = np.random.default_rng(CIRCLE_SEED)
    contents = []
    for _ in range(CIRCLE_CONTENTS):
        angles = rng.uniform(-np.pi, np.pi, rng.integers(1, 3))
        roots = list(np.exp(1j * angles).repeat(rng.integers(1, 4, angles.size)))
        L = int(rng.integers(max(4, len(roots) + 1), 13))
        free = L - 1 - len(roots)
        roots += list(rng.standard_normal(free) + 1j * rng.standard_normal(free))
        contents.append(np.poly(roots)[::-1].astype(np.complex128))
    return contents


def circle_recoveries(tw):
    """Yield (row, message or None, largest class distance) per content of
    the third block; the distance is to the truth or its slot mate."""
    for row, h in enumerate(circle_contents()):
        grid = tw.GridSpec(B=1.0, L=h.size, origin=h.size // 2, horizon=h.size)
        pair = tw.build_window("rectangular", grid, b=0.25)
        mags = tw.measure(tw.Signal(grid, h), pair, tw.TimeNodes.lattice(grid.B, [0])).mags
        try:
            cls = tw.recover_local(mags[0, 0], mags[1, 0], pair)
        except Exception as exc:  # every refusal is printed with its message
            yield row, f"{type(exc).__name__}: {exc}", None
            continue
        truths = [t for t in (h, tw.slot_reflect(h)) if t is not None]
        yield row, None, max(
            min(tw.phase_residuals(rep, t) for t in truths) for rep in cls.representatives
        )


def triple_contents():
    """The fourth block's contents, drawn once: a list of complex vectors."""
    rng = np.random.default_rng(TRIPLE_SEED)
    contents = []
    for _ in range(TRIPLE_CONTENTS):
        angles = rng.uniform(-np.pi, np.pi, rng.integers(1, 3))
        roots = list(np.exp(1j * angles).repeat(3))
        L = int(rng.integers(7, 13))
        free = L - 1 - len(roots)
        roots += list(rng.standard_normal(free) + 1j * rng.standard_normal(free))
        contents.append(np.poly(roots)[::-1].astype(np.complex128))
    return contents


def triple_reconstructions(tw):
    """Yield (row, outcome, detail, distance) per content of the fourth
    block, as ``sweep`` yields them for the first."""
    for row, h in enumerate(triple_contents()):
        grid = tw.GridSpec(B=1.0, L=h.size, origin=h.size // 2, horizon=h.size)
        pair = tw.build_window("rectangular", grid, b=0.25)
        f = tw.Signal(grid, h)
        nodes = tw.TimeNodes.lattice(h.size // 2 * grid.delta, [0])
        try:
            rep = tw.reconstruct(tw.measure(f, pair, nodes), pair)
        except Exception as exc:  # every refusal is printed with its message
            yield row, "refused", f"{type(exc).__name__}: {exc}", None
            continue
        right = tw.pair_equivalent(
            rep.signal.samples, h, allow_reflection=rep.ambiguity != "phase_only", tol=1e-6
        )
        distance = min(
            tw.phase_residuals(g.samples, h) for g in (rep.signal, rep.alternative) if g is not None
        )
        yield row, "ok" if right else "wrong", rep.ambiguity, distance


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(HERE.parent / "src"), help="the src/ directory to sweep")
    args = p.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import twowin as tw

    if not Path(tw.__file__).resolve().is_relative_to(src):
        p.error(f"twowin was imported from {tw.__file__}, not from {src}")
    wrong = 0
    for L in ROWS:
        total = {"inputs": 0, "refused": 0, "wrong": 0}
        for b in (0.25, 0.5):
            for a in (1.0, 0.5):
                counts = {"inputs": 0, "refused": 0, "wrong": 0}
                farthest, far_row, fallbacks = 0.0, None, 0
                for row, outcome, detail, distance, searches in sweep(tw, L, b, a):
                    counts["inputs"] += 1
                    fallbacks += distance is not None and searches > 1
                    if outcome != "ok":
                        counts[outcome] += 1
                        print(f"  L={L} b={b} a={a} row {row}: {outcome}: {detail}")
                    if distance is not None and distance >= farthest:
                        farthest, far_row = distance, row
                print(
                    f"L={L} b={b} a={a}: {counts['inputs']} nonseparable inputs, "
                    f"{counts['refused']} refused, {counts['wrong']} wrong, "
                    f"largest distance {farthest:.3e} (row {far_row})"
                )
                print(f"  L={L} b={b} a={a}: {fallbacks} returned rows took the "
                      "whole-lattice fallback")
                for key in total:
                    total[key] += counts[key]
        print(
            f"L={L} total: {total['refused']} of {total['inputs']} refused, "
            f"{total['wrong']} wrong"
        )
        wrong += total["wrong"]
    for L in (4, 8, 12):
        for horizon in (1024, 4096, 16384, 65536, 262144):
            nodes, refusals = edge_refusals(tw, L, horizon, range(10 if L == 12 else 50))
            print(f"edge L={L} horizon={horizon}: {sum(refusals.values())} of {nodes} refused")
            for message, count in sorted(refusals.items()):
                print(f"  {count} x {message}")
    refused, worst, worst_row = 0, 0.0, None
    for row, message, dist in circle_recoveries(tw):
        if message is not None:
            refused += 1
            print(f"  circle row {row}: refused: {message}")
        elif dist >= worst:
            worst, worst_row = dist, row
        if dist is not None and dist > 1e-6:
            wrong += 1
            print(f"  circle row {row}: wrong: distance {dist:.3e}")
    print(
        f"circle: {refused} of {CIRCLE_CONTENTS} refused, "
        f"largest class distance {worst:.3e} (row {worst_row})"
    )
    counts = {"refused": 0, "wrong": 0}
    worst, worst_row = 0.0, None
    for row, outcome, detail, dist in triple_reconstructions(tw):
        if outcome != "ok":
            counts[outcome] += 1
            print(f"  triple row {row}: {outcome}: {detail}")
        if dist is not None and dist >= worst:
            worst, worst_row = dist, row
    wrong += counts["wrong"]
    print(
        f"triple: {counts['refused']} of {TRIPLE_CONTENTS} refused, {counts['wrong']} wrong, "
        f"largest distance {worst:.3e} (row {worst_row})"
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
