"""Byte digests of twowin's outputs over one fixed, seeded case set.

Prints one SHA-256 per group.  Two checkouts whose lines agree give the same
bytes on every case below, errors (class and message) included, so a change
that claims byte identity cites these lines instead of a one-off script.

    python3 scripts/digest.py                    # this checkout's src/
    python3 scripts/digest.py --src OTHER/src    # any other checkout's src/
    python3 scripts/digest.py --group local --dump local.pkl
    python3 scripts/digest.py --compare parent.pkl change.pkl

``--group`` digests the named groups only.  ``--dump FILE`` also writes
every item of every digested group to FILE (a pickle), arrays larger than
``DUMP_LIMIT`` bytes replaced by their hash; the printed lines do not
change.  ``--compare A B`` reads two such dumps and prints, for each group
whose items differ, the items that moved, the outcome class changes (an
error class, or "returned"), the message changes (any differing string),
the largest phase-aligned difference between matching arrays (relative to
the larger norm, after the best unit phase) and the largest change of a
float, a residual being one; groups in only one dump are named.

The groups:

- window: ``build_window`` slot samples and ``values_at`` off the slots;
- reconstruct: criterion-1-style signals with both analytic profiles, with
  and without an anchor, the five forges' f and g, and the refusals of a
  short alias period;
- long: ``reconstruct`` on horizon-1024 and horizon-4096 lattices (257 and
  1,025 nodes);
- criterion10: criterion 10's family at a = 1 and 0.5, with and without
  ``default_anchor``;
- periodic: ``periodic_verdict`` on the 96-input mu x period x offset scan;
- measure: ``measure`` over 96 window, grid and node configurations;
- batch: ``measure_batch`` of 1, 2, 5 and 2,048 seeded rows on lattices of
  3, 17, 35 and 257 nodes (the larger two cross ``NODE_BLOCK``) and on an
  off-grid pair of lines, under both analytic profiles;
- oracle: five ``uniqueness_oracle`` scans (all but ``elapsed``): criterion
  2's bare lattice, whose unsettled groups run the reflection test;
  criterion 7's incommensurate scan, where every group settles from its
  first member, and its rational one; criterion 10's a = 1 bare lattice,
  where every group settles too; and a raised-cosine a = 0.5 lattice;
- local: every ``LocalClass`` on fixed lattice nodes at L = 8, 12 and 16,
  each node once;
- rows: the same nodes through the block entry
  ``recover_rows``, stacked per (L, b), each row digested as ``local``
  digests it; a checkout without the entry skips it, and ``--compare``
  names it as a group in one dump only;
- forge: each forged pair, and the files ``twowin forge`` writes;
- cli: ``twowin measure``, ``recover``, ``plot`` (of the signal, each
  measurement and each report) and ``verify`` outputs, the oracle report
  without ``elapsed``;
- checks: the verdicts of ``measurements_equal`` (flag and deviation),
  ``is_conjugate_twist_mate``, ``equivalent_up_to_phase`` and
  ``is_separable``, on the five forged pairs and on fixed seeded cases.

A run takes about 20 s on a 2-core machine.  It reads public names only, so any checkout
whose API has them can be digested.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pickle
import sys
import tempfile
import time
from typing import Optional
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


#: A dumped item keeps arrays up to this many bytes; a larger one is
#: replaced by its hash, so its moves are seen but not measured.
DUMP_LIMIT = 1 << 20


class Digest:
    """A SHA-256 over a canonical byte form of nested values, and with
    ``record`` the values of each item and the item's own hash."""

    def __init__(self, record: bool = False):
        self.h = hashlib.sha256()
        self.items = 0
        self.record = [] if record else None

    def add(self, *values) -> None:
        self.items += 1
        for v in values:
            self._feed(v)
        if self.record is not None:
            item = Digest()
            for v in values:
                item._feed(v)
            self.record.append((item.hexdigest(), _compact(values)))

    def _feed(self, v) -> None:
        h = self.h
        if isinstance(v, np.ndarray):
            h.update(f"nd{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v))  # the buffer itself, not a copy
        elif isinstance(v, (bool, np.bool_)):
            h.update(b"T" if v else b"F")
        elif isinstance(v, (int, np.integer)):
            h.update(f"i{int(v)};".encode())
        elif isinstance(v, (float, np.floating)):
            h.update(f"f{float(v).hex()};".encode())
        elif isinstance(v, (complex, np.complexfloating)):
            h.update(f"c{complex(v).real.hex()},{complex(v).imag.hex()};".encode())
        elif isinstance(v, str):
            h.update(f"s{len(v)}:".encode() + v.encode())
        elif isinstance(v, bytes):
            h.update(f"b{len(v)}:".encode() + v)
        elif v is None:
            h.update(b"N")
        elif isinstance(v, dict):
            h.update(f"d{len(v)}(".encode())
            for key, val in v.items():
                self._feed(str(key))
                self._feed(val)
            h.update(b")")
        elif isinstance(v, (list, tuple)):
            h.update(f"l{len(v)}(".encode())
            for x in v:
                self._feed(x)
            h.update(b")")
        else:
            raise TypeError(f"cannot digest {type(v).__name__}")

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def _compact(v):
    """``v`` with every array larger than ``DUMP_LIMIT`` bytes replaced by
    its digest."""
    if isinstance(v, np.ndarray) and v.nbytes > DUMP_LIMIT:
        d = Digest()
        d.add(v)
        return ("array digest", d.hexdigest())
    if isinstance(v, dict):
        return {k: _compact(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return type(v)(_compact(x) for x in v)
    return v


def _outcome_class(values) -> str:
    """An item's error class when its values hold an ``outcome`` refusal,
    else "returned"."""
    for v in values:
        if isinstance(v, tuple) and len(v) == 3 and v[0] == "error":
            return v[1]
    return "returned"


def _differences(a, b, found: dict) -> None:
    """Walk two dumped values together, recording in ``found`` the largest
    phase-aligned array difference, the largest float change, the strings
    that differ, and whether their shapes differ."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape:
        x, y = a.astype(np.complex128).ravel(), b.astype(np.complex128).ravel()
        ip = np.vdot(y, x)
        lam = ip / abs(ip) if abs(ip) > 0 else 1.0
        ref = max(np.linalg.norm(x), np.linalg.norm(y))
        if ref > 0:
            found["array"] = max(found["array"], float(np.linalg.norm(x - lam * y) / ref))
    elif isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        found["float"] = max(found["float"], abs(float(a) - float(b)))
    elif isinstance(a, str) and isinstance(b, str):
        if a != b:
            found["strings"].append((a, b))
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            _differences(a[k], b[k], found)
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
        for x, y in zip(a, b):
            _differences(x, y, found)
    elif type(a) is not type(b) or not isinstance(a, np.ndarray) and a != b:
        found["shape"] = True


def compare(a: dict, b: dict) -> list:
    """For each group of dump ``a`` whose items differ from dump ``b``'s:
    (name, moved item indices, class changes, message changes, largest
    phase-aligned difference, largest float change); a group in only one
    dump comes as (name, None, ...)."""
    out = []
    for name in list(a) + [n for n in b if n not in a]:
        if name not in a or name not in b:
            out.append((name, None, [], [], 0.0, 0.0))
            continue
        items_a, items_b = a[name], b[name]
        moved = [i for i, (x, y) in enumerate(zip(items_a, items_b)) if x[0] != y[0]]
        moved += list(range(min(len(items_a), len(items_b)), max(len(items_a), len(items_b))))
        if not moved:
            continue
        classes, messages = [], []
        found = {"array": 0.0, "float": 0.0, "strings": [], "shape": False}
        for i in moved:
            if i >= len(items_a) or i >= len(items_b):
                classes.append((i, "missing", "missing"))
                continue
            (_, x), (_, y) = items_a[i], items_b[i]
            if _outcome_class(x) != _outcome_class(y):
                classes.append((i, _outcome_class(x), _outcome_class(y)))
            before = len(found["strings"])
            _differences(x, y, found)
            messages += [(i, s, t) for s, t in found["strings"][before:]]
        out.append((name, moved, classes, messages, found["array"], found["float"]))
    return out


def print_comparison(rows: list) -> None:
    if not rows:
        print("no group moved")
    for name, moved, classes, messages, diff, change in rows:
        if moved is None:
            print(f"{name:12s} in one dump only")
            continue
        shown = ", ".join(map(str, moved[:20])) + (", ..." if len(moved) > 20 else "")
        print(f"{name:12s} {len(moved)} items moved: {shown}")
        print(f"{'':12s} class changes {len(classes)}, message changes {len(messages)}, "
              f"largest phase-aligned difference {diff:.3e}, largest float change {change:.3e}")
        for i, was, now in classes:
            print(f"{'':12s} item {i}: {was} -> {now}")
        for i, was, now in messages:
            print(f"{'':12s} item {i}: {was!r} -> {now!r}")


def outcome(run):
    """What ``run()`` returns, or its error class and message."""
    try:
        return run()
    except Exception as exc:  # every refusal is part of the behaviour
        return ("error", type(exc).__name__, str(exc))


def report_fields(rep):
    alt = None if rep.alternative is None else rep.alternative.samples
    return (
        rep.signal.samples, rep.lambdas, rep.residual, rep.ambiguity,
        rep.anchor_used, alt, rep.uncovered,
    )


def group_window(tw, d: Digest) -> None:
    from twowin.window_engine import slot_offsets

    for L in range(1, 17):
        # at B = 1.55 and L = 6 or 12 the first slot offset rounds one ulp
        # below -B
        for B in (1.0, 0.75, 2.5, 1 / 3, 1.55):
            grid = tw.GridSpec(B=B, L=L, origin=L, horizon=2 * L)
            offsets = np.linspace(-1.2 * B, 1.2 * B, 13)
            for b in (None, 1 / (2 * B), 1 / (5 * B), 0.1 / B):
                for profile, kw in (
                    ("rectangular", {}),
                    ("raised_cosine", {"c1": 0.5}),
                    ("raised_cosine", {"c1": 0.4}),
                ):
                    pair = tw.build_window(profile, grid, b, **kw)
                    d.add(
                        profile, L, B, pair.b, pair.phi, pair.psi, pair.params,
                        pair.phi_at(offsets), pair.values_at("psi", offsets),
                        pair.values_at("phi", slot_offsets(grid)),
                    )
                user = tw.build_window("user", grid, b, samples=np.asarray(pair.phi) * 2)
                d.add(user.phi, user.psi, user.phi_at(slot_offsets(grid)))


def crit1_cases(tw, seeds: int):
    """Criterion 1's grid and mix, both analytic profiles, with and without
    the default anchor."""
    grid = tw.GridSpec(B=1.0, L=8, origin=32, horizon=64)
    for ci, (a, b) in enumerate([(a, b) for a in (1.0, 0.5) for b in (0.25, 0.5)]):
        gap = 2 * grid.B - a
        support = grid.horizon - grid.cells_spanned(gap) + 1
        for profile in ("rectangular", "raised_cosine"):
            pair = tw.build_window(profile, grid, b=b)
            for anchor in (None, tw.default_anchor(a, grid.horizon)):
                nodes = tw.TimeNodes.lattice_covering(grid, a, anchor=anchor)
                for k in range(seeds):
                    f = tw.random_nonseparable(grid, support, gap, seed=ci * 50 + k)
                    yield f, pair, nodes


def group_reconstruct(tw, d: Digest) -> None:
    for f, pair, nodes in crit1_cases(tw, 12):
        ms = tw.measure(f, pair, nodes)
        d.add(outcome(lambda: report_fields(tw.reconstruct(ms, pair))))
    for claim in tw.CLAIMS:
        fp = tw.forge(claim)
        for sig in (fp.f, fp.g):
            ms = tw.measure(sig, fp.pair, fp.nodes)
            d.add(claim, outcome(lambda: report_fields(tw.reconstruct(ms, fp.pair))))
    # one alias period short: refused by both reconstruct and periodic_verdict
    grid = tw.GridSpec(B=1.0, L=8, origin=12, horizon=24)
    pair = tw.build_window("rectangular", grid)
    f = tw.random_nonseparable(grid, 21, 1.0, seed=1)
    short = tw.FrequencyGrid.critical(grid.L - 1, grid.B)
    ms = tw.measure(f, pair, tw.TimeNodes.lattice_covering(grid, 1.0), short)
    d.add(outcome(lambda: report_fields(tw.reconstruct(ms, pair))))
    ms = tw.measure(f, pair, tw.TimeNodes.two_lines(0.0, 0.25), short)
    spec = tw.PeriodicSpec(T=1.0, mu=1.0)
    d.add(outcome(lambda: report_fields(tw.periodic_verdict(ms, pair, spec, 1))))


def group_long(tw, d: Digest) -> None:
    # L = 8, a = 1, b = 0.25, support horizon - 3, as ``roundtrip-long`` runs
    for horizon in (1024, 4096):
        grid = tw.GridSpec(B=1.0, L=8, origin=horizon // 2, horizon=horizon)
        pair = tw.build_window("rectangular", grid, b=0.25)
        nodes = tw.TimeNodes.lattice_covering(grid, 1.0)
        for seed in (1, 2):
            f = tw.random_nonseparable(grid, horizon - 3, 1.0, seed=seed)
            ms = tw.measure(f, pair, nodes)
            d.add(horizon, seed, outcome(lambda: report_fields(tw.reconstruct(ms, pair))))


def group_criterion10(tw, d: Digest) -> None:
    grid = tw.GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = tw.build_window("rectangular", grid)
    family, _ = tw.alphabet_family(grid, [0, 1, 2, 3])
    for a in (1.0, 0.5):
        for anchor in (None, tw.default_anchor(a, grid.horizon)):
            nodes = tw.TimeNodes.lattice_covering(grid, a, anchor=anchor)
            for row in family:
                ms = tw.measure(tw.Signal(grid, row.copy()), pair, nodes)
                d.add(outcome(lambda: report_fields(tw.reconstruct(ms, pair))))


def group_periodic(tw, d: Digest) -> None:
    grid = tw.forge("rational_periodic").f.grid
    pair = tw.build_window("rectangular", grid)
    for mu in (1.0, -1.0, 1j, np.exp(0.6j * np.pi)):
        for period_cells in range(3, 9):
            for offset_cells in (1, 3):
                Q = min(2, (period_cells - 1) // 2)
                rng = np.random.default_rng(period_cells)
                for coefficients in (
                    {1: 1 + 0.5j},
                    {k: complex(*rng.standard_normal(2)) for k in range(-Q, Q + 1)},
                ):
                    T = period_cells * grid.delta
                    f = tw.make_periodic(tw.PeriodicSpec(T=T, mu=mu, coefficients=coefficients), grid)
                    nodes = tw.TimeNodes.two_lines(0.0, offset_cells * grid.delta)
                    ms = tw.measure(f, pair, nodes)
                    spec = tw.PeriodicSpec(T=T, mu=mu)
                    d.add(outcome(lambda: report_fields(tw.periodic_verdict(ms, pair, spec, Q))))


def group_measure(tw, d: Digest) -> None:
    for L in (5, 8):
        for B in (1.0, 0.75):
            grid = tw.GridSpec(B=B, L=L, origin=2 * L, horizon=4 * L)
            rng = np.random.default_rng([L, int(4 * B)])
            f = tw.Signal(grid, rng.standard_normal(grid.horizon) + 1j * rng.standard_normal(grid.horizon))
            for b in (None, 1 / (2 * B)):
                rc = tw.build_window("raised_cosine", grid, b=b, c1=0.4)
                pairs = (
                    tw.build_window("rectangular", grid, b=b),
                    rc,
                    tw.build_window("user", grid, b=b, samples=rc.phi),
                )
                for pair in pairs:
                    for a in (B, B / 2):
                        for anchor in (None, tw.default_anchor(a, grid.horizon)):
                            nodes = tw.TimeNodes.lattice_covering(grid, a, anchor=anchor)
                            d.add(outcome(lambda: (nodes.times, tw.measure(f, pair, nodes).mags)))


def group_batch(tw, d: Digest) -> None:
    rng = np.random.default_rng(34)
    wide = tw.GridSpec(B=1.0, L=8, origin=32, horizon=64)
    node_sets = [  # 3, 17, 35 and 257 lattice nodes, and two lines off the grid
        (tw.GridSpec(B=1.0, L=4, origin=2, horizon=4), 1.0),
        (wide, 1.0),
        (wide, 0.5),
        (tw.GridSpec(B=1.0, L=4, origin=127, horizon=254), 0.5),
        (tw.GridSpec(B=1.0, L=9, origin=9, horizon=18), None),
    ]
    for grid, a in node_sets:
        if a is None:
            nodes = tw.TimeNodes.two_lines(0.1, 3.3 * grid.delta)
        else:
            nodes = tw.TimeNodes.lattice_covering(grid, a)
        pairs = (tw.build_window("rectangular", grid, b=0.25),
                 tw.build_window("raised_cosine", grid, b=0.5, c1=0.4))
        for n_rows in (1, 2, 5, 2048):
            rows = rng.standard_normal((n_rows, grid.horizon)) + 1j * rng.standard_normal(
                (n_rows, grid.horizon))
            for pair in pairs:
                d.add(nodes.times, n_rows, outcome(lambda: tw.measure_batch(rows, grid, pair, nodes)))


def group_oracle(tw, d: Digest) -> None:
    def scan(grid, pair, nodes, samples, desc, **kw):
        rep = tw.uniqueness_oracle(tw.OracleConfig(grid, pair, nodes), samples, desc, **kw)
        d.add(
            rep.description, rep.instance_count, rep.class_count, rep.violation_count,
            rep.violation_rows, rep.ambiguous_rows,
            [(u.samples, v.samples) for u, v in rep.violations],
        )

    grid = tw.GridSpec(B=1.0, L=4, origin=4, horizon=8)
    family, desc = tw.alphabet_family(grid, [3, 4, 5, 6])
    scan(grid, tw.build_window("rectangular", grid), tw.TimeNodes.lattice(1.5, range(-1, 2)), family, desc)
    grid = tw.GridSpec(B=1.0, L=9, origin=9, horizon=18)
    samples, _, desc = tw.trig_family(grid, 2.0, degree=3)
    for offset in (1, 3):
        scan(grid, tw.build_window("rectangular", grid),
             tw.TimeNodes.two_lines(0.0, offset * grid.delta), samples, desc,
             violation_cap=10 ** 6)
    grid = tw.GridSpec(B=1.0, L=4, origin=2, horizon=4)
    family, desc = tw.alphabet_family(grid, [0, 1, 2, 3])
    scan(grid, tw.build_window("rectangular", grid), tw.TimeNodes.lattice_covering(grid, 1.0),
         family, desc, violation_cap=10 ** 6)
    scan(grid, tw.build_window("raised_cosine", grid), tw.TimeNodes.lattice_covering(grid, 0.5),
         family, desc)


def local_nodes(tw):
    """The ``local`` group's nodes: per (L, b), the window pair, the lattice
    magnitudes and ``count`` distinct node indices mid-horizon, every one of
    the 9 at L = 8."""
    for L, count in ((8, 9), (12, 6), (16, 3)):
        grid = tw.GridSpec(B=1.0, L=L, origin=2 * L, horizon=4 * L)
        for b in (0.25, 0.5):
            pair = tw.build_window("rectangular", grid, b=b)
            nodes = tw.TimeNodes.lattice_covering(grid, 1.0)
            f = tw.random_nonseparable(grid, 4 * L - 1, 1.0, seed=L)
            ms = tw.measure(f, pair, nodes)
            lo = len(nodes.times) // 2 - count // 2
            yield pair, ms.mags, range(lo, lo + count)


def add_class(d: Digest, cls) -> None:
    """One node's outcome as the ``local`` group digests it."""
    if isinstance(cls, tuple):
        d.add(cls)
    else:
        d.add(cls.representatives, cls.includes_reflection, cls.residual, cls.is_zero)


def group_local(tw, d: Digest) -> None:
    for pair, mags, rows in local_nodes(tw):
        for i in rows:
            add_class(d, outcome(lambda: tw.recover_local(mags[0, i], mags[1, i], pair)))


def group_rows(tw, d: Digest) -> Optional[bool]:
    """The ``local`` group's nodes through the block entry, one call per
    (L, b), each row digested as ``local`` digests it; a call that refuses
    is one item.  Skipped where there is no block entry."""
    if not hasattr(tw, "recover_rows"):
        return False
    for pair, mags, rows in local_nodes(tw):
        classes = outcome(lambda: tw.recover_rows(mags[0, rows], mags[1, rows], pair))
        for cls in [classes] if isinstance(classes, tuple) else classes:
            add_class(d, cls)


@contextlib.contextmanager
def scratch_dir():
    """A fresh temporary directory as the working directory, so the CLI's
    messages that name a file read alike on every run."""
    back = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(".")
        finally:
            os.chdir(back)


def run_cli(*argv) -> tuple:
    from twowin.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def files_of(path: Path, skip=()) -> list:
    return [(p.name, p.read_bytes()) for p in sorted(path.iterdir()) if p.is_file() and p.name not in skip]


def group_forge(tw, d: Digest) -> None:
    for claim in tw.CLAIMS:
        fp = tw.forge(claim)
        d.add(
            fp.claim, fp.f.samples, fp.g.samples, fp.nodes.mode, fp.nodes.times,
            fp.nodes.a, fp.nodes.anchor, fp.pair.phi, fp.pair.psi, fp.min_distance,
            fp.params,
        )
    runs = [[claim] for claim in tw.CLAIMS] + [
        ["separable_gap", "--a", "0.5", "--seed", "4"],
        ["wide_step", "--a", "1.25", "--seed", "5"],
        ["quasiperiodic_flip", "--B", "1.0"],
        ["rational_lattice", "--a", str(4 * 2.0 / 9.0)],
    ]
    with scratch_dir() as tmp:
        for k, argv in enumerate(runs):
            outdir = tmp / str(k)
            d.add(run_cli("forge", *argv, "--outdir", outdir))
            d.add(files_of(outdir))


def group_cli(tw, d: Digest) -> None:
    from twowin.cli import dump_json, signal_to_obj

    grid = tw.GridSpec(B=1.0, L=8, origin=12, horizon=24)
    with scratch_dir() as tmp:
        sig = tmp / "sig.json"
        dump_json(signal_to_obj(tw.random_nonseparable(grid, 21, 1.0, seed=7)), sig)
        d.add(run_cli("plot", sig, "--out", tmp / "sig.csv"))
        for k, flags in enumerate([
            [], ["--a", "0.5"], ["--anchor", "incommensurate"],
            ["--profile", "raised_cosine", "--b", "0.5"], ["--a", "0.5", "--anchor", "0.3"],
        ]):
            m, rep, out = tmp / f"m{k}.json", tmp / f"r{k}.json", tmp / f"s{k}.json"
            d.add(run_cli("measure", sig, "--out", m, "--csv", tmp / f"m{k}.csv", *flags))
            d.add(run_cli("recover", m, "--report", rep, "--signal-out", out))
            d.add(run_cli("plot", m, "--out", tmp / f"p{k}.csv"))
            d.add(run_cli("plot", rep, "--out", tmp / f"q{k}.csv"))
        man = tmp / "forged"
        run_cli("forge", "rational_lattice", "--outdir", man)
        for flags in ([], ["--expect", "counterexample"], ["--tol", "1e-3"],
                      ["--f", man / "f.json", "--g", man / "g.json", "--anchor", "incommensurate"]):
            source = flags if "--f" in flags else ["--manifest", man / "manifest.json", *flags]
            d.add(run_cli("verify", "pair", *source, "--out", tmp / "v.json"))
            d.add((tmp / "v.json").read_bytes())
        for flags in (["--B", "1", "--L", "4", "--horizon", "8", "--a", "1.5", "--cells", "3,4,5,6"],
                      ["--B", "1", "--L", "4", "--horizon", "4", "--a", "0.5"]):
            # stdout and the report's "elapsed" line carry the scan's wall time
            code, _, err = run_cli("verify", "oracle", *flags, "--out", tmp / "o.json")
            lines = (tmp / "o.json").read_text().splitlines(keepends=True)
            d.add(code, err, "".join(x for x in lines if not x.startswith('  "elapsed": ')))
        d.add(files_of(tmp, skip=("o.json",)))


def group_checks(tw, d: Digest) -> None:
    def verdicts(f, g, pair, nodes):
        mf, mg = tw.measure(f, pair, nodes), tw.measure(g, pair, nodes)
        for tol in (0.0, 1e-14, 1e-10, 1e-6):
            d.add(outcome(lambda: tw.measurements_equal(mf, mg, tol=tol)))
        d.add(outcome(lambda: tw.measurements_equal(mf, mg)))
        d.add(outcome(lambda: tw.equivalent_up_to_phase(f, g)))

    for claim in tw.CLAIMS:
        fp = tw.forge(claim)
        verdicts(fp.f, fp.g, fp.pair, fp.nodes)
        for sig in (fp.f, fp.g):
            grid = sig.grid
            d.add([tw.is_separable(sig, k * grid.delta / 2) for k in range(1, 40)])

    # seeded signals against a phase turn, a reflection, perturbations of
    # growing size and an unrelated signal, under both analytic windows
    grid = tw.GridSpec(B=1.0, L=8, origin=12, horizon=24)
    rng = np.random.default_rng(19)
    for seed in range(4):
        f = tw.random_nonseparable(grid, 21, 1.0, seed=seed)
        noise = rng.standard_normal(grid.horizon) + 1j * rng.standard_normal(grid.horizon)
        others = [
            tw.Signal(grid, np.exp(0.3j + seed) * f.samples),
            tw.conj_reflect(f, float(grid.x(10))),
            tw.random_nonseparable(grid, 21, 1.0, seed=seed + 10),
        ]
        for eps in (1e-11, 1e-9, 3e-9, 1e-7):
            others.append(tw.Signal(grid, f.samples + eps * f.norm() * noise))
        for profile, a in (("rectangular", 1.0), ("raised_cosine", 0.5)):
            pair = tw.build_window(profile, grid, b=0.25)
            nodes = tw.TimeNodes.lattice_covering(grid, a)
            for g in others:
                verdicts(f, g, pair, nodes)
    # mismatched node times and frequency grids are refused
    pair = tw.build_window("rectangular", grid)
    m1 = tw.measure(f, pair, tw.TimeNodes.lattice_covering(grid, 1.0))
    m2 = tw.measure(f, pair, tw.TimeNodes.lattice_covering(grid, 0.5))
    m3 = tw.measure(f, pair, m1.nodes, tw.FrequencyGrid.critical(grid.L - 1, grid.B))
    d.add(outcome(lambda: tw.measurements_equal(m1, m2)))
    d.add(outcome(lambda: tw.measurements_equal(m1, m3)))

    # criterion 7's rational scan: every violating pair, seeded pairs of
    # rows, and seeded twists of a row with and without a perturbation
    grid = tw.GridSpec(B=1.0, L=9, origin=9, horizon=18)
    samples, coeffs, desc = tw.trig_family(grid, 2.0, degree=3)
    nodes = tw.TimeNodes.two_lines(0.0, 3 * grid.delta)
    config = tw.OracleConfig(grid, tw.build_window("rectangular", grid), nodes)
    rep = tw.uniqueness_oracle(config, samples, desc, violation_cap=10 ** 6)
    d.add([tw.is_conjugate_twist_mate(coeffs[i], coeffs[j]) for i, j in rep.violation_rows])
    rows = rng.integers(0, len(coeffs), size=(400, 2))
    d.add([tw.is_conjugate_twist_mate(coeffs[i], coeffs[j]) for i, j in rows.tolist()])
    ks = np.arange(-3, 4)
    for i in rows[:200, 0].tolist():
        nu, zeta = np.exp(2j * np.pi * rng.random(2))
        twist = nu * zeta ** ks * np.conj(coeffs[i])
        for eps in (0.0, 1e-10, 1e-6):
            d.add(tw.is_conjugate_twist_mate(coeffs[i], twist + eps * rng.standard_normal(7)))
    d.add(tw.is_conjugate_twist_mate(coeffs[5], coeffs[5][:-1]))

    # random sample masks at every window length and three tolerances
    for horizon in (4, 9, 16, 33):
        grid = tw.GridSpec(B=1.0, L=4, origin=horizon // 2, horizon=horizon)
        for p in (0.3, 0.6, 0.9):
            mask = rng.random(horizon) < p
            sig = tw.Signal(grid, np.where(mask, rng.choice([0.0, 1e-12, 1e-10], horizon), 1.0))
            for tol in (1e-12, 1e-10, 1e-9):
                lengths = np.arange(1, horizon + 2) * grid.delta
                d.add([tw.is_separable(sig, length, tol=tol) for length in lengths])
        d.add(outcome(lambda: tw.is_separable(sig, 0.0)))


GROUPS = {
    "window": group_window,
    "reconstruct": group_reconstruct,
    "long": group_long,
    "criterion10": group_criterion10,
    "periodic": group_periodic,
    "measure": group_measure,
    "batch": group_batch,
    "oracle": group_oracle,
    "local": group_local,
    "rows": group_rows,
    "forge": group_forge,
    "cli": group_cli,
    "checks": group_checks,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(HERE.parent / "src"), help="the src/ directory to digest")
    p.add_argument("--group", action="append", choices=list(GROUPS),
                   help="digest this group only (repeatable)")
    p.add_argument("--dump", type=Path, help="also write every item of each group here")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="compare two dumps instead of digesting")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (pickle.loads(path.read_bytes()) for path in args.compare)
        print_comparison(compare(a, b))
        return 0
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import twowin as tw

    if not Path(tw.__file__).resolve().is_relative_to(src):
        p.error(f"twowin was imported from {tw.__file__}, not from {src}")
    dumped = {}
    for name in args.group or GROUPS:
        d = Digest(record=args.dump is not None)
        start = time.perf_counter()
        if GROUPS[name](tw, d) is False:
            print(f"{name:12s} skipped: not in this checkout")
            continue
        print(f"{name:12s} {d.hexdigest()}  {d.items:5d} items  {time.perf_counter() - start:5.1f} s")
        dumped[name] = d.record
    if args.dump is not None:
        args.dump.write_bytes(pickle.dumps(dumped))
    return 0


if __name__ == "__main__":
    sys.exit(main())
