"""Command-line entry point and file formats.

Subcommands: measure, recover, forge, verify, plot, selftest.  Structured
data travels as JSON (floats written with 17 significant digits, so writing
and re-reading is bit-exact); plot data goes out as CSV.  Exit codes follow
the shell contract: 0 for a unique (phase-only) outcome, 2 for an honest
unresolved ambiguity, 1 for any error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .signal_model import GridSpec, Signal, global_phase_align
from .window_engine import WindowPair, build_window
from .stft_engine import (
    WINDOW_NAMES,
    FrequencyGrid,
    MeasurementSet,
    TimeNodes,
    default_anchor,
    measure,
)
from .stitcher import ReconstructionReport, reconstruct
from .counterexample_forge import CLAIMS, FORGES, forge
from .verifier import (
    OracleConfig,
    OracleReport,
    alphabet_family,
    measurements_equal,
    pair_equivalent,
    uniqueness_oracle,
)
from .acceptance import CRITERIA, run_all


class CliError(Exception):
    """A user-facing failure with file or argument context."""


# ---------------------------------------------------------------------------
# JSON with pinned float formatting


def _render(obj: Any, ind: str = "") -> str:
    """Serialize to JSON text with floats at 17 significant digits and
    complex numbers as [re, im]."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            f"{ind}  {json.dumps(str(k))}: {_render(v, ind + '  ')}" for k, v in obj.items()
        )
        return "{\n" + rows + "\n" + ind + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if any(isinstance(v, dict) for v in obj):
            rows = ",\n".join(f"{ind}  {_render(v, ind + '  ')}" for v in obj)
            return "[\n" + rows + "\n" + ind + "]"
        return "[" + ", ".join(_render(v, ind) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, (complex, np.complexfloating)):
        return _render(_c2l(complex(obj)), ind)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj: Any, path: Path) -> None:
    path.write_text(_render(obj) + "\n", encoding="utf-8")


def load_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: not valid JSON ({exc.msg})")


def _c2l(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# schema <-> object


def grid_to_obj(grid: GridSpec) -> Dict[str, Any]:
    return {
        "B": float(grid.B),
        "L": int(grid.L),
        "origin": int(grid.origin),
        "horizon": int(grid.horizon),
    }


def grid_from_obj(obj: Any, where: str) -> GridSpec:
    try:
        return GridSpec(
            B=float(obj["B"]),
            L=int(obj["L"]),
            origin=int(obj["origin"]),
            horizon=int(obj["horizon"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{where}: bad grid object ({exc})")


def _samples_from(rows: Any, count: int, what: str, where: str) -> np.ndarray:
    """The one reader of a ``[re, im]`` sample list: exactly ``count`` samples."""
    try:
        vals = [complex(re, im) for re, im in rows]
    except (TypeError, ValueError):
        raise CliError(f"{where}: samples must be [re, im] pairs")
    if len(vals) != count:
        raise CliError(f"{where}: {len(vals)} samples for {what} {count}")
    return np.array(vals, dtype=np.complex128)


def signal_to_obj(sig: Signal) -> Dict[str, Any]:
    return {
        "grid": grid_to_obj(sig.grid),
        "samples": [_c2l(complex(z)) for z in sig.samples],
    }


def signal_from_obj(obj: Any, where: str) -> Signal:
    if not isinstance(obj, dict) or "grid" not in obj or "samples" not in obj:
        raise CliError(f"{where}: expected a signal object with 'grid' and 'samples'")
    grid = grid_from_obj(obj["grid"], where)
    return Signal(grid, _samples_from(obj["samples"], grid.horizon, "horizon", where))


def load_signal(path: Path) -> Signal:
    return signal_from_obj(load_json(path), str(path))


def window_to_obj(pair: WindowPair) -> Dict[str, Any]:
    return {
        "grid": grid_to_obj(pair.grid),
        "samples": [_c2l(complex(z)) for z in pair.phi],
        "b": float(pair.b),
        "profile": pair.profile,
    }


def window_from_obj(obj: Any, where: str) -> WindowPair:
    try:
        grid = grid_from_obj(obj["grid"], where)
        b = float(obj["b"])
        profile = str(obj["profile"])
        rows = obj["samples"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{where}: bad window object ({exc})")
    stored = _samples_from(rows, grid.L, "window length", where)
    try:
        # an analytic profile ignores the samples; they are checked against it below
        pair = build_window(profile, grid, b, samples=stored)
    except ValueError as exc:
        raise CliError(f"{where}: bad window object ({exc})")
    if float(np.max(np.abs(pair.phi - stored))) > 1e-12:
        raise CliError(
            f"{where}: stored window samples do not match profile {profile!r} "
            "with default parameters; re-export with profile 'user'"
        )
    return pair


def nodes_to_obj(nodes: TimeNodes) -> Dict[str, Any]:
    return {
        "mode": nodes.mode,
        "times": [float(t) for t in nodes.times],
        "a": None if nodes.a is None else float(nodes.a),
        "anchor_index": nodes.anchor_index,
    }


def nodes_from_obj(obj: Any, where: str) -> TimeNodes:
    try:
        nodes = TimeNodes(
            mode=str(obj["mode"]),
            times=tuple(float(t) for t in obj["times"]),
            a=None if obj.get("a") is None else float(obj["a"]),
        )
        stored = None if obj.get("anchor_index") is None else int(obj["anchor_index"])
        if stored != nodes.anchor_index:
            raise ValueError(
                f"anchor_index must be {nodes.anchor_index} in node mode {nodes.mode!r}, "
                f"got {stored!r}"
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{where}: bad nodes object ({exc})")
    return nodes


def _cells(ms: MeasurementSet) -> List[tuple]:
    """Each (t_index, t, bin index, n, omega) of a critical-grid measurement, node by node."""
    bins = list(enumerate(zip(ms.freqs.ns.tolist(), ms.freqs.omegas.tolist())))
    return [(ti, t, bi, n, omega) for ti, t in enumerate(ms.nodes.times) for bi, (n, omega) in bins]


def measurement_to_obj(ms: MeasurementSet) -> Dict[str, Any]:
    if ms.freqs.mode != "critical":
        raise CliError("only critical-grid measurements are file-representable")
    rows = [
        {"w": w, "t_index": ti, "n": n, "value": float(ms.mags[wi, ti, bi])}
        for wi, w in enumerate(WINDOW_NAMES)
        for ti, _, bi, n, _ in _cells(ms)
    ]
    return {
        "pair": window_to_obj(ms.pair),
        "nodes": nodes_to_obj(ms.nodes),
        "freqs": {"mode": "critical", "N": int(ms.freqs.N)},
        "mags": rows,
    }


def measurement_from_obj(obj: Any, where: str) -> MeasurementSet:
    for key in ("pair", "nodes", "freqs", "mags"):
        if key not in obj:
            raise CliError(f"{where}: measurement file missing {key!r}")
    pair = window_from_obj(obj["pair"], where)
    nodes = nodes_from_obj(obj["nodes"], where)
    fq = obj["freqs"]
    if not isinstance(fq, dict):
        raise CliError(f"{where}: bad freqs object (expected a mapping, got {fq!r})")
    if fq.get("mode") != "critical":
        raise CliError(f"{where}: only critical-grid measurement files are supported")
    N = fq.get("N")
    if type(N) is not int or N < 1:
        raise CliError(f"{where}: bad freqs object (N must be a positive integer, got {N!r})")
    freqs = FrequencyGrid.critical(N, pair.grid.B)
    if not isinstance(obj["mags"], list):
        raise CliError(f"{where}: bad mags (expected a list of rows, got {obj['mags']!r})")
    mags = np.zeros((2, len(nodes.times), 2 * N))
    # every (w, t_index, n) must come exactly once: a zero-filled gap or an
    # overwritten duplicate would be recovered from as if it were data
    seen = np.zeros(mags.shape, dtype=bool)
    windex = {"phi": 0, "psi": 1}
    for row in obj["mags"]:
        try:
            wi = windex[row["w"]]
            ti = int(row["t_index"])
            bi = int(row["n"]) + N
            val = float(row["value"])
        except (KeyError, TypeError, ValueError):
            raise CliError(f"{where}: malformed magnitude row {row!r}")
        if not (0 <= ti < len(nodes.times)) or not (0 <= bi < 2 * N):
            raise CliError(
                f"{where}: magnitude row out of range (t_index {ti}, n {row['n']})"
            )
        if seen[wi, ti, bi]:
            raise CliError(
                f"{where}: repeated magnitude row (w {row['w']}, t_index {ti}, n {bi - N})"
            )
        seen[wi, ti, bi] = True
        mags[wi, ti, bi] = val
    if not seen.all():
        wi, ti, bi = np.argwhere(~seen)[0]
        raise CliError(
            f"{where}: missing magnitude row (w {('phi', 'psi')[wi]}, t_index {ti}, n {bi - N})"
        )
    return MeasurementSet(pair=pair, nodes=nodes, freqs=freqs, mags=mags)


def load_measurement(path: Path) -> MeasurementSet:
    obj = load_json(path)
    if not isinstance(obj, dict) or "mags" not in obj:
        raise CliError(f"{path}: not a measurement file")
    return measurement_from_obj(obj, str(path))


def report_to_obj(rep: ReconstructionReport) -> Dict[str, Any]:
    return {
        "ambiguity": rep.ambiguity,
        "residual": float(rep.residual),
        "lambda": [_c2l(complex(l)) for l in rep.lambdas],
        "signal": signal_to_obj(rep.signal),
        "anchor_used": bool(rep.anchor_used),
        "alternative": None if rep.alternative is None else signal_to_obj(rep.alternative),
        "uncovered": list(rep.uncovered),
    }


# ---------------------------------------------------------------------------
# CSV emission


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: List[str], rows: Any) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def write_measurement_csv(ms: MeasurementSet, path: Path) -> None:
    """Long-format export, columns w, t, n, omega, value: every phi row, then every psi row."""
    _write_csv(path, ["w", "t", "n", "omega", "value"], (
        [w, _g17(t), n, _g17(omega), _g17(ms.mags[wi, ti, bi])]
        for wi, w in enumerate(WINDOW_NAMES)
        for ti, t, bi, n, omega in _cells(ms)
    ))


def write_plot_csv(obj: Any, path: Path, where: str) -> None:
    """Plot-ready CSV for a measurement, signal, or report file.

    A measurement is read as ``recover`` reads it and becomes
    (t, n, omega, mag_phi, mag_psi) rows, one per node and bin; a signal (or
    the signal inside a report) becomes (x, re_f, im_f, abs_f) rows, one per
    grid index.  Column order is fixed, and a refused file writes nothing.
    """
    if isinstance(obj, dict) and "mags" in obj:
        ms = measurement_from_obj(obj, where)
        _write_csv(path, ["t", "n", "omega", "mag_phi", "mag_psi"], (
            [_g17(t), n, _g17(omega), _g17(ms.mags[0, ti, bi]), _g17(ms.mags[1, ti, bi])]
            for ti, t, bi, n, omega in _cells(ms)
        ))
        return
    if isinstance(obj, dict) and "signal" in obj:
        obj = obj["signal"]
    sig = signal_from_obj(obj, where)
    _write_csv(path, ["x", "re_f", "im_f", "abs_f"], (
        [_g17(x), _g17(z.real), _g17(z.imag), _g17(abs(z))]
        for x, z in zip(sig.grid.coords(), sig.samples.tolist())
    ))


# ---------------------------------------------------------------------------
# subcommands


def _refuse_given(args: argparse.Namespace, names: Sequence[str], why: str) -> None:
    """Refuse each flag in ``names`` that was given, so that none is dropped unread."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise CliError(f"{', '.join(given)}: {why}")


def _window(args: argparse.Namespace, grid: GridSpec) -> WindowPair:
    return build_window(args.profile or "rectangular", grid, b=args.b)


def _lattice(args: argparse.Namespace, grid: GridSpec) -> TimeNodes:
    """Nodes at step --a (default B) covering the grid, plus the --anchor node if any."""
    a = args.a if args.a is not None else grid.B
    anchor = args.anchor or "none"
    t0: Optional[float] = None
    if anchor == "incommensurate":
        t0 = default_anchor(a, grid.horizon)
    elif anchor != "none":
        try:
            t0 = float(anchor)
        except ValueError:
            raise CliError(
                f"--anchor must be 'none', 'incommensurate', or a number, got {anchor!r}"
            )
    return TimeNodes.lattice_covering(grid, a, t0)


def cmd_measure(args: argparse.Namespace) -> int:
    sig = load_signal(Path(args.signal))
    pair = _window(args, sig.grid)
    nodes = _lattice(args, sig.grid)
    ms = measure(sig, pair, nodes)
    out = Path(args.out)
    dump_json(measurement_to_obj(ms), out)
    if args.csv:
        write_measurement_csv(ms, Path(args.csv))
    print(f"wrote {out}: {len(nodes.times)} nodes x {2 * ms.freqs.N} bins, a = {_g17(nodes.a)}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    ms = load_measurement(Path(args.measurement))
    rep = reconstruct(ms, ms.pair)
    dump_json(report_to_obj(rep), Path(args.report))
    if args.signal_out:
        dump_json(signal_to_obj(rep.signal), Path(args.signal_out))
    print(f"ambiguity={rep.ambiguity} residual={rep.residual:.3e}")
    return 0 if rep.ambiguity == "phase_only" else 2


def cmd_forge(args: argparse.Namespace) -> int:
    accepted = inspect.signature(FORGES[args.claim]).parameters
    _refuse_given(args, [n for n in ("B", "a", "seed") if n not in accepted],
                  f"not accepted by forge {args.claim}")
    kwargs = {n: getattr(args, n) for n in ("B", "a", "seed") if getattr(args, n) is not None}
    fp = forge(args.claim, **kwargs)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    f_path = outdir / "f.json"
    g_path = outdir / "g.json"
    dump_json(signal_to_obj(fp.f), f_path)
    dump_json(signal_to_obj(fp.g), g_path)
    manifest = {
        "claim": fp.claim,
        "min_distance": float(fp.min_distance),
        "params": fp.params,
        "files": {"f": f_path.name, "g": g_path.name},
        "nodes": nodes_to_obj(fp.nodes),
        "window": {"b": float(fp.pair.b), "profile": fp.pair.profile},
    }
    dump_json(manifest, outdir / "manifest.json")
    print(
        f"forged {fp.claim}: min_distance {fp.min_distance:.3f}, "
        f"sup dev {fp.params.get('measurement_sup_dev', float('nan')):.3e} -> {outdir}"
    )
    return 0


def cmd_verify_pair(args: argparse.Namespace) -> int:
    if args.manifest:
        _refuse_given(args, ("f", "g", "a", "b", "anchor", "profile"),
                      "not accepted with --manifest, which brings the signals, nodes and window")
        mpath = Path(args.manifest)
        man = load_json(mpath)
        try:
            f_name, g_name = man["files"]["f"], man["files"]["g"]
            nodes = nodes_from_obj(man["nodes"], str(mpath))
            profile, b = str(man["window"]["profile"]), float(man["window"]["b"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{mpath}: bad manifest ({exc})")
        f = load_signal(mpath.parent / f_name)
        g = load_signal(mpath.parent / g_name)
        try:
            pair = build_window(profile, f.grid, b=b)
        except ValueError as exc:
            raise CliError(f"{mpath}: bad window object ({exc})")
    else:
        if not (args.f and args.g):
            raise CliError("verify pair needs --manifest or both --f and --g")
        f = load_signal(Path(args.f))
        g = load_signal(Path(args.g))
        pair = _window(args, f.grid)
        nodes = _lattice(args, f.grid)
    if f.grid != g.grid:
        raise CliError("the two signals live on different grids")
    ms_f = measure(f, pair, nodes)
    ms_g = measure(g, pair, nodes)
    tol = {} if args.tol is None else {"tol": args.tol}
    equal, dev = measurements_equal(ms_f, ms_g, **tol)
    equivalent = pair_equivalent(
        f.samples, g.samples, allow_reflection=(nodes.mode == "lattice")
    )
    distance = global_phase_align(f, g).residual
    if equivalent:
        verdict = "equivalent"
    elif equal:
        verdict = "equal measurements, inequivalent signals"
    else:
        verdict = "distinguishable measurements"
    if args.out:
        dump_json(
            {
                "verdict": verdict,
                "measurements_equal": bool(equal),
                "sup_dev": float(dev),
                "equivalent": bool(equivalent),
                "aligned_distance": float(distance),
            },
            Path(args.out),
        )
    print(f"{verdict} (sup dev {dev:.3e}, aligned distance {distance:.3f})")
    wanted = {
        "counterexample": "equal measurements, inequivalent signals",
        "equivalent": "equivalent",
    }
    return 0 if args.expect is None or verdict == wanted[args.expect] else 1


def cmd_verify_oracle(args: argparse.Namespace) -> int:
    if args.B is None or args.L is None or args.horizon is None:
        raise CliError("verify oracle needs --B, --L, and --horizon")
    origin = args.origin if args.origin is not None else args.horizon // 2
    grid = GridSpec(B=args.B, L=args.L, origin=origin, horizon=args.horizon)
    pair = _window(args, grid)
    nodes = _lattice(args, grid)
    cells = []
    for word in args.cells.split(",") if args.cells else range(grid.horizon):
        try:
            cells.append(int(word))
        except ValueError:
            raise CliError(f"--cells: {word!r} is not a cell index") from None
    samples, desc = alphabet_family(grid, cells)
    report = uniqueness_oracle(
        OracleConfig(grid=grid, pair=pair, nodes=nodes), samples, description=desc
    )
    if args.out:
        dump_json(_oracle_report_obj(report), Path(args.out))
    print(
        f"{report.description}: {report.instance_count} instances, "
        f"{report.class_count} classes, {report.violation_count} violations "
        f"({report.elapsed:.1f}s)"
    )
    wanted = {"none": True, "some": False}
    return 0 if args.expect is None or report.unique == wanted[args.expect] else 1


def _oracle_report_obj(report: OracleReport) -> Dict[str, Any]:
    """The report's counts and its first eight violating pairs."""
    return {
        "description": report.description,
        "instance_count": report.instance_count,
        "class_count": report.class_count,
        "violation_count": report.violation_count,
        "unique": report.unique,
        "elapsed": float(report.elapsed),
        "violations": [
            {"f": signal_to_obj(u), "g": signal_to_obj(v), "rows": [i, j]}
            for (u, v), (i, j) in zip(report.violations[:8], report.violation_rows)
        ],
    }


def cmd_plot(args: argparse.Namespace) -> int:
    path = Path(args.input)
    write_plot_csv(load_json(path), Path(args.out), str(path))
    print(f"wrote {args.out}")
    return 0


def _criterion_numbers(text: str) -> List[int]:
    """The criteria a comma-separated list names, each once, in order."""
    numbers = set()
    for word in text.split(","):
        try:
            k = int(word)
        except ValueError:
            k = None
        if k not in CRITERIA:
            raise CliError(
                f"--criteria: {word!r} is not a criterion number "
                f"(valid: {min(CRITERIA)}-{max(CRITERIA)})"
            )
        numbers.add(k)
    return sorted(numbers)


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_all(_criterion_numbers(args.criteria) if args.criteria else None)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


#: Flags shared by several subcommands, by name, in the order they are added.
_COMMON: Dict[str, Dict[str, Any]] = {
    "B": dict(type=float, help="half window support"),
    "L": dict(type=int, help="cells per window support"),
    "a": dict(type=float, help="time lattice step (default B)"),
    "b": dict(type=float, help="second-window modulation (default 1/(4B))"),
    "horizon": dict(type=int, help="total grid length"),
    "seed": dict(type=int, help="deterministic seed"),
    "tol": dict(type=float, help="sup-norm bound for equal measurements"),
    "anchor": dict(
        metavar="{none,incommensurate,value}",
        help="extra off-lattice node: none (default), incommensurate, or a number",
    ),
    "profile": dict(
        choices=("rectangular", "raised_cosine"), help="window profile (default rectangular)"
    ),
}


def _add_common(sp: argparse.ArgumentParser, *names: str) -> None:
    for name in _COMMON:
        if name in names:
            sp.add_argument(f"--{name}", **_COMMON[name])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twowin",
        description="Two-window STFT magnitude measurements: forward model, "
        "recovery, counterexample forges, and uniqueness oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("measure", help="measure a signal file on a node lattice")
    sp.add_argument("signal", help="signal JSON file")
    sp.add_argument("--out", required=True, help="measurement JSON output")
    sp.add_argument("--csv", help="optional long-format CSV output")
    _add_common(sp, "a", "b", "anchor", "profile")
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("recover", help="reconstruct a signal from measurements")
    sp.add_argument("measurement", help="measurement JSON file")
    sp.add_argument("--report", required=True, help="report JSON output")
    sp.add_argument("--signal-out", help="optional recovered-signal JSON output")
    sp.set_defaults(func=cmd_recover)

    sp = sub.add_parser("forge", help="build a counterexample pair")
    sp.add_argument("claim", choices=CLAIMS, help="which construction")
    sp.add_argument("--outdir", default=".", help="directory for f.json/g.json/manifest.json")
    _add_common(sp, "B", "a", "seed")
    sp.set_defaults(func=cmd_forge)

    sp = sub.add_parser("verify", help="compare a pair or scan a family")
    vsub = sp.add_subparsers(dest="mode", required=True)
    vp = vsub.add_parser("pair", help="measure two signals and compare")
    vp.add_argument("--manifest", help="forge manifest (brings files, nodes, window)")
    vp.add_argument("--f", help="first signal JSON")
    vp.add_argument("--g", help="second signal JSON")
    vp.add_argument("--out", help="verdict JSON output")
    vp.add_argument(
        "--expect",
        choices=("counterexample", "equivalent"),
        help="exit nonzero unless the verdict matches",
    )
    _add_common(vp, "a", "b", "anchor", "profile", "tol")
    vp.set_defaults(func=cmd_verify_pair)
    vo = vsub.add_parser("oracle", help="exhaustive alphabet-family uniqueness scan")
    vo.add_argument("--origin", type=int, help="grid origin index (default horizon/2)")
    vo.add_argument("--cells", help="comma-separated support cells (default all)")
    vo.add_argument("--out", help="oracle report JSON output")
    vo.add_argument(
        "--expect",
        choices=("none", "some"),
        help="expected violations; exit nonzero on mismatch",
    )
    _add_common(vo, "B", "L", "a", "b", "horizon", "anchor", "profile")
    vo.set_defaults(func=cmd_verify_oracle)

    sp = sub.add_parser("plot", help="emit plot-ready CSV from a JSON file")
    sp.add_argument("input", help="measurement, signal, or report JSON file")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.set_defaults(func=cmd_plot)

    sp = sub.add_parser("selftest", help="run the acceptance criteria")
    sp.add_argument("--criteria", help="comma-separated subset, e.g. 5,6")
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    # argparse takes a value that starts with a minus sign and a digit, such
    # as "-1,3", for an option, so it is joined to the long option before it
    # (one with no "=", never the bare "--"), whose abbreviation argparse resolves
    words: List[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        long_opt = bool(words) and words[-1][:2] == "--" and len(words[-1]) > 2
        if long_opt and "=" not in words[-1] and word[:1] == "-" and word[1:2].isdigit():
            words[-1] = f"{words[-1]}={word}"
        else:
            words.append(word)
    args = build_parser().parse_args(words)
    try:
        for name in ("B", "a", "b", "tol"):
            v = getattr(args, name, None)
            if v is not None and not v > 0:
                raise CliError(f"--{name} must be positive, got {v}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # declared module errors -> exit 1 with context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
