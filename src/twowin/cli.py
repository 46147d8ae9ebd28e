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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .signal_model import GridSpec, Signal, global_phase_align
from .window_engine import WindowPair, build_window
from .stft_engine import (
    FrequencyGrid,
    MeasurementSet,
    TimeNodes,
    default_anchor,
    measure,
)
from .stitcher import ReconstructionReport, reconstruct
from .counterexample_forge import CLAIMS, forge
from .verifier import (
    OracleConfig,
    OracleReport,
    alphabet_family,
    measurements_equal,
    pair_equivalent,
    uniqueness_oracle,
)
from . import counterexample_forge
from .acceptance import run_all


class CliError(Exception):
    """A user-facing failure with file or argument context."""


# ---------------------------------------------------------------------------
# JSON with pinned float formatting


def _render(obj: Any, ind: str = "") -> str:
    """Serialize to JSON text with floats at 17 significant digits."""
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


def _plain(v: Any) -> Any:
    """Reduce parameter values to JSON-friendly shapes (complex -> [re, im])."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (complex, np.complexfloating)):
        return _c2l(complex(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


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
    except (KeyError, TypeError) as exc:
        raise CliError(f"{where}: bad grid object ({exc})")


def signal_to_obj(sig: Signal) -> Dict[str, Any]:
    return {
        "grid": grid_to_obj(sig.grid),
        "samples": [_c2l(complex(z)) for z in sig.samples],
    }


def signal_from_obj(obj: Any, where: str) -> Signal:
    if not isinstance(obj, dict) or "grid" not in obj or "samples" not in obj:
        raise CliError(f"{where}: expected a signal object with 'grid' and 'samples'")
    grid = grid_from_obj(obj["grid"], where)
    rows = obj["samples"]
    if len(rows) != grid.horizon:
        raise CliError(
            f"{where}: {len(rows)} samples for horizon {grid.horizon}"
        )
    try:
        vals = np.array([complex(re, im) for re, im in rows], dtype=np.complex128)
    except (TypeError, ValueError):
        raise CliError(f"{where}: samples must be [re, im] pairs")
    return Signal(grid, vals)


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
    grid = grid_from_obj(obj["grid"], where)
    b = float(obj["b"])
    profile = str(obj["profile"])
    stored = np.array([complex(re, im) for re, im in obj["samples"]], dtype=np.complex128)
    if profile == "user":
        return build_window("user", grid, b, samples=stored)
    pair = build_window(profile, grid, b)
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
        return TimeNodes(
            mode=str(obj["mode"]),
            times=tuple(float(t) for t in obj["times"]),
            a=None if obj.get("a") is None else float(obj["a"]),
            anchor_index=None
            if obj.get("anchor_index") is None
            else int(obj["anchor_index"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{where}: bad nodes object ({exc})")


def measurement_to_obj(ms: MeasurementSet) -> Dict[str, Any]:
    if ms.freqs.mode != "critical":
        raise CliError("only critical-grid measurements are file-representable")
    rows = []
    ns = ms.freqs.ns
    for wi, wname in enumerate(("phi", "psi")):
        for ti in range(len(ms.nodes.times)):
            for bi, n in enumerate(ns):
                rows.append(
                    {
                        "w": wname,
                        "t_index": ti,
                        "n": int(n),
                        "value": float(ms.mags[wi, ti, bi]),
                    }
                )
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
    if fq.get("mode") != "critical":
        raise CliError(f"{where}: only critical-grid measurement files are supported")
    N = int(fq["N"])
    freqs = FrequencyGrid.critical(N, pair.grid.B)
    mags = np.zeros((2, len(nodes.times), 2 * N))
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
        mags[wi, ti, bi] = val
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
    }


# ---------------------------------------------------------------------------
# CSV emission


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def write_measurement_csv(ms: MeasurementSet, path: Path) -> None:
    """Long-format export, columns w, t, n, omega, value."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["w", "t", "n", "omega", "value"])
        for w, t, n, omega, value in ms.to_rows():
            out.writerow([w, _g17(t), n, _g17(omega), _g17(value)])


def write_plot_csv(obj: Any, path: Path, where: str) -> None:
    """Plot-ready CSV for a measurement, signal, or report file.

    Measurements become (t, n, omega, mag_phi, mag_psi) rows, one per node
    and bin; signals (or the signal inside a report) become
    (x, re_f, im_f, abs_f) rows, one per grid index.  Column order is fixed.
    """
    with path.open("w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        if isinstance(obj, dict) and "mags" in obj:
            out.writerow(["t", "n", "omega", "mag_phi", "mag_psi"])
            nodes = nodes_from_obj(obj["nodes"], where)
            B = float(obj["pair"]["grid"]["B"])
            table: Dict[Tuple[int, int], Dict[str, float]] = {}
            for row in obj["mags"]:
                table.setdefault((int(row["t_index"]), int(row["n"])), {})[
                    str(row["w"])
                ] = float(row["value"])
            for ti, n in sorted(table):
                cell = table[(ti, n)]
                out.writerow(
                    [
                        _g17(nodes.times[ti]),
                        n,
                        _g17(n / (4.0 * B)),
                        _g17(cell.get("phi", 0.0)),
                        _g17(cell.get("psi", 0.0)),
                    ]
                )
            return
        if isinstance(obj, dict) and "signal" in obj:
            obj = obj["signal"]
        sig = signal_from_obj(obj, where)
        out.writerow(["x", "re_f", "im_f", "abs_f"])
        xs = sig.grid.coords()
        for k in range(sig.grid.horizon):
            z = complex(sig.samples[k])
            out.writerow([_g17(xs[k]), _g17(z.real), _g17(z.imag), _g17(abs(z))])


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Validated command options shared across subcommands."""

    B: Optional[float] = None
    L: Optional[int] = None
    a: Optional[float] = None
    b: Optional[float] = None
    horizon: Optional[int] = None
    anchor: str = "none"
    seed: Optional[int] = None
    tol: Optional[float] = None
    profile: str = "rectangular"

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls(
            B=getattr(args, "B", None),
            L=getattr(args, "L", None),
            a=getattr(args, "a", None),
            b=getattr(args, "b", None),
            horizon=getattr(args, "horizon", None),
            anchor=getattr(args, "anchor", "none") or "none",
            seed=getattr(args, "seed", None),
            tol=getattr(args, "tol", None),
            profile=getattr(args, "profile", "rectangular") or "rectangular",
        )
        for name in ("B", "a", "b", "tol"):
            v = getattr(cfg, name)
            if v is not None and not v > 0:
                raise CliError(f"--{name} must be positive, got {v}")
        return cfg

    def anchor_value(self, a: float, horizon: int) -> Optional[float]:
        if self.anchor == "none":
            return None
        if self.anchor == "incommensurate":
            return default_anchor(a, horizon)
        try:
            return float(self.anchor)
        except ValueError:
            raise CliError(
                f"--anchor must be 'none', 'incommensurate', or a number, got {self.anchor!r}"
            )

    def check_grid(self, grid: GridSpec, where: str) -> None:
        """Flags that duplicate file-borne grid fields must agree with them."""
        for name, got in (("B", grid.B), ("L", grid.L), ("horizon", grid.horizon)):
            want = getattr(self, name)
            if want is not None and float(want) != float(got):
                raise CliError(
                    f"--{name} {want} contradicts {where} (grid has {name} = {got})"
                )


# ---------------------------------------------------------------------------
# subcommands


def cmd_measure(config: RunConfig, args: argparse.Namespace) -> int:
    sig = load_signal(Path(args.signal))
    grid = sig.grid
    config.check_grid(grid, args.signal)
    pair = build_window(config.profile, grid, b=config.b)
    a = config.a if config.a is not None else grid.B
    nodes = TimeNodes.lattice_covering(grid, a, config.anchor_value(a, grid.horizon))
    ms = measure(sig, pair, nodes)
    out = Path(args.out)
    dump_json(measurement_to_obj(ms), out)
    if args.csv:
        write_measurement_csv(ms, Path(args.csv))
    print(f"wrote {out}: {len(nodes.times)} nodes x {2 * ms.freqs.N} bins, a = {_g17(a)}")
    return 0


def cmd_recover(config: RunConfig, args: argparse.Namespace) -> int:
    ms = load_measurement(Path(args.measurement))
    kwargs = {}
    if config.tol is not None:
        kwargs["accept_tol"] = config.tol
    rep = reconstruct(ms, ms.pair, **kwargs)
    dump_json(report_to_obj(rep), Path(args.report))
    if args.signal_out:
        dump_json(signal_to_obj(rep.signal), Path(args.signal_out))
    print(f"ambiguity={rep.ambiguity} residual={rep.residual:.3e}")
    return 0 if rep.ambiguity == "phase_only" else 2


def cmd_forge(config: RunConfig, args: argparse.Namespace) -> int:
    table = {
        "separable_gap": counterexample_forge.forge_separable,
        "wide_step": counterexample_forge.forge_wide_step,
        "rational_periodic": counterexample_forge.forge_rational_periodic,
        "quasiperiodic_flip": counterexample_forge.forge_quasiperiodic_flip,
        "rational_lattice": counterexample_forge.forge_rational_lattice,
    }
    accepted = inspect.signature(table[args.claim]).parameters
    kwargs = {
        name: val
        for name, val in (("B", config.B), ("a", config.a), ("seed", config.seed))
        if val is not None and name in accepted
    }
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
        "params": _plain(fp.params),
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


def _verify_pair(config: RunConfig, args: argparse.Namespace) -> int:
    tol = config.tol if config.tol is not None else 1e-10
    if args.manifest:
        mpath = Path(args.manifest)
        man = load_json(mpath)
        base = mpath.parent
        f = load_signal(base / man["files"]["f"])
        g = load_signal(base / man["files"]["g"])
        nodes = nodes_from_obj(man["nodes"], str(mpath))
        pair = build_window(man["window"]["profile"], f.grid, b=float(man["window"]["b"]))
    else:
        if not (args.f and args.g):
            raise CliError("verify pair needs --manifest or both --f and --g")
        f = load_signal(Path(args.f))
        g = load_signal(Path(args.g))
        pair = build_window(config.profile, f.grid, b=config.b)
        a = config.a if config.a is not None else f.grid.B
        nodes = TimeNodes.lattice_covering(
            f.grid, a, config.anchor_value(a, f.grid.horizon)
        )
    if f.grid != g.grid:
        raise CliError("the two signals live on different grids")
    ms_f = measure(f, pair, nodes)
    ms_g = measure(g, pair, nodes)
    equal, dev = measurements_equal(ms_f, ms_g, tol=tol)
    equivalent = pair_equivalent(
        f.samples, g.samples, allow_reflection=(nodes.mode == "lattice")
    )
    distance = min(
        global_phase_align(f, g).residual, global_phase_align(g, f).residual
    )
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
    if args.expect == "counterexample":
        return 0 if verdict == "equal measurements, inequivalent signals" else 1
    if args.expect == "equivalent":
        return 0 if verdict == "equivalent" else 1
    return 0


def _verify_oracle(config: RunConfig, args: argparse.Namespace) -> int:
    if config.B is None or config.L is None or config.horizon is None:
        raise CliError("verify oracle needs --B, --L, and --horizon")
    origin = args.origin if args.origin is not None else config.horizon // 2
    grid = GridSpec(B=config.B, L=int(config.L), origin=origin, horizon=int(config.horizon))
    pair = build_window(config.profile, grid, b=config.b)
    a = config.a if config.a is not None else grid.B
    nodes = TimeNodes.lattice_covering(grid, a, config.anchor_value(a, grid.horizon))
    cells = (
        [int(c) for c in args.cells.split(",")]
        if args.cells
        else list(range(grid.horizon))
    )
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
    if args.expect == "none":
        return 0 if report.unique else 1
    if args.expect == "some":
        return 0 if not report.unique else 1
    return 0


def _oracle_report_obj(report: OracleReport, keep: int = 8) -> Dict[str, Any]:
    return {
        "description": report.description,
        "instance_count": report.instance_count,
        "class_count": report.class_count,
        "violation_count": report.violation_count,
        "unique": report.unique,
        "elapsed": float(report.elapsed),
        "violations": [
            {"f": signal_to_obj(u), "g": signal_to_obj(v)}
            for u, v in report.violations[:keep]
        ],
    }


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    if args.mode == "pair":
        return _verify_pair(config, args)
    return _verify_oracle(config, args)


def cmd_plot(config: RunConfig, args: argparse.Namespace) -> int:
    path = Path(args.input)
    write_plot_csv(load_json(path), Path(args.out), str(path))
    print(f"wrote {args.out}")
    return 0


def cmd_selftest(config: RunConfig, args: argparse.Namespace) -> int:
    numbers = None
    if args.criteria:
        numbers = [int(c) for c in args.criteria.split(",")]
    results = run_all(numbers)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(sp: argparse.ArgumentParser, *names: str) -> None:
    if "B" in names:
        sp.add_argument("--B", type=float, help="half window support")
    if "L" in names:
        sp.add_argument("--L", type=int, help="cells per window support")
    if "a" in names:
        sp.add_argument("--a", type=float, help="time lattice step (default B)")
    if "b" in names:
        sp.add_argument("--b", type=float, help="second-window modulation (default 1/(4B))")
    if "horizon" in names:
        sp.add_argument("--horizon", type=int, help="total grid length")
    if "seed" in names:
        sp.add_argument("--seed", type=int, help="deterministic seed")
    if "tol" in names:
        sp.add_argument("--tol", type=float, help="tolerance override")
    if "anchor" in names:
        sp.add_argument(
            "--anchor",
            default="none",
            metavar="{none,incommensurate,value}",
            help="extra off-lattice node: none, incommensurate, or a number",
        )
    if "profile" in names:
        sp.add_argument(
            "--profile",
            default="rectangular",
            choices=("rectangular", "raised_cosine"),
            help="window profile",
        )


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
    _add_common(sp, "B", "L", "a", "b", "horizon", "anchor", "profile")
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("recover", help="reconstruct a signal from measurements")
    sp.add_argument("measurement", help="measurement JSON file")
    sp.add_argument("--report", required=True, help="report JSON output")
    sp.add_argument("--signal-out", help="optional recovered-signal JSON output")
    _add_common(sp, "tol")
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
    vp.set_defaults(func=cmd_verify)
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
    vo.set_defaults(func=cmd_verify)

    sp = sub.add_parser("plot", help="emit plot-ready CSV from a JSON file")
    sp.add_argument("input", help="measurement, signal, or report JSON file")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.set_defaults(func=cmd_plot)

    sp = sub.add_parser("selftest", help="run the acceptance criteria")
    sp.add_argument("--criteria", help="comma-separated subset, e.g. 5,6")
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        return args.func(config, args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # declared module errors -> exit 1 with context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
