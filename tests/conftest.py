from collections import OrderedDict

import numpy as np
import pytest

from twowin import GridSpec, Signal, stft_engine, stitcher


@pytest.fixture
def make_signal():
    """Seeded complex signal factory; cells=None fills the whole horizon."""

    def _make(grid: GridSpec, seed: int, cells=None) -> Signal:
        rng = np.random.default_rng(seed)
        vals = np.zeros(grid.horizon, dtype=np.complex128)
        idx = np.arange(grid.horizon) if cells is None else np.asarray(cells)
        vals[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        return Signal(grid, vals)

    return _make


@pytest.fixture
def run_cli(capsys):
    """Invoke the console entry point in-process and capture its output."""
    from twowin import cli

    def _run(*argv):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def cold_tables(monkeypatch):
    """An empty exponential-table memo and empty lattice memos for one test;
    the process's own memo is put back after it.  Returns the memo."""
    monkeypatch.setattr(stft_engine, "_tables", OrderedDict())
    monkeypatch.setattr(stft_engine, "_tables_held", 0)
    stitcher._window_runs.cache_clear()
    stitcher._lattice_step.cache_clear()
    return stft_engine._tables
