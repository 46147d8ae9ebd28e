"""The item dumps and the comparison of ``scripts/digest.py``, on the window
group."""

import contextlib
import importlib.util
import io
import pickle
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"
_spec = importlib.util.spec_from_file_location("digest", SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def _run(*argv) -> list:
    """The lines ``digest.py`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert digest.main([str(a) for a in argv]) == 0
    return out.getvalue().splitlines()


def _hashes(*argv) -> list:
    """The hash lines of a digest run, each without its timing."""
    return [line.rsplit("items", 1)[0] for line in _run(*argv)]


def test_two_dumps_of_one_checkout_compare_equal_and_a_perturbed_item_moves(tmp_path):
    a, b = tmp_path / "a.pkl", tmp_path / "b.pkl"
    plain = _hashes("--group", "window")
    assert _hashes("--group", "window", "--dump", a) == plain
    assert _hashes("--group", "window", "--dump", b) == plain
    assert _run("--compare", a, b) == ["no group moved"]
    assert digest.compare(pickle.loads(a.read_bytes()), pickle.loads(b.read_bytes())) == []

    # one item's first window sample off by 1e-9: one item moves, no class
    # or message changes, and the difference is measured
    dump = pickle.loads(b.read_bytes())
    h, values = dump["window"][5]
    phi = values[4].copy()
    phi[0] += 1e-9
    dump["window"][5] = ("moved", values[:4] + (phi,) + values[5:])
    b.write_bytes(pickle.dumps(dump))
    [(name, moved, classes, messages, diff, change)] = digest.compare(
        pickle.loads(a.read_bytes()), dump
    )
    assert (name, moved, classes, messages) == ("window", [5], [], [])
    assert 1e-11 < diff < 1e-8 and change == 0.0
    printed = _run("--compare", a, b)
    assert printed[0].split() == ["window", "1", "items", "moved:", "5"]


def test_the_comparison_reads_class_and_message_changes():
    refusal = ("error", "InconsistentMeasurements", "no factorization candidate matches")
    a = {"g": [("x", (np.ones(3), 1e-15)), ("y", (refusal,)), ("z", ("same",))]}
    b = {"g": [("x2", (np.ones(3) * 1j, 2e-15)), ("y2", (("error", "AmbiguityViolation", "two"),)),
               ("z", ("same",))], "only": []}
    [(name, moved, classes, messages, diff, change), only] = digest.compare(a, b)
    assert (name, moved) == ("g", [0, 1])
    assert classes == [(1, "InconsistentMeasurements", "AmbiguityViolation")]
    assert [m[0] for m in messages] == [1, 1]
    assert diff < 1e-15 and abs(change - 1e-15) < 1e-30
    assert only[:2] == ("only", None)
