"""The verdict columns of ``scripts/pairs.py``, on synthetic runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "wait", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _runs(rate, wait):
    """One (parent, change) result pair per seed from ``(parent, change)``
    values of each metric."""
    def result(r, w):
        return {"metrics": {"rate": {"value": r}, "wait": {"value": w}},
                "failed": 0, "attempted": 10}
    return [(result(rp, wp), result(rc, wc)) for (rp, rc), (wp, wc) in zip(rate, wait)]


def _verdicts(runs):
    """{metric: (won, claim, bound)} read back from the printed table."""
    rows = pairs.table(METRICS, runs).splitlines()
    assert rows[0].split("|")[-3:-1] == [" claim ", " bound "]
    assert rows[-1].startswith("| failed share | 0 of")
    out = {}
    for row in rows[2:-1]:
        cells = [c.strip() for c in row.strip("|").split("|")]
        out[cells[0].split()[0]] = tuple(cells[3:])
    return out


def test_a_clear_gain_is_a_claim_and_a_loss_past_the_bound_is_outside():
    # the rate rises by 10 on a parent spread of about 2 in every pair; the
    # wait doubles, far past its 25% bound
    rate = [(100.0 + i % 3, 110.0 + i % 3) for i in range(10)]
    wait = [(10.0 + 0.1 * i, 20.0 + 0.1 * i) for i in range(10)]
    got = _verdicts(_runs(rate, wait))
    assert got["rate"] == ("10 of 10", "yes", "inside")
    assert got["wait"] == ("0 of 10", "no", "outside")


def test_a_claim_needs_nine_of_ten_pairs_and_a_gain_past_the_spread():
    # eight wins of ten, each large: not a claim
    rate = [(100.0, 120.0)] * 8 + [(100.0, 90.0)] * 2
    # ten wins, but the median gain (0.5) sits inside the parent's spread
    wait = [(10.0 + i, 9.5 + i) for i in range(10)]
    got = _verdicts(_runs(rate, wait))
    assert got["rate"] == ("8 of 10", "no", "inside")
    assert got["wait"] == ("10 of 10", "no", "inside")
    # nine wins of ten with a gain past the spread is one
    rate = [(100.0 + i % 2, 110.0) for i in range(9)] + [(100.0, 99.0)]
    assert _verdicts(_runs(rate, wait))["rate"] == ("9 of 10", "yes", "inside")


def test_the_bound_is_a_fraction_of_the_parents_median():
    # a 24% loss stays inside a 25% bound, and a 26% loss is outside it
    rate = [(100.0, 76.0)] * 4
    wait = [(10.0, 12.6)] * 4
    got = _verdicts(_runs(rate, wait))
    assert got["rate"][2] == "inside" and got["wait"][2] == "outside"
