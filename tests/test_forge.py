import numpy as np
import pytest

from twowin import (
    CLAIMS,
    PeriodicSpec,
    Signal,
    TimeNodes,
    default_anchor,
    equivalent_up_to_phase,
    forge,
    is_separable,
    make_periodic,
    measure,
    measurements_equal,
)
from twowin.signal_model import periodic_eval


@pytest.mark.parametrize("claim", CLAIMS)
def test_forged_pair_contract(claim):
    fp = forge(claim)
    assert fp.claim == claim
    assert fp.min_distance >= 0.1
    assert not equivalent_up_to_phase(fp.f, fp.g)
    assert fp.f.grid == fp.g.grid
    equal, dev = measurements_equal(
        measure(fp.f, fp.pair, fp.nodes), measure(fp.g, fp.pair, fp.nodes)
    )
    assert equal, f"{claim}: sup deviation {dev:.3e}"
    assert fp.params["measurement_sup_dev"] <= 1e-10


@pytest.mark.parametrize("claim", CLAIMS)
def test_forge_is_deterministic(claim):
    one, two = forge(claim), forge(claim)
    assert np.array_equal(one.f.samples, two.f.samples)
    assert np.array_equal(one.g.samples, two.g.samples)


def test_separable_gap_structure():
    fp = forge("separable_gap")
    grid = fp.f.grid
    a = fp.params["a"]
    assert is_separable(fp.f, 2 * grid.B - a)
    x = grid.coords()
    left = x < -grid.B
    right = x > grid.B - a
    assert np.array_equal(fp.g.samples[left], fp.f.samples[left])
    assert np.allclose(fp.g.samples[right], 1j * fp.f.samples[right], atol=0)
    assert not np.any(fp.f.samples[~(left | right)])


def test_separable_gap_closes_when_filled():
    # the same junk dropped into the dead zone of both signals re-couples the
    # two sides and the magnitudes stop agreeing
    fp = forge("separable_gap")
    grid = fp.f.grid
    mid = grid.cells(-0.5, "cell") + grid.origin
    fv, gv = fp.f.samples.copy(), fp.g.samples.copy()
    fv[mid] = gv[mid] = 0.7
    equal, dev = measurements_equal(
        measure(Signal(grid, fv), fp.pair, fp.nodes),
        measure(Signal(grid, gv), fp.pair, fp.nodes),
    )
    assert not equal
    assert dev > 1e-6


def test_wide_step_structure():
    fp = forge("wide_step")
    grid = fp.f.grid
    assert fp.params["a"] == 1.5 > grid.B
    assert fp.nodes.a == 1.5
    # the mate is the negated conjugate reflection about x = 0, everywhere
    assert fp.f.samples[0] == 0.0
    assert np.allclose(fp.g.samples[1:], -np.conj(fp.f.samples[:0:-1]), atol=1e-15)


def test_wide_step_separates_at_admissible_step():
    fp = forge("wide_step")
    nodes = TimeNodes.lattice_covering(fp.f.grid, fp.f.grid.B)
    _, dev = measurements_equal(
        measure(fp.f, fp.pair, nodes), measure(fp.g, fp.pair, nodes)
    )
    assert dev > 1e-3


def test_rational_periodic_structure():
    fp = forge("rational_periodic")
    grid = fp.f.grid
    T, q, t0, c0, cq = (fp.params[k] for k in ("T", "q", "t0", "c0", "cq"))
    spec_f = PeriodicSpec(T=T, mu=1.0, coefficients={0: c0, q: cq})
    assert np.array_equal(fp.f.samples, make_periodic(spec_f, grid).samples)
    # the mate is the conjugate reflection of f about t0, so its grid samples
    # come from evaluating f's extension at the mirrored abscissae
    mirrored = periodic_eval(spec_f, 2 * t0 - grid.coords())
    assert np.allclose(fp.g.samples, np.conj(mirrored), atol=1e-12)
    assert fp.params["p"] == 1
    assert fp.params["t1"] == pytest.approx(T / 2)
    assert fp.nodes.mode == "two_lines"


def test_rational_periodic_offset_rules():
    grid_delta = 2.0 / 9.0
    good = forge("rational_periodic", t1=8 * grid_delta)  # one full period: p = 2
    assert good.params["p"] == 2
    with pytest.raises(ValueError, match="nonzero multiple"):
        forge("rational_periodic", t1=3 * grid_delta)
    with pytest.raises(ValueError, match="equivalent up to phase"):
        forge("rational_periodic", cq=1.0)


def test_quasiperiodic_flip_structure():
    fp = forge("quasiperiodic_flip")
    grid = fp.f.grid
    T, alpha, c = fp.params["T"], fp.params["alpha"], fp.params["c"]
    x = grid.coords()
    live = np.nonzero(fp.f.samples)[0]
    assert list(x[live]) == [-2.0, -0.5, 1.0, 2.5]
    for j in live:
        m = round((x[j] - (grid.B - T)) / T)
        assert fp.f.samples[j] == c
        assert fp.g.samples[j] == c * (-1) ** m
    assert is_separable(fp.f, 2 * grid.B - T)
    assert fp.nodes.mode == "two_lines"
    assert fp.nodes.times == (0.0, alpha * T)
    # within the first line's window the signals agree; within the second
    # line's window they differ exactly by the flip
    w0 = (x >= -grid.B) & (x < grid.B)
    w1 = (x >= alpha * T - grid.B) & (x < alpha * T + grid.B)
    assert np.array_equal(fp.f.samples[w0], fp.g.samples[w0])
    assert np.array_equal(fp.f.samples[w1], -fp.g.samples[w1])
    assert len(fp.params["figure_abscissae"]) == 8


def test_rational_lattice_structure():
    fp = forge("rational_lattice")
    grid = fp.f.grid
    a = fp.params["a"]
    assert fp.params["k_a"] == round(a / grid.delta)
    assert fp.nodes.mode == "lattice" and fp.nodes.a == a
    # moduli agree on the half-lattice cells and split by 2 off it
    diff = np.abs(np.abs(fp.f.samples) - np.abs(fp.g.samples))
    assert np.allclose(diff[0::2], 0.0, atol=1e-12)
    assert np.allclose(diff[1::2], 2.0, atol=1e-12)


def test_rational_lattice_anchor_separates():
    fp = forge("rational_lattice")
    grid = fp.f.grid
    a = fp.params["a"]
    anchor = TimeNodes(mode="lattice", times=(default_anchor(a, grid.horizon),))
    _, dev = measurements_equal(
        measure(fp.f, fp.pair, anchor), measure(fp.g, fp.pair, anchor)
    )
    assert dev > 1e-3


def test_rational_lattice_span_validation():
    with pytest.raises(ValueError, match="12a"):
        forge("rational_lattice", a=3 * (2.0 / 9.0))


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        forge("nope")
