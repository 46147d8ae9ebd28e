import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twowin import (
    GridSpec,
    OffGridError,
    PeriodicSpec,
    ReflectionRangeError,
    Signal,
    TimeNodes,
    build_window,
    check_difference_identity,
    conj_reflect,
    equivalent_up_to_phase,
    forge,
    global_phase_align,
    is_separable,
    make_periodic,
    measure,
    periodic_verdict,
    phase_fit,
    phase_residuals,
    random_nonseparable,
    reconstruct,
)
from twowin.local_recovery import CLASS_TOL, _phase_match
from twowin.signal_model import (
    ZERO_ATOL,
    GridMismatchError,
    mu_powers,
    periodic_eval,
    vector_norm,
)
from twowin.stitcher import ORIENT_TOL


GRID = GridSpec(B=1.0, L=4, origin=8, horizon=16)


def test_grid_basics():
    assert GRID.delta == 0.5
    assert GRID.x(8) == 0.0
    assert GRID.x(10) == 1.0
    assert GRID.is_multiple(2.5)
    assert not GRID.is_multiple(0.3)
    np.testing.assert_allclose(GRID.coords(), (np.arange(16) - 8) * 0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(B=0.0, L=4, origin=2, horizon=8),
        dict(B=-1.0, L=4, origin=2, horizon=8),
        dict(B=1.0, L=0, origin=2, horizon=8),
        dict(B=1.0, L=8, origin=2, horizon=4),
    ],
)
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


#: Grid step of the rational_periodic and rational_lattice forges (B = 1, L = 9).
D9 = 2.0 / 9.0
GRID8 = GridSpec(B=1.0, L=8, origin=12, horizon=24)


def _verdict_with_period(T):
    fp = forge("rational_periodic")
    ms = measure(fp.f, fp.pair, fp.nodes)
    return periodic_verdict(ms, fp.pair, PeriodicSpec(T=T, mu=1.0), Q=2)


def _verdict_with_first_line(t0):
    # the forge's f measured on two lines a step apart, the first off the grid
    fp = forge("rational_periodic")
    ms = measure(fp.f, fp.pair, TimeNodes.two_lines(t0, t0 + fp.params["t1"]))
    return periodic_verdict(ms, fp.pair, PeriodicSpec(T=fp.params["T"], mu=1.0), Q=2)


def _user_window():
    return build_window("user", GRID, samples=np.ones(4))


def _reconstruct_with_step(a):
    f = random_nonseparable(GRID8, support_len=22, gap_bound=1.0, seed=1)
    pair = build_window("rectangular", GRID8)
    return reconstruct(measure(f, pair, TimeNodes.lattice(a, range(-20, 21))), pair)


# call, the quantity the message names, the offending value, its nearest
# whole-step value
WHOLE_CELL_REFUSALS = {
    "periodic_verdict-T": (lambda: _verdict_with_period(1.3), "period T", 1.3, 6 * D9),
    "periodic_verdict-t0": (lambda: _verdict_with_first_line(0.1), "line t0", 0.1, 0.0),
    "rational_periodic-T": (lambda: forge("rational_periodic", T=1.3), "period T", 1.3, 6 * D9),
    "rational_periodic-t0": (lambda: forge("rational_periodic", t0=0.3), "line t0", 0.3, D9),
    # q = 3 puts the rational offsets T/(2q) = 4/3 cells off the grid
    "rational_periodic-t1": (
        lambda: forge("rational_periodic", q=3, t1=4 * D9 / 3), "line t1", 4 * D9 / 3, D9
    ),
    "quasiperiodic_flip-edge": (
        lambda: forge("quasiperiodic_flip", T=1.3, alpha=0.75), "piece edge B - T", 1.0 - 1.3, -0.25
    ),
    "rational_lattice-a": (lambda: forge("rational_lattice", a=0.3), "lattice step a", 0.3, D9),
    "check_difference_identity-t": (
        lambda: check_difference_identity(np.ones((1, 16)), _user_window(), [0.3]),
        "node time", 0.3, 0.5,
    ),
    "measure-t": (
        lambda: measure(Signal(GRID, np.ones(16)), _user_window(), TimeNodes.two_lines(0.0, 0.3)),
        "node time", 0.3, 0.5,
    ),
    "reconstruct-a": (lambda: _reconstruct_with_step(0.3), "lattice step a", 0.3, 0.25),
    "make_periodic-T": (
        lambda: make_periodic(PeriodicSpec(T=1.3, coefficients={0: 1.0}), GRID8),
        "period T", 1.3, 1.25,
    ),
}


@pytest.mark.parametrize("case", WHOLE_CELL_REFUSALS)
def test_whole_cell_refusal(case):
    call, what, value, nearest = WHOLE_CELL_REFUSALS[case]
    with pytest.raises(OffGridError) as err:
        call()
    assert err.value.value == value
    assert err.value.nearest == nearest
    assert what in str(err.value)


def test_signal_shape_and_support():
    with pytest.raises(ValueError):
        Signal(GRID, np.ones(7))
    vals = np.zeros(16, dtype=np.complex128)
    vals[3] = 1.0
    vals[9] = -2j
    f = Signal(GRID, vals)
    assert f.support == (3, 9)
    assert not f.is_zero()
    assert Signal(GRID, np.zeros(16)).support is None
    assert Signal(GRID, np.zeros(16)).is_zero()
    # samples are frozen
    with pytest.raises(ValueError):
        f.samples[0] = 5.0


def test_global_phase_align_recovers_lambda(make_signal):
    f = make_signal(GRID, 7)
    lam = np.exp(0.77j)
    g = Signal(GRID, lam * f.samples)
    al = global_phase_align(g, f)
    assert abs(al.lam - lam) < 1e-12
    assert al.residual < 1e-12
    assert equivalent_up_to_phase(f, g)
    assert not equivalent_up_to_phase(f, make_signal(GRID, 8))


def test_global_phase_align_refuses_grids_that_measure_refuses():
    # B = 0.3 and 0.1 * 3 differ in the last bit: GridSpec equality is the
    # one grid identity, so these signals are refused here as by measure
    grid = GridSpec(B=0.3, L=4, origin=4, horizon=8)
    twin = GridSpec(B=0.1 * 3, L=4, origin=4, horizon=8)
    f, g = Signal(grid, np.ones(8)), Signal(twin, np.ones(8))
    with pytest.raises(ValueError, match="different grids"):
        measure(f, build_window("rectangular", twin), TimeNodes.lattice_covering(grid, 0.15))
    with pytest.raises(GridMismatchError) as exc:
        global_phase_align(f, g)
    assert str(exc.value) == f"signals live on different grids: {grid} vs {twin}"
    with pytest.raises(GridMismatchError):
        equivalent_up_to_phase(g, f)


# The scalar phase formulas that phase_fit replaced, kept as references.


def _reference_global_phase_align(fv, gv):
    scale = float(np.sqrt(np.linalg.norm(fv) ** 2 + np.linalg.norm(gv) ** 2))
    if scale == 0.0:
        return 1.0 + 0.0j, 0.0
    inner = complex(np.vdot(gv, fv))
    lam = 1.0 + 0.0j if inner == 0 else inner / abs(inner)
    return lam, float(np.linalg.norm(fv - lam * gv) / scale)


def _reference_phase_match(u, v, tol):
    ref = max(np.linalg.norm(u), np.linalg.norm(v))
    if ref == 0.0:
        return True
    ip = np.vdot(v, u)
    lam = ip / abs(ip) if abs(ip) > 0 else 1.0
    return float(np.linalg.norm(u - lam * v)) <= tol * ref


def _reference_overlap_mismatch(u, v):
    ip = np.vdot(v, u)
    lam = ip / abs(ip) if abs(ip) > 0 else 1.0 + 0.0j
    return lam, float(np.linalg.norm(u - lam * v) / max(np.linalg.norm(u), np.linalg.norm(v)))


def _phase_pair(kind, n, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "zero u":
        u[:] = 0
    elif kind == "zero v":
        v[:] = 0
    elif kind == "both zero":
        u[:] = v[:] = 0
    elif kind == "orthogonal":
        v = np.concatenate([np.zeros(n // 2), v[n // 2:]])
        u = np.concatenate([u[: n // 2], np.zeros(n - n // 2)])
    elif kind == "times i":
        v = 1j * u
    elif kind == "times -1":
        v = -u
    elif kind == "rotated, noisy":
        v = np.exp(1j * rng.uniform(0, 2 * np.pi)) * u + 1e-9 * v
    return u, v


PHASE_KINDS = (
    "generic", "zero u", "zero v", "both zero", "orthogonal", "times i", "times -1",
    "rotated, noisy",
)


@settings(max_examples=500, deadline=None)
@given(
    kind=st.sampled_from(PHASE_KINDS),
    n=st.integers(1, 16),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_phase_helpers_match_the_scalar_formulas(kind, n, seed):
    u, v = _phase_pair(kind, n, seed)
    grid = GridSpec(B=1.0, L=1, origin=0, horizon=n)
    got = global_phase_align(Signal(grid, u), Signal(grid, v))
    lam, res = _reference_global_phase_align(u, v)
    assert abs(got.lam - lam) <= 1e-15 and abs(got.residual - res) <= 1e-15
    for tol in (1e-8, 1e-6):
        assert (got.residual <= tol) == (res <= tol)
    # one phase_fit serves both fields, with the bits of the two public helpers
    assert got.lam == phase_fit(u, v)[0] and got.residual == phase_residuals(u, v)
    for tol in (CLASS_TOL, 1e-8):
        assert _phase_match(u, v, tol) == _reference_phase_match(u, v, tol)
    if np.any(u) or np.any(v):
        lam, dist = phase_fit(u, v)
        mismatch = float(dist / max(np.linalg.norm(u), np.linalg.norm(v)))
        want_lam, want = _reference_overlap_mismatch(u, v)
        assert lam == want_lam and mismatch == want
        assert (mismatch <= ORIENT_TOL) == (want <= ORIENT_TOL)
    # the row-wise path gives each row what the vector path gives it, up to
    # the summation order of the inner product
    rows_u, rows_v = np.stack([u, v, u]), np.stack([v, u, 1j * u])
    residuals = phase_residuals(rows_u, rows_v)
    for r in range(3):
        assert abs(residuals[r] - phase_residuals(rows_u[r], rows_v[r])) <= 1e-14


def _norm_cases():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 257):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= 10.0 ** rng.integers(-6, 7)
        # contiguous real and complex, the strided halves of a complex
        # array, reversed views of both, and a stride of two
        for name, x in [("complex", z), ("real", z.real.copy()), ("z.real", z.real),
                        ("z.imag", z.imag), ("complex reversed", z[::-1]),
                        ("real reversed", z.real.copy()[::-1]), ("z.real reversed", z.real[::-1]),
                        ("every other", z[::2])]:
            yield pytest.param(x, id=f"{name}, n={n}")


@pytest.mark.parametrize("x", _norm_cases())
def test_vector_norm_is_np_linalg_norm_bit_for_bit(x):
    # the per-node path's distances are compared against tolerances, so
    # the dispatch-free norm must keep every bit np.linalg.norm gives
    want = np.linalg.norm(x)
    got = vector_norm(x)
    assert np.float64(got).tobytes() == want.tobytes()


def test_conj_reflect_is_an_involution(make_signal):
    f = make_signal(GRID, 3, cells=np.arange(4, 12))
    g = conj_reflect(f, 0.25)  # half-grid center, 2c = delta
    back = conj_reflect(g, 0.25)
    np.testing.assert_allclose(back.samples, f.samples, atol=1e-15)
    # g(x) = conj(f(2c - x)): with 2c = delta, cell j mirrors to 17 - j
    for j in range(2, GRID.horizon):
        assert g.samples[j] == np.conj(f.samples[17 - j])


def test_conj_reflect_rejects_off_grid_center(make_signal):
    f = make_signal(GRID, 3, cells=np.arange(4, 12))
    with pytest.raises(OffGridError):
        conj_reflect(f, 0.13)


def test_conj_reflect_range_error(make_signal):
    f = make_signal(GRID, 3, cells=np.arange(0, 4))
    with pytest.raises(ReflectionRangeError):
        conj_reflect(f, 1.75)  # image would land past the horizon


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    twoc=st.integers(-4, 4),
)
def test_conj_reflect_involution_property(seed, twoc):
    rng = np.random.default_rng(seed)
    vals = np.zeros(16, dtype=np.complex128)
    vals[6:10] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = Signal(GRID, vals)
    center = twoc * GRID.delta / 2.0
    g = conj_reflect(f, center)
    np.testing.assert_allclose(
        conj_reflect(g, center).samples, f.samples, atol=1e-15
    )


def test_is_separable_detects_gaps():
    vals = np.zeros(16, dtype=np.complex128)
    vals[0:4] = 1.0
    vals[9:16] = 1.0
    f = Signal(GRID, vals)
    assert is_separable(f, 2.5)  # five empty cells = length 2.5
    assert not is_separable(f, 2.6)
    dense = Signal(GRID, np.ones(16))
    assert not dense.is_zero() and not is_separable(dense, 0.5)
    # margins count as gaps
    edge = np.zeros(16, dtype=np.complex128)
    edge[0:12] = 1.0
    assert is_separable(Signal(GRID, edge), 2.0)
    with pytest.raises(ValueError):
        is_separable(f, 0.0)


def _reference_is_separable(samples, n_win, tol):
    """The per-sample loop that is_separable's cumulative sum replaced."""
    run = best = 0
    for flag in np.abs(samples) <= tol:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best >= n_win


@pytest.mark.parametrize("horizon", [4, 5, 16, 33])
def test_is_separable_matches_the_replaced_loop(horizon):
    grid = GridSpec(B=1.0, L=4, origin=horizon // 2, horizon=horizon)
    rng = np.random.default_rng(horizon)
    masks = [rng.random(horizon) < p for p in (0.2, 0.5, 0.8) for _ in range(20)]
    for k in range(horizon + 1):  # small runs of every length at both ends
        masks += [np.arange(horizon) < k, np.arange(horizon) >= horizon - k]
    for mask in masks:
        small = rng.choice([0.0, ZERO_ATOL], horizon)  # zero or at the tolerance
        samples = np.where(mask, small, 1e-11 + rng.random(horizon))
        f = Signal(grid, samples)
        for n_win in range(1, horizon + 2):  # n_win = horizon + 1 spans more than the horizon
            want = n_win <= horizon and _reference_is_separable(samples, n_win, ZERO_ATOL)
            assert is_separable(f, n_win * grid.delta) == want, (mask, n_win)


def test_periodic_spec_validation():
    with pytest.raises(ValueError):
        PeriodicSpec(T=-1.0)
    with pytest.raises(ValueError):
        PeriodicSpec(T=1.0, mu=2.0)


def test_make_periodic_relation():
    grid = GridSpec(B=1.0, L=8, origin=12, horizon=24)
    spec = PeriodicSpec(T=1.5, mu=-1.0, coefficients={0: 1.0, 1: 0.5j, -2: 0.25})
    f = make_periodic(spec, grid)
    k_T = int(round(spec.T / grid.delta))
    # f(x) = mu * f(x + T) exactly on representable samples
    lhs = f.samples[: 24 - k_T]
    rhs = spec.mu * f.samples[k_T:]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # and the sampled values agree with the continuous evaluator
    np.testing.assert_allclose(
        f.samples, periodic_eval(spec, grid.coords()), atol=1e-12
    )


def test_mu_powers_table():
    exps = np.array([3, -2, 0, 5, -2, 1])
    for mu in (1.0, -1.0, 1j, -1j):
        # sign flips and quarter turns stay exact
        assert mu_powers(mu, exps).tolist() == [complex(mu) ** int(e) for e in exps]
    mu = np.exp(0.7j)
    np.testing.assert_allclose(mu_powers(mu, exps), mu ** exps.astype(float), rtol=0, atol=1e-14)
    # a window with no on-horizon cell asks for no powers at all
    assert mu_powers(mu, np.array([], dtype=np.int64)).shape == (0,)


def test_random_nonseparable_contract():
    grid = GridSpec(B=1.0, L=8, origin=16, horizon=32)
    f = random_nonseparable(grid, support_len=29, gap_bound=1.0, seed=5)
    assert not is_separable(f, 1.0, tol=1e-9)
    g = random_nonseparable(grid, support_len=29, gap_bound=1.0, seed=5)
    np.testing.assert_array_equal(f.samples, g.samples)
    # a support that leaves too wide a margin is refused outright
    with pytest.raises(ValueError, match="zero cells outside the support"):
        random_nonseparable(grid, support_len=20, gap_bound=1.0, seed=5)
    with pytest.raises(ValueError):
        random_nonseparable(grid, support_len=2, gap_bound=5.0, seed=5)
