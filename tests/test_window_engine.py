import dataclasses

import numpy as np
import pytest

from twowin import (
    GridSpec,
    OffGridError,
    WindowValidationError,
    build_window,
)
from twowin.stft_engine import node_segment
from twowin.window_engine import WindowPair, _modulate, slot_offsets


GRID_EVEN = GridSpec(B=1.0, L=4, origin=8, horizon=16)
GRID_ODD = GridSpec(B=1.0, L=5, origin=8, horizon=16)


def test_slot_offsets_conventions():
    u_even = slot_offsets(GRID_EVEN)
    np.testing.assert_allclose(u_even, [-1.0, -0.5, 0.0, 0.5])
    u_odd = slot_offsets(GRID_ODD)
    np.testing.assert_allclose(u_odd, np.array([-2, -1, 0, 1, 2]) * 0.4)
    assert u_odd[0] == -GRID_ODD.B + GRID_ODD.delta / 2


def test_rectangular_pair():
    pair = build_window("rectangular", GRID_EVEN)
    assert pair.b == pytest.approx(1.0 / 4.0)
    np.testing.assert_array_equal(pair.phi, np.ones(4))
    u = slot_offsets(GRID_EVEN)
    np.testing.assert_allclose(pair.psi, np.exp(2j * np.pi * u * pair.b) - 1.0)
    # the second window vanishes exactly at offset zero
    assert pair.psi[GRID_EVEN.L // 2] == 0.0


def test_window_conjugate_symmetry():
    pair = build_window("raised_cosine", GRID_ODD, c0=1.0, c1=0.4)
    u = np.linspace(-0.99, 0.99, 21)
    np.testing.assert_allclose(pair.phi_at(-u), np.conj(pair.phi_at(u)), atol=1e-14)
    np.testing.assert_allclose(
        pair.values_at("psi", -u), np.conj(pair.values_at("psi", u)), atol=1e-14
    )
    # support is the half-open window
    assert pair.phi_at(np.array([-1.0]))[0] != 0.0
    assert pair.phi_at(np.array([1.0]))[0] == 0.0


def test_raised_cosine_parameters():
    pair = build_window("raised_cosine", GRID_EVEN, c0=1.0, c1=0.5)
    u = slot_offsets(GRID_EVEN)
    np.testing.assert_allclose(pair.phi, 1.0 + 0.5 * np.cos(np.pi * u))
    with pytest.raises(ValueError):
        build_window("raised_cosine", GRID_EVEN, c0=0.5, c1=0.5)


@pytest.mark.parametrize("c1", [None, 0.5, 0.4], ids=["rectangular", "cos0.5", "cos0.4"])
def test_slot_samples_are_the_profile_at_the_slot_offsets(c1):
    # node_segment reads the slot samples on the grid and values_at off it;
    # a node time on the grid must see the bits an off-grid one would.  At
    # B = 1.55 and L = 6 or 12 the first slot offset rounds one ulp below -B;
    # the support's lower edge snaps to 1e-9 of a cell as first_cell's does,
    # so phi_at and values_at read the profile there, as the slot sample does
    profile, kw = ("rectangular", {}) if c1 is None else ("raised_cosine", {"c1": c1})
    rounded_below = 0
    for B in (1.0, 1.55):
        for L in range(1, 17):
            grid = GridSpec(B=B, L=L, origin=L, horizon=2 * L)
            u = slot_offsets(grid)
            rounded_below += int((u < -B).any())
            for b in (None, 1.0 / (2.0 * B), 0.1):
                pair = build_window(profile, grid, b, **kw)
                if c1 is None:
                    phi = np.ones(L, dtype=np.complex128)
                else:
                    phi = (1.0 + c1 * np.cos(np.pi * u / B)).astype(np.complex128)
                psi = phi * (np.exp(2j * np.pi * u * pair.b) - 1.0)
                assert pair.phi.tobytes() == phi.tobytes(), (B, L, b)
                assert pair.psi.tobytes() == psi.tobytes(), (B, L, b)
                assert pair.phi.tobytes() == pair.phi_at(u).tobytes(), (B, L, b)
                assert pair.psi.tobytes() == pair.values_at("psi", u).tobytes(), (B, L, b)
    assert rounded_below == 2


def test_modulation_step_bounds():
    with pytest.raises(WindowValidationError):
        build_window("rectangular", GRID_EVEN, b=0.0)
    with pytest.raises(WindowValidationError):
        build_window("rectangular", GRID_EVEN, b=0.51)
    assert build_window("rectangular", GRID_EVEN, b=0.5).b == 0.5


def test_every_way_of_making_a_pair_is_validated():
    # the checks run in WindowPair itself, so a direct construction and
    # dataclasses.replace are held to what build_window is held to
    pair = build_window("rectangular", GRID_EVEN)
    fields = {f.name: getattr(pair, f.name) for f in dataclasses.fields(pair)}
    assert WindowPair(**fields) == pair
    assert dataclasses.replace(pair, b=pair.b).psi is pair.psi
    # a b outside (0, 1/(2B)] is refused however psi was made
    for b in (0.9, 0.0):
        with pytest.raises(WindowValidationError, match="^modulation step range violated"):
            WindowPair(**{**fields, "b": b, "psi": _modulate(pair.phi, slot_offsets(GRID_EVEN), b)})
    # psi must be phi modulated with the pair's own b, bit for bit
    with pytest.raises(WindowValidationError, match="^second window modulation violated"):
        dataclasses.replace(pair, b=0.5 * pair.b)
    nudged = pair.psi.copy()
    nudged[1] = np.nextafter(nudged[1].real, 2.0) + 1j * nudged[1].imag  # one ulp
    for psi in (nudged, pair.psi[:3], pair.phi):
        with pytest.raises(WindowValidationError, match="^second window modulation violated"):
            WindowPair(**{**fields, "psi": psi})
    with pytest.raises(WindowValidationError, match="^conjugate symmetry violated"):
        WindowPair(**{**fields, "phi": np.array([1.0, 1.0, 1.0, 2.0 + 0j])})
    # a pair rebuilt at another b from its own fields is a valid pair
    half = _modulate(pair.phi, slot_offsets(GRID_EVEN), 0.5 * pair.b)
    assert dataclasses.replace(pair, b=0.5 * pair.b, psi=half).b == 0.5 * pair.b


def test_user_profile_validation():
    good = np.array([1.0, 1.0 - 0.5j, 2.0, 1.0 + 0.5j, 1.0])
    pair = build_window("user", GRID_ODD, samples=good)
    assert not pair.supports_offgrid
    u = slot_offsets(GRID_ODD)
    np.testing.assert_allclose(pair.psi, good * (np.exp(2j * np.pi * u * pair.b) - 1.0))
    with pytest.raises(ValueError):
        build_window("user", GRID_ODD, samples=np.ones(3))
    with pytest.raises(ValueError):
        build_window("user", GRID_ODD)
    asym = good.copy()
    asym[1] = 3.0  # breaks phi(-u) = conj(phi(u))
    with pytest.raises(WindowValidationError, match="conjugate symmetry"):
        build_window("user", GRID_ODD, samples=asym)
    hole = good.copy()
    hole[2] = 0.0
    with pytest.raises(WindowValidationError, match="nonvanish"):
        build_window("user", GRID_ODD, samples=hole)


def test_user_profile_off_slot_evaluation_rejected():
    # the grid's whole-cell rule refuses the offset, with its declared error
    pair = build_window("user", GRID_ODD, samples=np.ones(5))
    with pytest.raises(OffGridError, match="not a whole number of grid cells"):
        pair.phi_at(np.array([0.123]))


def test_phi_at_refuses_an_off_slot_offset_as_node_segment_refuses_an_off_grid_time():
    samples = np.array([1.0, 1.0 - 0.5j, 2.0, 1.0 + 0.5j, 1.0])
    pair = build_window("user", GRID_ODD, samples=samples)
    delta = GRID_ODD.delta
    # slot offsets, and offsets outside [-B, B) that are still whole cells
    u = np.array([[-2, -1, 0], [1, 2, 3]]) * delta
    np.testing.assert_array_equal(
        pair.phi_at(u), np.array([samples[:3], [samples[3], samples[4], 0.0]])
    )
    off = 0.3 * delta
    with pytest.raises(OffGridError) as by_window:
        pair.phi_at(np.array([0.0, off]))
    with pytest.raises(OffGridError) as by_node:
        node_segment(GRID_ODD, off, None, pair)
    assert by_window.value.value == by_node.value.value == off
    assert by_window.value.nearest == by_node.value.nearest == 0.0
    with pytest.raises(OffGridError):
        pair.values_at("psi", off)


def test_unknown_profile():
    with pytest.raises(ValueError):
        build_window("hann", GRID_EVEN)


def test_every_window_name_check_gives_one_message():
    # on the grid and off it, the pair's check is the only one: a node
    # segment asks the pair for the named window's values
    pair = build_window("rectangular", GRID_EVEN)
    samples = np.ones(GRID_EVEN.horizon)
    calls = [
        lambda: pair.slot_values("chi"),
        lambda: pair.values_at("chi", 0.3),
        lambda: node_segment(GRID_EVEN, 0.0, samples, pair, which=("chi",)),
        lambda: node_segment(GRID_EVEN, 0.3, samples, pair, which=("chi",)),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "window must be 'phi' or 'psi', got 'chi'"
