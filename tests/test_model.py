import math
from dataclasses import replace

import pytest

from optobec import (HBAR, K_B, C_LIGHT, BecParams, CavityParams,
                     DriveParams, MirrorParams, ParameterError,
                     bose_occupation, derive_quantities, drive_rate)
from optobec.presets import BEC_TEMPERATURE, MIRROR_FREQ, baseline_params


def test_constants_pinned():
    assert HBAR == 1.054571817e-34
    assert K_B == 1.380649e-23
    assert C_LIGHT == 2.99792458e8


def test_cavity_decay_rate(reference):
    d = derive_quantities(reference)
    # pi*c/(L*F) for L = 1 mm, F = 3e4
    assert d.kappa == pytest.approx(math.pi * C_LIGHT / (1e-3 * 3e4), rel=1e-15)
    assert d.kappa / d.omega_m == pytest.approx(0.5, rel=5e-3)


def test_mirror_coupling_rate(reference):
    d = derive_quantities(reference)
    omega_cav = 2 * math.pi * C_LIGHT / 1.064e-6
    expected = (omega_cav / 1e-3) * math.sqrt(HBAR / (50e-12 * MIRROR_FREQ))
    assert d.xi == pytest.approx(expected, rel=1e-15)
    assert d.xi == pytest.approx(330.0, rel=0.03)


def test_drive_rate_zero_power():
    params = baseline_params(power=0.0)
    assert derive_quantities(params).eta == 0.0


@pytest.mark.parametrize("sw_ratio, omega_b_ratio, gap_ratio", [
    (2.0, 2.181742422927143, 1.181742422927143),
    (1.0, 1.3076696830622021, 0.3076696830622021),
    (0.5, 0.8645808232895291, -0.13541917671047094),
])
def test_condensate_resonance(sw_ratio, omega_b_ratio, gap_ratio):
    # Omega_c = 4*0.1*wm + sw/2, omega_B = sqrt(Omega_c (Omega_c + sw))
    params = baseline_params(sw_frequency=sw_ratio * MIRROR_FREQ)
    d = derive_quantities(params)
    assert d.Omega_c == pytest.approx((0.4 + sw_ratio / 2) * MIRROR_FREQ, rel=1e-14)
    assert d.omega_B / d.omega_m == pytest.approx(omega_b_ratio, rel=1e-12)
    assert d.delta_omega / d.omega_m == pytest.approx(gap_ratio, rel=1e-12)


@pytest.mark.parametrize("recoil", [1e-160, 1e-165, 1e-170])
def test_condensate_resonance_of_a_tiny_recoil(recoil):
    """Omega_c^2 is subnormal or 0, yet with no collisions omega_B =
    Omega_c = 4 recoil to an ulp, and the bath occupation at it is finite
    and > 0 (about 3.3e168 at 1e-165 rad/s)."""
    params = baseline_params()
    d = derive_quantities(replace(params, bec=replace(params.bec, recoil=recoil)))
    assert abs(d.omega_B - 4.0 * recoil) <= math.ulp(4.0 * recoil)
    assert 0.0 < d.nbar_bec < math.inf
    assert d.nbar_bec == pytest.approx(bose_occupation(4.0 * recoil, BEC_TEMPERATURE),
                                       rel=1e-15)


def test_thermal_occupation_reference_bath():
    # direct Bose factor at T = 0.4 K, omega = 2 pi x 10 MHz
    x = HBAR * MIRROR_FREQ / (K_B * 0.4)
    expected = 1.0 / math.expm1(x)
    assert expected == pytest.approx(832.9648654280111, rel=1e-12)
    assert bose_occupation(MIRROR_FREQ, 0.4) == expected


def test_thermal_occupation_cold_limits():
    assert bose_occupation(MIRROR_FREQ, 0.0) == 0.0
    # below the documented floor the factor underflows and reports exactly 0
    assert bose_occupation(MIRROR_FREQ, 1e-30) == 0.0
    assert bose_occupation(MIRROR_FREQ, 1e-320) == 0.0   # k_B T underflows
    floor = HBAR * MIRROR_FREQ / (700.0 * K_B)
    assert bose_occupation(MIRROR_FREQ, floor * 0.99) == 0.0
    assert bose_occupation(MIRROR_FREQ, floor * 1.10) > 0.0


def test_derivation_is_pure(reference):
    a = derive_quantities(reference)
    b = derive_quantities(reference)
    assert a == b


def test_mode_resonance_bounds():
    for sw_ratio in (0.0, 0.3, 1.0, 2.7):
        d = derive_quantities(baseline_params(sw_frequency=sw_ratio * MIRROR_FREQ))
        if sw_ratio == 0.0:
            assert d.omega_B == d.Omega_c
        else:
            assert d.omega_B > d.Omega_c


def test_detuning_pull_monotonicity():
    import dataclasses

    base = baseline_params(sw_frequency=0.5 * MIRROR_FREQ)

    betas = []
    for zeta in (100.0, 200.0, 400.0):
        p = dataclasses.replace(base, bec=dataclasses.replace(base.bec, coupling=zeta))
        betas.append(derive_quantities(p).beta)
    assert betas[0] < betas[1] < betas[2]

    betas = []
    for xi in (100.0, 200.0, 400.0):
        p = dataclasses.replace(base, xi_override=xi)
        betas.append(derive_quantities(p).beta)
    assert betas[0] < betas[1] < betas[2]

    betas = []
    for sw_ratio in (0.1, 0.5, 1.0, 2.0):
        p = dataclasses.replace(
            base, bec=dataclasses.replace(base.bec, sw_frequency=sw_ratio * MIRROR_FREQ))
        betas.append(derive_quantities(p).beta)
    assert all(x > y for x, y in zip(betas, betas[1:]))


def test_absent_condensate_drops_coupling():
    with_bec = baseline_params(sw_frequency=MIRROR_FREQ)
    without = with_bec.without_bec()
    d0, d1 = derive_quantities(with_bec), derive_quantities(without)
    assert d1.zeta == 0.0
    assert d1.beta == pytest.approx(d1.xi ** 2 / d1.omega_m, rel=1e-15)
    assert d0.beta > d1.beta
    # the decoupled mode keeps its resonance
    assert d1.omega_B == d0.omega_B


@pytest.mark.parametrize("builder, message_part", [
    (lambda: CavityParams(length=-1e-3, wavelength=1e-6, finesse=1e4), "cavity.length"),
    (lambda: CavityParams(length=1e-3, wavelength=1e-6, finesse=0.0), "cavity.finesse"),
    (lambda: MirrorParams(mass=0.0, frequency=1.0, quality=1.0, temperature=0.0), "mirror.mass"),
    (lambda: MirrorParams(mass=1.0, frequency=1.0, quality=1.0, temperature=-1.0), "mirror.temperature"),
    (lambda: BecParams(present=True, coupling=1.0, recoil=0.0), "bec.recoil"),
    (lambda: BecParams(coupling=-1.0), "bec.coupling"),
    (lambda: DriveParams(power=-0.1), "drive.power"),
])
def test_validation_names_offending_field(builder, message_part):
    with pytest.raises(ParameterError, match=message_part):
        builder()


def test_xi_override_validation(reference):
    import dataclasses
    with pytest.raises(ParameterError, match="xi_override"):
        dataclasses.replace(reference, xi_override=-1.0)
    p = dataclasses.replace(reference, xi_override=0.0)
    assert derive_quantities(p).xi == 0.0


@pytest.mark.parametrize("power", [-0.1, float("nan"), float("inf")])
def test_drive_rate_rejects_invalid_power(power):
    with pytest.raises(ParameterError, match="drive.power: must be finite and >= 0"):
        drive_rate(power, 3e7, 1.77e15)
