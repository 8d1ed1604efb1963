"""Acceptance suite: one test per criterion, pinned tolerances, PASS lines."""

import math
import time

import numpy as np
import pytest

import gausswork as gw
from conftest import (
    fock_relative_entropy,
    powell_activity,
    quadratic_work,
    random_cm,
    random_free_cm,
    random_orthosymplectic,
    random_state,
    random_symplectic,
    two_mode_closed_form,
)


def test_criterion_01_distillation_reproduction():
    start = time.monotonic()
    outcome = gw.activity_distillation_demo()
    elapsed = time.monotonic() - start
    assert outcome.input_value == pytest.approx(0.7621, abs=2e-3)
    assert outcome.output_value == pytest.approx(1.0019, abs=2e-3)
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: distill-activity demo gives {outcome.input_value:.4f} -> "
        f"{outcome.output_value:.4f} (reference 0.7621 -> 1.0019) in {elapsed:.3f}s"
    )


def test_criterion_02_preset_reproduction():
    start = time.monotonic()
    for n in range(5):
        via_fock = gw.fock_single_mode_activity(gw.fock_number_state(n, 40))
        assert via_fock == pytest.approx(gw.thermal_entropy(n + 0.5), abs=1e-9)
    for r in np.linspace(0.2, 1.4, 5):
        value = gw.local_activity(gw.squeezed(r)).value
        assert value == pytest.approx(gw.thermal_entropy(math.sinh(r) ** 2 + 0.5), abs=1e-9)
    for a in np.linspace(0.3, 1.5, 5):
        value = gw.local_activity(gw.coherent(a)).value
        assert value == pytest.approx(gw.thermal_entropy(a**2 + 0.5), abs=1e-9)
    for i, r in enumerate(np.linspace(0.2, 1.0, 5)):
        expected = 2 * gw.thermal_entropy(math.sinh(r) ** 2 + 0.5)
        closed = gw.local_activity(gw.two_mode_squeezed(r)).value
        assert closed == pytest.approx(expected, abs=1e-9)
        numeric = powell_activity(gw.two_mode_squeezed(r), restarts=8, seed=i)
        assert numeric == pytest.approx(expected, abs=1e-5)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: 20 preset points match closed forms (1e-9 / 1e-5) in {elapsed:.1f}s")


def test_criterion_03_closed_form_vs_numeric_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    worst = 0.0
    for k in range(100):
        state = random_state(rng, 2, nu_min=0.5, nu_max=2.5, r_max=1.0, d_scale=1.0)
        spectral = gw.local_activity(state).value
        closed = two_mode_closed_form(state)[0]
        numeric = powell_activity(state, restarts=16, seed=k)
        worst = max(worst, abs(spectral - closed), abs(spectral - numeric))
    elapsed = time.monotonic() - start
    assert worst < 1e-5
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 3: spectral formula vs closed form and optimizer on 100 displaced "
        f"two-mode states, max |diff| = {worst:.2e} in {elapsed:.1f}s"
    )


def test_criterion_04_work_functional_properties():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    cms = []
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        cms.append(random_cm(rng, n))
    for cm in cms:
        n = cm.shape[0] // 2
        assert quadratic_work(cm) >= -1e-9
        o = random_orthosymplectic(rng, n)
        assert abs(quadratic_work(o @ cm @ o.T) - quadratic_work(cm)) < 1e-9
        if n >= 2:
            split = int(rng.integers(1, n))
            state = gw.GaussianState(np.zeros(2 * n), cm)
            assert gw.superadditivity_gap(state, range(split), range(split, n)) >= -1e-9
    for i in range(0, 999, 3):
        group = [c for c in cms[i : i + 3]]
        dim = group[0].shape[0]
        group = [c for c in group if c.shape[0] == dim]
        if len(group) < 2:
            continue
        p = rng.dirichlet(np.ones(len(group)))
        mixed = sum(w * c for w, c in zip(p, group))
        bound = sum(w * quadratic_work(c) for w, c in zip(p, group))
        assert quadratic_work(mixed) <= bound + 1e-9
    for i in range(0, 998, 2):
        a, b = cms[i], cms[i + 1]
        joint = np.zeros((a.shape[0] + b.shape[0],) * 2)
        joint[: a.shape[0], : a.shape[0]] = a
        joint[a.shape[0] :, a.shape[0] :] = b
        assert abs(quadratic_work(joint) - quadratic_work(a) - quadratic_work(b)) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: work properties on 1000 random CMs (N <= 5) within 1e-9 in {elapsed:.1f}s")


def test_criterion_05_decomposition_roundtrips():
    rng = np.random.default_rng(105)
    worst_w, worst_bm = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        cm = random_cm(rng, n)
        dec = gw.williamson(cm)
        worst_w = max(worst_w, np.linalg.norm(dec.reconstruct() - cm))
        s = random_symplectic(rng, n)
        bm = gw.bloch_messiah(s)
        worst_bm = max(worst_bm, np.linalg.norm(bm.reconstruct() - s))
    assert worst_w < 1e-9
    assert worst_bm < 1e-9
    print(
        f"\nPASS criterion 5: 1000 Williamson/Bloch-Messiah roundtrips, residuals "
        f"{worst_w:.2e} / {worst_bm:.2e} < 1e-9"
    )


def test_criterion_06_relative_entropy_vs_fock_brute_force():
    assert gw.relative_entropy(gw.vacuum(1), gw.thermal(1.0)) == pytest.approx(math.log(2), abs=1e-12)
    rng = np.random.default_rng(106)
    pairs = [
        (gw.vacuum(1), gw.thermal(1.0)),
        (gw.coherent(1.0), gw.thermal(1.0)),
        (gw.squeezed(0.6), gw.thermal(1.2)),
        (gw.thermal(2.0), gw.thermal(0.8)),
        (gw.coherent(0.5 + 0.5j), gw.squeezed(0.3, 0.4)),
    ]
    for _ in range(5):
        rho = random_state(rng, 1, nu_min=0.5, nu_max=1.8, r_max=0.5, d_scale=0.5)
        sigma = random_state(rng, 1, nu_min=0.7, nu_max=2.0, r_max=0.4, d_scale=0.5)
        pairs.append((rho, sigma))
    worst = 0.0
    for rho, sigma in pairs:
        assert np.all(gw.mean_photon_numbers(rho) <= 2.5)
        gauss = gw.relative_entropy(rho, sigma)
        if math.isinf(gauss):
            continue
        brute = fock_relative_entropy(rho, sigma, dim=40)
        worst = max(worst, abs(gauss - brute))
    assert worst < 1e-4
    print(
        f"\nPASS criterion 6: Gaussian relative entropy vs Fock brute force (D=40), "
        f"max |diff| = {worst:.2e} < 1e-4 (vacuum||thermal = ln 2 exact)"
    )


def test_criterion_07_channel_consistency():
    eta, nbar = 0.8, 0.5
    kraus = gw.thermal_loss_kraus(eta, nbar, 40, 40)

    worst_moment = 0.0
    for state in (gw.coherent(0.9), gw.squeezed(0.5), gw.thermal(2.0), gw.coherent(0.6 + 0.5j)):
        rho = gw.fock_from_gaussian(state, 40)
        d_in, cm_in = gw.fock_moments(rho)
        out, _ = gw.apply_kraus_channel(rho, kraus)
        d_out, cm_out = gw.fock_moments(out)
        # Phase-space map applied to the truncated input's own moments, so the
        # comparison charges neither route with input-representation error.
        pred_d = eta * d_in
        pred_cm = eta**2 * cm_in + (1 - eta**2) * (nbar + 0.5) * np.eye(2)
        worst_moment = max(
            worst_moment, np.abs(d_out - pred_d).max(), np.abs(cm_out - pred_cm).max()
        )
        if gw.von_neumann_entropy(state) < 1e-9:
            ideal = gw.phase_space_loss_channel(state, eta, nbar)
            worst_moment = max(
                worst_moment,
                np.abs(d_out - ideal.displacement).max(),
                np.abs(cm_out - ideal.cm).max(),
            )
    assert worst_moment < 1e-6

    y = 1.0 / 2.0  # thermal nbar = 1
    z = y * eta**2
    th = gw.fock_thermal(1.0, 40)
    k00 = kraus.operators[(0, 0)]
    diag00 = np.real(np.diag(k00 @ th.matrix @ k00.conj().T)).copy()
    diag00 /= diag00.sum()
    ratio_dev = np.max(np.abs(diag00[1:25] / diag00[:24] - z))
    assert ratio_dev < 1e-8

    k10 = kraus.operators[(1, 0)]
    diag10 = np.real(np.diag(k10 @ th.matrix @ k10.conj().T)).copy()
    diag10 /= diag10.sum()
    expected10 = (1 - z) ** 2 * (np.arange(40) + 1) * z ** np.arange(40)
    k10_dev = np.max(np.abs(diag10[:30] - expected10[:30]))
    assert k10_dev < 1e-8
    print(
        f"\nPASS criterion 7: Kraus/phase-space moments agree to {worst_moment:.2e} < 1e-6; "
        f"K00 geometric ratio dev {ratio_dev:.2e}, K10 distribution dev {k10_dev:.2e} < 1e-8"
    )


def test_criterion_08_no_go_sweeps():
    rng = np.random.default_rng(108)
    worst_act, worst_work = -math.inf, -math.inf
    for _ in range(500):
        nu = rng.uniform(0.5, 2.5)
        r = rng.uniform(0.0, 1.2)
        rot = gw.rotation(rng.uniform(0, 2 * np.pi))
        gamma = rot @ gw.squeezer_direct_sum(r) @ (nu * np.eye(2)) @ gw.squeezer_direct_sum(r) @ rot.T
        theta = rng.uniform(0, 2 * np.pi)
        phis = rng.uniform(0, 2 * np.pi, size=4)
        g1, g2 = gw.process_two_copies_single_mode(gamma, theta, phis)
        base, *outs = (gw.GaussianState(np.zeros(2), cm) for cm in (gamma, g1, g2))
        base_act, base_work = gw.local_activity(base).value, gw.extractable_work(base).quadratic
        for out in outs:
            worst_act = max(worst_act, gw.local_activity(out).value - base_act)
            worst_work = max(worst_work, gw.extractable_work(out).quadratic - base_work)
    assert worst_act <= 1e-9
    assert worst_work <= 1e-9
    print(
        f"\nPASS criterion 8: two-copy no-go over 500 instances, max activity gain "
        f"{worst_act:.2e}, max work gain {worst_work:.2e} (<= 1e-9)"
    )


def test_criterion_09_free_structure_closure():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(125):
        n = int(rng.integers(2, 5))
        a, b = random_free_cm(rng, n), random_free_cm(rng, n)
        p = rng.uniform(0.05, 0.95)
        worst = max(worst, gw.is_free_cm(p * a + (1 - p) * b).gap)

        joint = np.zeros((4 * n, 4 * n))
        joint[: 2 * n, : 2 * n] = a
        joint[2 * n :, 2 * n :] = b
        worst = max(worst, gw.is_free_cm(joint).gap)

        keep = sorted(rng.choice(n, size=n - 1, replace=False))
        idx = np.empty(2 * len(keep), dtype=int)
        idx[0::2] = [2 * m for m in keep]
        idx[1::2] = [2 * m + 1 for m in keep]
        worst = max(worst, gw.is_free_cm(a[np.ix_(idx, idx)]).gap)

        state = gw.GaussianState(np.zeros(2 * n), b)
        post = gw.gaussian_postselect(state, [n - 1], rng.uniform(0.5, 2.0) * np.eye(2))
        worst = max(worst, gw.is_free_cm(post.cm).gap)
    assert worst < 1e-8

    tms_report = gw.is_free_cm(gw.two_mode_squeezed(1.0).cm)
    assert tms_report.structural_form and not tms_report.spectral_free
    print(
        f"\nPASS criterion 9: 500 free-closure instances (mixtures, sums, deletions, "
        f"post-selections), max gap {worst:.2e} < 1e-8; tms counterexample pinned"
    )


def test_criterion_10_fock_postselection_demo():
    output, probability, gain = gw.fock_postselect_demo()
    assert probability == pytest.approx(0.5, abs=1e-12)
    fidelity = float(np.real(output.matrix[2, 2]))
    assert fidelity >= 1.0 - 1e-12
    assert gain == pytest.approx(
        gw.thermal_entropy(2.5) - gw.thermal_entropy(1.5), abs=1e-12
    )
    assert gain > 0
    print(
        f"\nPASS criterion 10: |1,1> -> |2> with probability {probability:.12f}, "
        f"fidelity {fidelity:.12f}, activity gain {gain:.6f} > 0"
    )
