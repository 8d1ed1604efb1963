"""Distillation demonstrations and the two-copy no-go processing.

Two copies of a single-mode state processed through any beam splitter and
phase shifters can never gain activity or extractable work in either output
arm; two copies of a suitable two-mode state can.  The fixed demonstration
feeds two copies of (squeezed thermal) x (vacuum) through the four-mode
discrete-Fourier interferometer and reads off the first two output modes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .activity import local_activity
from .states import GaussianState, apply_gaussian_unitary, partial_trace, tensor
from .symplectic import (_check_array, _check_entries, _check_int, _check_real, require_valid_cm, rotation,
                         unitary_to_orthosymplectic)
from .work import extractable_work


@dataclass(frozen=True, eq=False)
class DistillationOutcome:
    input_value: float
    output_value: float
    circuit: np.ndarray
    output_state: GaussianState


def process_two_copies_single_mode(gamma: np.ndarray, theta: float, phis) -> tuple:
    """Local output covariances of (gamma ⊕ gamma) through BS(theta) + phases.

    Returns (gamma1', gamma2') with
    R1^T gamma1' R1 = cos^2(theta) R3 gamma R3^T + sin^2(theta) R4 gamma R4^T
    and the mirrored combination for the second arm; a 2 x 2 gamma, theta and four phases pass the argument rules.
    """
    gamma = require_valid_cm(_check_array(gamma, "single-mode covariance matrix", (2, 2))).cm
    r1, r2, r3, r4 = (rotation(-p) for p in _check_array(phis, "phases", (4,)))
    theta = _check_real(theta, "beam splitter angle")
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    mixed3, mixed4 = (r @ gamma @ r.T for r in (r3, r4))
    return r1 @ (c2 * mixed3 + s2 * mixed4) @ r1.T, r2 @ (s2 * mixed3 + c2 * mixed4) @ r2.T


def dft_unitary(n: int) -> np.ndarray:
    """DFT unitary u_jk = exp(-2 pi i j k / n) / sqrt(n); ValueError unless n >= 1 is an integer, n^2 within budget."""
    n = _check_int(n, "number of modes", 1)
    _check_entries(n * n, f"DFT unitary of {n} modes")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / math.sqrt(n)


def activity_distillation_demo() -> DistillationOutcome:
    """Two copies of (squeezed thermal) x (vacuum) through the 4-mode DFT.

    The first two output modes form a state strictly more active than one
    input copy.
    """
    copy_cm = 0.5 * np.diag([1.0, 16.0, 1.0, 1.0])
    copy = GaussianState(np.zeros(4), copy_cm)
    passive = unitary_to_orthosymplectic(dft_unitary(4))
    processed = apply_gaussian_unitary(tensor([copy, copy]), passive)
    output = partial_trace(processed, [0, 1])
    return DistillationOutcome(
        input_value=local_activity(copy).value,
        output_value=local_activity(output).value,
        circuit=passive,
        output_state=output,
    )


def work_swap_demo(gamma_a: np.ndarray, gamma_b: np.ndarray) -> DistillationOutcome:
    """Concentrate work by swapping the middle modes of two (A ⊕ B) copies.

    Requires 2 x 2 covariances with W(gamma_a) > W(gamma_b); the first output
    pair (A ⊕ A) then holds more work than one input copy (A ⊕ B).
    """
    state_a, state_b = (GaussianState(np.zeros(2), _check_array(gamma, "single-mode covariance matrix", (2, 2)))
                        for gamma in (gamma_a, gamma_b))
    wa, wb = extractable_work(state_a).quadratic, extractable_work(state_b).quadratic
    if not wa > wb:
        raise ValueError(f"swap gains nothing: W(A) = {wa:.6g} <= W(B) = {wb:.6g}")
    copy = tensor([state_a, state_b])
    both = tensor([copy, copy])
    # Swap modes 1 and 2 (a theta = pi/2 beam splitter up to phases).
    perm = np.eye(8)[:, [0, 1, 4, 5, 2, 3, 6, 7]]
    swapped = apply_gaussian_unitary(both, perm.T)
    first_pair = partial_trace(swapped, [0, 1])
    return DistillationOutcome(
        input_value=extractable_work(copy).quadratic,
        output_value=extractable_work(first_pair).quadratic,
        circuit=perm.T,
        output_state=first_pair,
    )
