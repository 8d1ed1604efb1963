"""Shared random-instance generators and brute-force oracles."""

import itertools
import math

import mpmath
import numpy as np
from scipy.linalg import expm, schur
from scipy.optimize import minimize
from scipy.special import xlogy
from scipy.stats import unitary_group

import gausswork as gw
from gausswork.fock import _bs_blocks, annihilation
from gausswork.symplectic import TOL_PHYS


def random_unitary(rng, n):
    if n == 1:
        return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
    return unitary_group.rvs(n, random_state=rng)


def random_orthosymplectic(rng, n_modes):
    return gw.unitary_to_orthosymplectic(random_unitary(rng, n_modes))


def random_symplectic(rng, n_modes, r_max=1.0):
    o1 = random_orthosymplectic(rng, n_modes)
    o2 = random_orthosymplectic(rng, n_modes)
    rs = rng.uniform(-r_max, r_max, size=n_modes)
    return o1 @ gw.squeezer_direct_sum(rs) @ o2


def random_cm(rng, n_modes, nu_min=0.5, nu_max=3.0, r_max=1.0):
    s = random_symplectic(rng, n_modes, r_max=r_max)
    nu = rng.uniform(nu_min, nu_max, size=n_modes)
    cm = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return 0.5 * (cm + cm.T)


def random_state(rng, n_modes, displaced=True, d_scale=1.0, **kwargs):
    d = rng.normal(scale=d_scale, size=2 * n_modes) if displaced else np.zeros(2 * n_modes)
    return gw.GaussianState(d, random_cm(rng, n_modes, **kwargs))


def random_free_cm(rng, n_modes, nu_max=3.0):
    nu = rng.uniform(0.5, nu_max, size=n_modes)
    return gw.free_cm(nu, random_orthosymplectic(rng, n_modes)).cm


def fock_relative_entropy(rho: gw.GaussianState, sigma: gw.GaussianState, dim=40):
    """Brute-force Tr[rho (ln rho - ln sigma)] in a truncated Fock basis."""
    r = gw.fock_from_gaussian(rho, dim).matrix
    s = gw.fock_from_gaussian(sigma, dim).matrix
    wr = np.clip(np.linalg.eigvalsh(r), 0.0, None)
    neg_entropy = float(np.sum(xlogy(wr, wr)))
    ws, vs = np.linalg.eigh(s)
    weights = np.real(np.diag(vs.conj().T @ r @ vs))
    ws = np.clip(ws, 1e-300, None)
    return neg_entropy - float(weights @ np.log(ws))


def fock_entropy(mat):
    w = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    return float(-np.sum(xlogy(w, w)))


def _unitary_from_params(params, n):
    u = np.eye(n, dtype=complex)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            th, ph = params[k], params[k + 1]
            k += 2
            ci, si = np.cos(th), np.sin(th) * np.exp(1j * ph)
            rows = u[[i, j], :].copy()
            u[i, :] = ci * rows[0] - si * rows[1]
            u[j, :] = np.conj(si) * rows[0] + ci * rows[1]
    return u


def powell_activity(state: gw.GaussianState, restarts=16, seed=0, max_iter=400, ftol=1e-12):
    """Activity by multi-start Powell descent over a Givens/phase chart of U(N).

    Independent of the spectral formula: it minimises -S + sum_i g(occ_i)
    over the photon numbers occ of the interferometer-conjugated state.  The
    first start is the identity, the rest are seeded uniform angles.
    """
    n = state.n_modes
    overlap = gw.photon_overlap_matrix(state) + 0.5 * np.eye(n)
    entropy = gw.von_neumann_entropy(state)

    def objective(params):
        u = _unitary_from_params(params, n)
        occ = np.real(np.diag(u.T @ overlap @ np.conj(u)))
        return float(np.sum(gw.thermal_entropy(np.clip(occ, 0.5, None))))

    n_params = n * (n - 1)
    if n_params == 0:
        return -entropy + float(gw.thermal_entropy(overlap[0, 0].real))
    rng = np.random.default_rng(seed)
    starts = [np.zeros(n_params)]
    starts += [rng.uniform(-np.pi, np.pi, size=n_params) for _ in range(max(restarts - 1, 0))]
    best = math.inf
    for x0 in starts:
        res = minimize(
            objective, x0, method="Powell", options={"maxiter": max_iter, "xtol": 1e-10, "ftol": ftol}
        )
        best = min(best, float(res.fun))
    return -entropy + best


def two_mode_closed_form(state: gw.GaussianState):
    """Algebraic two-mode activity from block traces and displacement quadratics.

    Returns (value, (b1, b2), theta, delta_phi, witness covariance).
    """
    assert state.n_modes == 2
    cm, d = state.cm, state.displacement
    a_tr = float(cm[0, 0] + cm[1, 1])
    b_tr = float(cm[2, 2] + cm[3, 3])
    c_tr = float(cm[0, 2] + cm[1, 3])
    ups = float(cm[0, 3] - cm[1, 2])
    d1, d2, d3, d4 = d
    alpha_t = a_tr + b_tr + d1**2 + d2**2 + d3**2 + d4**2
    beta_t = a_tr - b_tr + d1**2 + d2**2 - d3**2 - d4**2
    c_t = c_tr + d1 * d3 + d2 * d4
    u_t = ups + d1 * d4 - d2 * d3

    radius = math.hypot(beta_t, 2.0 * math.hypot(c_t, u_t))
    b1 = 0.25 * (alpha_t + radius)
    b2 = max(0.25 * (alpha_t - radius), 0.5)
    off = math.hypot(c_t, u_t)
    theta = 0.0 if off == 0.0 and beta_t == 0.0 else -0.5 * math.atan2(2.0 * off, beta_t)
    delta_phi = math.atan2(u_t, c_t) if off > 0.0 else 0.0

    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[np.cos(delta_phi), np.sin(delta_phi)], [-np.sin(delta_phi), np.cos(delta_phi)]])
    passive = np.block([[c * rot, s * rot], [-s * np.eye(2), c * np.eye(2)]])
    witness = passive @ np.diag([b1, b1, b2, b2]) @ passive.T
    value = float(
        gw.thermal_entropy(b1) + gw.thermal_entropy(b2) - np.sum(gw.thermal_entropy(gw.symplectic_eigenvalues(cm)))
    )
    return value, (b1, b2), theta, delta_phi, 0.5 * (witness + witness.T)


def schur_williamson(cm):
    """Williamson decomposition (nu descending, S) by a real Schur form.

    Independent of the library's Hermitian-eigenvector route: the skew part
    of cm^{1/2} Omega cm^{1/2} is brought to 2 x 2 canonical blocks by
    ``scipy.linalg.schur`` and S = cm^{1/2} Q diag(nu)^{-1/2}.
    """
    n = cm.shape[0] // 2
    w, v = np.linalg.eigh(cm)
    root = (v * np.sqrt(w)) @ v.T
    k = root @ gw.symplectic_form(n) @ root
    t, q = schur(0.5 * (k - k.T), output="real")
    nu = np.empty(n)
    for i in range(n):
        b = 0.5 * (t[2 * i, 2 * i + 1] - t[2 * i + 1, 2 * i])
        if b < 0:
            q[:, [2 * i, 2 * i + 1]] = q[:, [2 * i + 1, 2 * i]]
            b = -b
        nu[i] = b
    order = np.argsort(-nu, kind="stable")
    cols = np.repeat(2 * order, 2) + np.tile([0, 1], n)
    nu = nu[order]
    return nu, root @ q[:, cols] @ np.diag(np.repeat(nu, 2) ** -0.5)


def expm_fock_from_gaussian(state: gw.GaussianState, dim):
    """Single-mode Fock density by ``scipy.linalg.expm`` of the squeezing,
    rotation and displacement generators in a padded space, then cropped."""
    nu, s = schur_williamson(state.cm)
    nu = 0.5 if abs(nu[0] - 0.5) <= TOL_PHYS else float(nu[0])
    bm = gw.bloch_messiah(s)
    psi = math.atan2(bm.o_out[1, 0], bm.o_out[0, 0])
    work = max(2 * dim, dim + 32)
    a = annihilation(work)
    adag = a.T
    rho = gw.fock_thermal(nu - 0.5, work).matrix.astype(complex)
    alpha = (state.displacement[0] + 1j * state.displacement[1]) / math.sqrt(2.0)
    for gen in (
        0.5 * bm.r[0] * (adag @ adag - a @ a),
        1j * psi * (adag @ a),
        alpha * adag - np.conj(alpha) * a,
    ):
        u = expm(gen)
        rho = u @ rho @ u.conj().T
    return rho[:dim, :dim]


def mp_fock_from_gaussian(state: gw.GaussianState, dim, dps=40):
    """Fock density of an N-mode Gaussian state, (dim^N, dim^N), at ``dps`` digits.

    The Bargmann data sigma = W cm W^dag + I/2, A = X (I - sigma^-1)*,
    b = sigma^-1 W d and c = exp(-(W d)^dag b / 2) / sqrt(det sigma) are
    formed in mpmath, and the Hermite recurrence runs entry by entry.  Each
    entry steps down its first nonzero index, the opposite order to the
    library's axis-by-axis fill.
    """
    n = state.n_modes
    with mpmath.workdps(dps):
        w = mpmath.zeros(2 * n, 2 * n)
        for k in range(n):
            w[k, 2 * k] = w[n + k, 2 * k] = 1 / mpmath.sqrt(2)
            w[k, 2 * k + 1] = 1j / mpmath.sqrt(2)
            w[n + k, 2 * k + 1] = -1j / mpmath.sqrt(2)
        sigma = w * mpmath.matrix(state.cm.tolist()) * w.H + mpmath.eye(2 * n) / 2
        inv = sigma**-1
        gamma = w * mpmath.matrix(state.displacement.tolist())
        b = inv * gamma
        swap = [(i + n) % (2 * n) for i in range(2 * n)]  # X exchanges the a and a* halves
        a = [[mpmath.conj((swap[i] == j) - inv[swap[i], j]) for j in range(2 * n)] for i in range(2 * n)]
        rho = {}
        for k in itertools.product(range(dim), repeat=2 * n):  # every predecessor comes first
            if not any(k):
                rho[k] = mpmath.exp(-mpmath.re((gamma.H * b)[0]) / 2) / mpmath.sqrt(mpmath.re(mpmath.det(sigma)))
                continue
            i = next(axis for axis, v in enumerate(k) if v)
            low = k[:i] + (k[i] - 1,) + k[i + 1 :]
            acc = b[i] * rho[low]
            for j in range(2 * n):
                if low[j]:
                    acc += a[i][j] * mpmath.sqrt(low[j]) * rho[low[:j] + (low[j] - 1,) + low[j + 1 :]]
            rho[k] = acc / mpmath.sqrt(k[i])
        return np.array([complex(v) for v in rho.values()]).reshape(dim**n, dim**n)


def dense_kraus_apply(rho: gw.FockDensity, ks: gw.KrausSet):
    """Sum K rho K^dag over the dense ``ks.operators`` and the 2-norm of
    I - sum K^dag K on the input's support (diagonal weight > 1e-12)."""
    out = np.zeros_like(rho.matrix)
    comp = np.zeros((ks.dim, ks.dim))
    for op in ks.operators.values():
        out += op @ rho.matrix @ op.T
        comp += op.T @ op
    support = np.flatnonzero(np.real(np.diag(rho.matrix)) > 1e-12)
    block = (np.eye(ks.dim) - comp)[np.ix_(support, support)]
    return out, float(np.linalg.norm(block, 2)) if support.size else 0.0


def scatter_kraus_operators(eta, nbar_bath, dim, max_mn):
    """Dense K_mn[m1, n1] = sqrt(p_n) B_{n1+n}[m1, n1] by one scatter per
    (n, n1) column, the way the Kraus set was first built."""
    x = nbar_bath / (nbar_bath + 1.0)
    root_p = np.sqrt((1.0 - x) * x ** np.arange(max_mn + 1))
    n_max = int(np.count_nonzero(root_p)) - 1
    blocks = list(_bs_blocks(float(eta), dim - 1 + n_max))
    operators = {}
    for n in range(n_max + 1):
        ops = np.zeros((max_mn + 1, dim, dim))
        for n1 in range(dim):
            total = n1 + n
            m1 = np.arange(max(0, total - max_mn), min(dim - 1, total) + 1)
            ops[total - m1, m1, n1] = root_p[n] * blocks[total][m1, n1]
        operators.update(((m, n), ops[m]) for m in range(max_mn + 1))
    return operators
