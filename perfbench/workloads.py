"""Workloads of the gausswork benchmark: seeded inputs, operations and oracles.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Inputs come from a seeded numpy
generator owned by this file; the library only ever receives the generated
arrays.  Every call into a library layer goes through ``Tracer.call`` so the
traced run can attribute time to the layers ``symplectic``, ``states``,
``free``, ``work``, ``activity``, ``fock`` and ``cli``.

Only names exported by ``gausswork/__init__.py`` and CLI flags the project
keeps are used, so later refactors of private modules do not break this
benchmark.

An operation fails when it raises, when it reports refused parts under the
result key ``errors``, or when its result fails the oracle in ``check_*``.
The oracles return a list of messages about wrong results (empty when the
result is right) and use tolerances scaled to the input: energy for
Gaussian states, the measured truncation mass for the Fock layer.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

import gausswork as gw

# Relative tolerance of the Gaussian identities, multiplied by (1 + energy).
# The identities hold to about 1e-15 relative at the seed commit.
RTOL = 1e-10
# Rounding allowance of the Fock-layer checks, per retained level.
FOCK_EPS = 64 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Input generation (the benchmark's own numpy code)


def haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def orthosymplectic(u):
    """Real 2N x 2N image of a passive unitary in (q1, p1, ..., qN, pN) order."""
    n = u.shape[0]
    big = np.block([[u.real, -u.imag], [u.imag, u.real]])
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = n + np.arange(n)
    return big[np.ix_(perm, perm)]


@dataclass
class StateInput:
    d: np.ndarray
    cm: np.ndarray

    @property
    def n(self):
        return self.cm.shape[0] // 2

    @property
    def key(self):
        return f"N{self.n}"


def random_state(rng, n, pure, r_max, disp=0.7):
    """Displaced Gaussian state O1 Z(r) O2 (+) nu_k I_2 with |r_k| <= r_max."""
    nu = np.full(n, 0.5) if pure else 0.5 + rng.exponential(1.0, n)
    r = rng.uniform(-r_max, r_max, n)
    z = np.diag(np.exp(np.repeat(r, 2) * np.tile([1.0, -1.0], n)))
    s = orthosymplectic(haar_unitary(rng, n)) @ z @ orthosymplectic(haar_unitary(rng, n))
    cm = s @ np.diag(np.repeat(nu, 2)) @ s.T
    alpha = disp * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    d = math.sqrt(2.0) * np.column_stack([alpha.real, alpha.imag]).reshape(-1)
    return StateInput(d, 0.5 * (cm + cm.T))


def thermal_product(nbar):
    """Covariance of the thermal product with per-mode photon numbers ``nbar``."""
    return np.diag(np.repeat(np.asarray(nbar, dtype=float) + 0.5, 2))


# ---------------------------------------------------------------------------
# Independent formulas used by the oracles


def g(nu):
    """Thermal entropy g(nu) = (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2)."""
    nu = np.asarray(nu, dtype=float)
    hi = nu + 0.5
    lo = np.clip(nu - 0.5, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = hi * np.log(hi) - np.where(lo > 0, lo * np.log(np.where(lo > 0, lo, 1.0)), 0.0)
    return out


def symplectic_spectrum(cm):
    n = cm.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    vals = np.sort(np.abs(np.linalg.eigvals(1j * omega @ cm)))
    return vals[0::2]


def energy(d, cm):
    return 0.5 * float(np.trace(cm) + d @ d)


def photons(d, cm):
    diag = np.diag(cm)
    return 0.5 * (diag[0::2] + diag[1::2] + d[0::2] ** 2 + d[1::2] ** 2) - 0.5


def close(a, b, tol):
    return bool(np.isfinite(a) and abs(a - b) <= tol)


# ---------------------------------------------------------------------------
# gaussian_scaling

# Operations per cycle at each mode number, inversely proportional to the
# measured mean cost of one operation so that each size class takes a similar
# share of the operation time.  Costs at the seed commit, from 30 s runs over
# seeds 1-10 on a 2-vCPU x86 machine with OpenBLAS at 2 threads: 2.48 ms at
# N = 1, 2.49 ms at N = 2, 2.55 ms at N = 4, 3.9 ms at N = 8, 8.9 ms at
# N = 16, 30 ms at N = 32 and 320 ms at N = 64.  perfbench/README.md has the
# shares this mix gives.
GAUSS_COUNTS = {1: 128, 2: 128, 4: 128, 8: 80, 16: 36, 32: 11, 64: 1}
GAUSS_R_MAX = 2.0


def _interleaved(counts):
    slots = [((k + 0.5) / c, n) for n, c in counts.items() for k in range(c)]
    return [n for _, n in sorted(slots)]


GAUSS_ORDER = _interleaved(GAUSS_COUNTS)


def gaussian_cycle(rng, index):
    return [random_state(rng, n, pure=(k + index) % 2 == 0, r_max=GAUSS_R_MAX)
            for k, n in enumerate(GAUSS_ORDER)]


def gaussian_op(tr, inp, cli=None):
    key = inp.key
    call = tr.call
    call("symplectic", "validate_cm", key, gw.validate_cm, inp.cm)
    st = call("states", "GaussianState", key, gw.GaussianState, inp.d, inp.cm)
    call("symplectic", "symplectic_eigenvalues", key, gw.symplectic_eigenvalues, st.cm)
    dec = call("symplectic", "williamson", key, gw.williamson, st.cm)
    call("symplectic", "bloch_messiah", key, gw.bloch_messiah, dec.symplectic)
    out = {"state": st}
    out["work"] = call("work", "extractable_work", key, gw.extractable_work, st)
    out["free"] = call("free", "is_free_cm", key, gw.is_free_cm, st.cm)
    out["protocol"] = call("work", "extraction_protocol", key, gw.extraction_protocol, st)
    out["entropy"] = call("states", "von_neumann_entropy", key, gw.von_neumann_entropy, st)
    ref = call("states", "GaussianState", key, gw.GaussianState,
               np.zeros_like(inp.d), thermal_product(photons(inp.d, inp.cm)))
    out["relent"] = call("states", "relative_entropy", key, gw.relative_entropy, st, ref)
    if inp.n <= 2:
        out["activity"] = call("activity", "local_activity", key, gw.local_activity, st).value
        out["coherence"] = call("activity", "gaussian_coherence", key, gw.gaussian_coherence, st)
    return out


def check_gaussian(inp, out):
    fails = []
    e = energy(inp.d, inp.cm)
    tol = RTOL * (1.0 + e)
    coherence = gw.gaussian_coherence(out["state"])
    if not close(out["relent"], coherence, tol):
        fails.append(f"S(rho||thermal) {out['relent']!r} != coherence {coherence!r}")
    final_cm = out["protocol"].final_cm.cm
    released = e - 0.5 * float(np.trace(final_cm))
    if not close(out["work"].total, released, tol):
        fails.append(f"W {out['work'].total!r} != released energy {released!r}")
    if not gw.is_free_cm(final_cm).spectral_free:
        fails.append("protocol output is not free")
    if not out["work"].total >= -tol:
        fails.append(f"negative work {out['work'].total!r}")
    if "activity" in out and not out["activity"] <= out["coherence"] + tol:
        fails.append(f"activity {out['activity']!r} > coherence {out['coherence']!r}")
    return fails


def gaussian_warmup(tr):
    rng = np.random.default_rng(0)
    for n in (1, 2, 4):
        gaussian_op(tr, random_state(rng, n, pure=False, r_max=1.0))


# ---------------------------------------------------------------------------
# activity_3mode


def activity_cycle(rng, index):
    return [random_state(rng, 3, pure=False, r_max=1.0)]


def activity_op(tr, inp, cli=None):
    st = tr.call("states", "GaussianState", "N3", gw.GaussianState, inp.d, inp.cm)
    report = tr.call("activity", "local_activity", "N3", gw.local_activity, st)
    coherence = tr.call("activity", "gaussian_coherence", "N3", gw.gaussian_coherence, st)
    tr.count("activity.certified", report.certified)
    return {"state": st, "report": report, "coherence": coherence}


def check_activity(inp, out):
    fails = []
    tol = RTOL * (1.0 + energy(inp.d, inp.cm))
    m = gw.photon_overlap_matrix(out["state"]) + 0.5 * np.eye(inp.n)
    spectral = -float(np.sum(g(symplectic_spectrum(inp.cm)))) + float(np.sum(g(np.linalg.eigvalsh(m))))
    value = out["report"].value
    if not close(value, spectral, tol):
        fails.append(f"activity {value!r} != spectral formula {spectral!r}")
    if not -tol <= value <= out["coherence"] + tol:
        fails.append(f"activity {value!r} outside [0, coherence {out['coherence']!r}]")
    if not out["report"].certified:
        fails.append("activity report not certified")
    return fails


def activity_warmup(tr):
    inp = random_state(np.random.default_rng(0), 3, pure=False, r_max=1.0)
    st = gw.GaussianState(inp.d, inp.cm)
    gw.gaussian_coherence(st)
    gw.photon_overlap_matrix(st)
    gw.local_activity(gw.GaussianState(inp.d[:4], inp.cm[:4, :4]))


# ---------------------------------------------------------------------------
# fock_channel

FOCK_SIZES = ((20, 20), (40, 20), (40, 40))
# Points per cycle.  (40, 20) is the CLI default truncation; three of them per
# cycle put the median operation in the middle of that class and give it
# three fifths of the samples instead of one third, which steadies op_p50_ms.
FOCK_CYCLE = ((40, 20), (20, 20), (40, 20), (40, 40), (40, 20))
# Input ranges per photon cut min(dim, max_mn): at most about 2 photons, and a
# truncation leak of the channel output far below the 1e-6 at which
# fock_single_mode_activity refuses (at most 2e-7 over the corners of the
# eta, nbar_bath and input ranges).  At (40, 20) a thermal input with 1.5
# photons or a squeezing of 0.7 already leaks more than 1e-6.
FOCK_INPUT_RANGES = {20: {"nbar": 0.45, "r": 0.5}, 40: {"nbar": 1.5, "r": 0.8}}
# Thermal photons under the squeezing of the squeezed input.  fock_from_gaussian
# refuses about half of the pure squeezed states (their Williamson eigenvalue
# rounds to just below 1/2), so the squeezed input is a squeezed thermal state;
# pure_squeezed_acceptance measures the refusals on their own.
FOCK_SQUEEZED_NBAR = (0.01, 0.05)


@dataclass
class FockPoint:
    dim: int
    max_mn: int
    eta: float
    nbar_bath: float
    states: List[StateInput]

    @property
    def key(self):
        return f"d{self.dim}m{self.max_mn}"


def squeezed_cm(nbar, r, phi):
    """Single-mode squeezed thermal covariance: ``nbar`` thermal photons, squeezing
    ``r`` along angle ``phi``."""
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    cm = rot @ ((nbar + 0.5) * np.diag([math.exp(2 * r), math.exp(-2 * r)])) @ rot.T
    return 0.5 * (cm + cm.T)


def pure_squeezed_acceptance(rng, count=16, dim=20):
    """Share of seeded pure squeezed states (r in [0.1, 0.5]) that
    fock_from_gaussian accepts.  It refuses those whose Williamson eigenvalue
    rounds to just below 1/2, which is why the fock_channel inputs carry a
    little thermal noise."""
    accepted = 0
    for _ in range(count):
        cm = squeezed_cm(0.0, rng.uniform(0.1, 0.5), rng.uniform(0.0, math.pi))
        try:
            gw.fock_from_gaussian(gw.GaussianState(np.zeros(2), cm), dim)
        except ValueError:
            continue
        accepted += 1
    return accepted / count


def fock_point(rng, dim, max_mn):
    lim = FOCK_INPUT_RANGES[min(dim, max_mn)]
    nbar = rng.uniform(0.05, lim["nbar"])
    r = rng.uniform(0.1, lim["r"])
    sq = squeezed_cm(rng.uniform(*FOCK_SQUEEZED_NBAR), r, rng.uniform(0.0, math.pi))
    alpha = complex(*rng.uniform(-1.0, 1.0, 2))
    states = [
        StateInput(np.zeros(2), (nbar + 0.5) * np.eye(2)),
        StateInput(np.zeros(2), sq),
        StateInput(math.sqrt(2.0) * np.array([alpha.real, alpha.imag]), 0.5 * np.eye(2)),
    ]
    return FockPoint(dim, max_mn, rng.uniform(0.5, 0.95), rng.uniform(0.05, 0.5), states)


def fock_cycle(rng, index):
    return [fock_point(rng, dim, max_mn) for dim, max_mn in FOCK_CYCLE]


def fock_op(tr, pt, cli=None):
    kraus = tr.call("fock", "thermal_loss_kraus", pt.key, gw.thermal_loss_kraus,
                    pt.eta, pt.nbar_bath, pt.dim, pt.max_mn)
    if tr.on:
        ops = list(kraus.operators.values())
        tr.count(f"fock.kraus_mb.{pt.key}", sum(op.nbytes for op in ops) / 1e6)
        tr.count("fock.kraus_nonzero", sum(int(np.count_nonzero(op)) for op in ops))
        tr.count("fock.kraus_stored", sum(op.size for op in ops))
    runs, errors = [], []
    for k, inp in enumerate(pt.states):
        # The inputs are independent, so one refused input does not skip the others.
        try:
            st = tr.call("states", "GaussianState", "N1", gw.GaussianState, inp.d, inp.cm)
            rho = tr.call("fock", "fock_from_gaussian", f"d{pt.dim}", gw.fock_from_gaussian, st, pt.dim)
            out, _ = tr.call("fock", "apply_kraus_channel", pt.key, gw.apply_kraus_channel, rho, kraus)
            act = tr.call("fock", "fock_single_mode_activity", "", gw.fock_single_mode_activity, out)
        except ValueError as exc:
            errors.append(f"input {k}: {exc}")
            continue
        runs.append((k, st, rho, out, act))
    return {"runs": runs, "errors": errors}


def truncation_mass(p_in, pt):
    """Probability the Kraus set cannot carry: bath photons beyond max_mn, or
    input plus bath photons beyond max_mn (bath output index) or dim - 1
    (system output index).  Computed from the input's Fock diagonal."""
    x = pt.nbar_bath / (pt.nbar_bath + 1.0)
    n_bath = np.arange(pt.max_mn + 1)
    p_bath = (1.0 - x) * x**n_bath
    total = np.convolve(p_in, p_bath)
    cut = min(pt.max_mn, pt.dim - 1)
    return float(x ** (pt.max_mn + 1) + np.sum(total[cut + 1:]))


def check_fock(pt, out):
    fails = []
    levels = np.arange(pt.dim)
    for k, st, rho, res, act in out["runs"]:
        p_in = np.clip(np.real(np.diag(rho.matrix)), 0.0, None)
        leak = abs(1.0 - rho.trace)
        mass = leak + truncation_mass(p_in, pt) + FOCK_EPS * pt.dim
        if not close(res.trace, 1.0, mass):
            fails.append(f"input {k}: output trace {res.trace!r} off by more than {mass:.3g}")
        n_out = float(np.real(np.diag(res.matrix)) @ levels)
        inp = pt.states[k]
        cm_out = pt.eta**2 * inp.cm + (1.0 - pt.eta**2) * (pt.nbar_bath + 0.5) * np.eye(2)
        n_ref = float(gw.mean_photon_numbers(gw.phase_space_loss_channel(st, pt.eta, pt.nbar_bath))[0])
        n_own = float(photons(pt.eta * inp.d, cm_out)[0])
        tol_n = (pt.dim + pt.max_mn) * mass + RTOL * (1.0 + n_ref)
        if not close(n_out, n_ref, tol_n) or not close(n_own, n_ref, RTOL * (1.0 + n_ref)):
            fails.append(f"input {k}: photon number {n_out!r} != phase-space {n_ref!r}")
        if not np.isfinite(act):
            fails.append(f"input {k}: activity {act!r} not finite")
    return fails


def fock_warmup(tr):
    fock_op(tr, FockPoint(12, 6, 0.8, 0.1, [StateInput(np.zeros(2), 0.6 * np.eye(2))]))


# ---------------------------------------------------------------------------
# cli_cold

CLI_ORDER = ("work", "activity", "entropy", "relent", "decompose", "freecheck",
             "channel_kraus", "demo_distill_activity", "demo_distill_work", "sweep_nogo")


@dataclass
class CliInput:
    label: str
    argv: List[str]
    states: List[StateInput] = field(default_factory=list)
    point: "FockPoint" = None  # channel_kraus only

    @property
    def key(self):
        return self.label


def state_json(inp):
    return json.dumps({"modes": inp.n, "displacement": inp.d.tolist(),
                       "covariance": inp.cm.reshape(-1).tolist()})


def cli_input(rng, label):
    if label in ("work", "activity", "entropy", "decompose", "freecheck"):
        inp = random_state(rng, 2, pure=bool(rng.integers(2)), r_max=1.0)
        return CliInput(label, [label, "--state", state_json(inp)], [inp])
    if label == "relent":
        inp = random_state(rng, 2, pure=False, r_max=1.0)
        ref = StateInput(np.zeros(4), thermal_product(rng.uniform(0.1, 2.0, 2)))
        return CliInput(label, ["relent", "--state", state_json(inp), "--state2", state_json(ref)],
                        [inp, ref])
    if label == "channel_kraus":
        pt = fock_point(rng, 40, 20)
        inp = pt.states[int(rng.integers(3))]
        argv = ["channel", "--state", state_json(inp), "--eta", repr(pt.eta),
                "--nbar-bath", repr(pt.nbar_bath), "--kraus"]
        return CliInput(label, argv, [inp], pt)
    if label == "sweep_nogo":
        return CliInput(label, ["sweep", "--kind", "nogo", "--seed", str(int(rng.integers(1 << 30)))])
    return CliInput(label, ["demo", label[len("demo_"):].replace("_", "-")])


def cli_cycle(rng, index):
    return [cli_input(rng, CLI_ORDER[index % len(CLI_ORDER)])]


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run a child to completion; return (exit code, stdout, stderr, max RSS kB)."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


class CliRunner:
    """Runs ``python -m gausswork.cli`` with the checkout's ``src`` on PYTHONPATH."""

    def __init__(self, src):
        self.env = child_env(src)
        self.peak_rss_kb = 0

    def __call__(self, argv):
        code, out, err, rss = run_child([sys.executable, "-m", "gausswork.cli", *argv, "--json"], self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return {"code": code, "stdout": out.decode(), "stderr": err.decode()}


def cli_op(tr, inp, cli):
    out = tr.call("cli", inp.label, "", cli, inp.argv)
    if out["code"] != 0:
        out["errors"] = [f"{inp.label}: exit code {out['code']}: {out['stderr'].strip()[-200:]}"]
    return out


def cli_expected(inp):
    """In-process library values for the same input, keyed like the CLI output."""
    states = [gw.GaussianState(s.d, s.cm) for s in inp.states]
    if inp.label == "work":
        rep = gw.extractable_work(states[0])
        return {"quadratic": rep.quadratic, "displacement": rep.displacement, "total": rep.total}
    if inp.label == "activity":
        rep = gw.local_activity(states[0])
        return {"activity": rep.value, "coherence": gw.gaussian_coherence(states[0]), "certified": True}
    if inp.label == "entropy":
        return {"entropy": gw.von_neumann_entropy(states[0])}
    if inp.label == "relent":
        return {"relative_entropy": gw.relative_entropy(states[0], states[1])}
    if inp.label == "decompose":
        dec = gw.williamson(states[0].cm)
        return {"symplectic_eigenvalues": dec.nu.tolist(),
                "bm_squeezing": gw.bloch_messiah(dec.symplectic).r.tolist()}
    if inp.label == "freecheck":
        rep = gw.is_free_cm(states[0].cm)
        return {"spectral_free": rep.spectral_free, "structural_form": rep.structural_form, "gap": rep.gap}
    if inp.label == "channel_kraus":
        pt = inp.point
        rho = gw.fock_from_gaussian(states[0], pt.dim)
        kraus = gw.thermal_loss_kraus(pt.eta, pt.nbar_bath, pt.dim, pt.max_mn)
        out, deficit = gw.apply_kraus_channel(rho, kraus)
        nbar = float(np.real(np.diag(out.matrix)) @ np.arange(pt.dim))
        return {"output_nbar": nbar, "output_trace": out.trace, "completeness_deficit": deficit}
    if inp.label == "demo_distill_activity":
        res = gw.activity_distillation_demo()
        return {"input_activity": res.input_value, "output_activity": res.output_value}
    if inp.label == "demo_distill_work":
        res = gw.work_swap_demo(gw.squeezed(1.0).cm, gw.vacuum(1).cm)
        return {"input_pair_work": res.input_value, "output_pair_work": res.output_value}
    return {}


def _mismatch(got, want):
    if isinstance(want, bool) or isinstance(got, bool):
        return got is not want
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return True
    return not np.all(np.abs(got - want) <= RTOL * (1.0 + np.abs(want)))


def check_cli(inp, out):
    if out["code"] != 0:
        return []  # refused; counted through cli_op's errors
    try:
        got = json.loads(out["stdout"])["outputs"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{inp.label}: unreadable JSON record ({exc})"]
    if inp.label == "sweep_nogo":
        # The no-go theorem: two-copy Gaussian processing gains neither
        # activity nor work.
        fails = []
        for key in ("max_activity_gain", "max_work_gain"):
            if not (key in got and got[key] <= 1e-9):
                fails.append(f"sweep_nogo: {key} = {got.get(key)!r} is a gain")
        return fails
    want = cli_expected(inp)
    return [f"{inp.label}: {key} = {got.get(key)!r}, library gives {val!r}"
            for key, val in want.items() if key not in got or _mismatch(got[key], val)]


def cli_warmup(tr):
    import gausswork.cli

    gausswork.cli.build_parser()


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, also in BENCHMARK.json for the workloads listed there
    cycle: Callable  # (rng, index) -> list of operation inputs
    op: Callable  # (tracer, input, CliRunner) -> result
    check: Callable  # (input, result) -> list of messages about wrong results
    warmup: Callable  # (tracer) -> None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gaussian_scaling",
                 "Symplectic core and functionals at N = 1..64, |r| <= 2; N <= 2 activity closed "
                 "forms must hold when the N >= 3 route changes",
                 gaussian_cycle, gaussian_op, check_gaussian, gaussian_warmup),
        Workload("activity_3mode",
                 "The only workload on the N >= 3 local-activity route, the 16-restart Powell search "
                 "at the seed commit",
                 activity_cycle, activity_op, check_activity, activity_warmup),
        Workload("fock_channel",
                 "Fock layer: one Kraus build shared by three inputs at 1.4, 5.6 and 21.5 MB Kraus "
                 "sets, around the L2 cache size",
                 fock_cycle, fock_op, check_fock, fock_warmup),
        Workload("cli_cold",
                 "Cold CLI processes over all 9 subcommands: interpreter start, imports, parsing "
                 "and output emission count",
                 cli_cycle, cli_op, check_cli, cli_warmup),
    )
}
