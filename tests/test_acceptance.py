"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured witness.  Tolerances are pinned here
and match the module contracts; nothing is deferred to calibration.
"""

import numpy as np

from conftest import fgr_rate_profile, general_heat_bath_bundle, \
    random_hermitian
from oracles import validate_cppnce
from cglind.coarsegrain import CoarseGrainSchedule, T_of_lambda
from cglind.generator import (
    assemble_kt,
    build_generator,
    k_t_oracle,
    qds_certificate,
)
from cglind.linalg import hermitian_eig, max_abs, trace_norm, vectorize, devectorize, expm
from cglind.scenarios import (
    HeatBathModel,
    dual_path_residual,
    gibbs_limit_study,
    heat_bath_generator,
    heat_bath_qutrit_model,
    qfgr_two_block_model,
    reference_heat_bath_model,
    two_sector_qubit_model,
    QUASI_CONTINUUM_TAU_BAR,
)
from cglind.subsystem import (
    PhysicalSubsystem,
    build_projection,
    partial_trace_family,
    sector_family,
)
from cglind.cli import ScenarioConfig, run_config, main as cli_main

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

CERT_TIMES = (0.1, 1.0, 10.0, 100.0)


def report(num, ok, desc, witness):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc} ({witness})"
    print(line)
    assert ok, line


def dephasing_spec_model():
    """The named dephasing-qubit scenario point."""
    sub = build_projection(sector_family([1, 1]))
    sched = CoarseGrainSchedule(lam=0.1, xi=1.0, T_ref=1.0)
    return sub, SZ, SX, sched


def oracle_models():
    """The five oracle-equivalence models (d <= 8)."""
    sub, H0, Hp, sched = dephasing_spec_model()
    yield "dephasing-qubit", sub, H0, Hp, sched

    for name, model in (("qfgr-two-sector", two_sector_qubit_model()),
                        ("qfgr-two-blocks", qfgr_two_block_model())):
        sub = build_projection(sector_family(model.sector_dims))
        yield name, sub, model.H0, model.Hp, model.schedule

    for name, model in (("heat-bath-qutrit", heat_bath_qutrit_model()),
                        ("heat-bath-reference", reference_heat_bath_model())):
        sub = build_projection(partial_trace_family(model.dim_A,
                                                    model.bath_state()))
        H0, Hp = model.full_hamiltonian_parts()
        yield name, sub, H0, Hp, model.schedule


def scenario_bundles():
    """All desk-scale scenario bundles used by the certificates."""
    sub, H0, Hp, sched = dephasing_spec_model()
    yield "dephasing-qubit", build_generator(sub, H0, Hp, sched)
    for name, model in (("qfgr-two-sector", two_sector_qubit_model()),
                        ("qfgr-two-blocks", qfgr_two_block_model())):
        sub = build_projection(sector_family(model.sector_dims))
        yield name, build_generator(sub, model.H0, model.Hp, model.schedule)
    for name, model in (("heat-bath-qutrit", heat_bath_qutrit_model()),
                        ("heat-bath-reference", reference_heat_bath_model())):
        yield name + "-general", general_heat_bath_bundle(model)
        yield name + "-specialized", heat_bath_generator(model)


def test_01_oracle_equivalence():
    """Assembled second-order generator equals the double-time-quadrature
    oracle, max entry <= 1e-6, on five models."""
    worst = 0.0
    for name, sub, H0, Hp, sched in oracle_models():
        lam2 = sched.lam ** 2
        T = T_of_lambda(sched)
        K_asm, *_ = assemble_kt(sub, hermitian_eig(H0), Hp, T)
        K_orc = k_t_oracle(sub, H0, Hp, T)
        dev = lam2 * max_abs(K_orc - K_asm @ sub.heisenberg)
        worst = max(worst, dev)
        assert dev <= 1e-6, f"{name}: {dev:.3e}"
    report(1, worst <= 1e-6, "assembled vs time-domain oracle on 5 models",
           f"worst max-entry {worst:.3e}")


def test_02_qds_certificate():
    """Choi PSD (slack 1e-9), unitality <= 1e-10, trace preservation
    <= 1e-9, semigroup composition <= 1e-9 at t in {0.1, 1, 10, 100}."""
    worst = {"choi": 0.0, "unital": 0.0, "tp": 0.0, "semi": 0.0}
    for name, bundle in scenario_bundles():
        cert = qds_certificate(bundle, CERT_TIMES, rng=0)
        d = bundle.dim
        assert np.all(cert.choi_min_eig >= -1e-9 * (1.0 + d)), name
        assert np.all(cert.unitality_dev <= 1e-10), name
        assert np.all(cert.trace_preservation_dev <= 1e-9), name
        assert cert.semigroup_dev <= 1e-9, name
        worst["choi"] = min(worst["choi"], float(np.min(cert.choi_min_eig)))
        worst["unital"] = max(worst["unital"], float(np.max(cert.unitality_dev)))
        worst["tp"] = max(worst["tp"], float(np.max(cert.trace_preservation_dev)))
        worst["semi"] = max(worst["semi"], cert.semigroup_dev)
    report(2, True, "semigroup certificates on every scenario bundle",
           f"choi min {worst['choi']:.2e}, unitality {worst['unital']:.2e}, "
           f"trace {worst['tp']:.2e}, composition {worst['semi']:.2e}")


def test_03_contraction():
    """Trace norm of evolved states never grows by more than 1e-9."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for name, bundle in scenario_bundles():
        d = bundle.dim
        quotient = bundle.quotient_schrodinger
        for _ in range(3):
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = bundle.subsystem.project_state(G @ G.conj().T)
            rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
            base = trace_norm(rho)
            for t in CERT_TIMES:
                evolved = devectorize(expm(t * quotient) @ vectorize(rho), d)
                worst = max(worst, trace_norm(evolved) - base)
        assert worst <= 1e-9, name
    report(3, worst <= 1e-9, "trace-norm contraction on sampled trajectories",
           f"max growth {worst:.3e}")


def test_04_homomorphism_degeneracy():
    """Perturbations inside the subsystem algebra give a vanishing
    second-order generator on both paths."""
    worst = 0.0
    cases = []
    sub = build_projection(sector_family([1, 1]))
    cases.append((sub, np.diag([0.4, -0.7]).astype(complex), SZ))
    w = np.diag([0.6, 0.3, 0.1]).astype(complex)
    sub_pt = build_projection(partial_trace_family(2, w))
    H0 = np.kron(np.diag([0.5, -0.5]), np.eye(3)) \
        + np.kron(np.eye(2), np.diag([0.0, 0.9, 1.7]))
    Hp = np.kron(SX, np.eye(3))
    cases.append((sub_pt, H0.astype(complex), Hp.astype(complex)))
    for sub_i, H0_i, Hp_i in cases:
        T = 1.3
        K_asm, *_ = assemble_kt(sub_i, hermitian_eig(H0_i), Hp_i, T)
        K_orc = k_t_oracle(sub_i, H0_i, Hp_i, T)
        worst = max(worst, max_abs(K_asm @ sub_i.heisenberg), max_abs(K_orc))
    report(4, worst <= 1e-8, "K vanishes when H' lies in the subsystem algebra",
           f"worst norm {worst:.3e}")


def test_05_gauge_invariance():
    """H' -> H' + c 1 leaves the generator unchanged to 1e-10."""
    worst = 0.0
    m = heat_bath_qutrit_model()
    sub = build_projection(partial_trace_family(m.dim_A, m.bath_state()))
    H0, Hp = m.full_hamiltonian_parts()
    base = build_generator(sub, H0, Hp, m.schedule)
    for c in (1.0, -3.7):
        shifted = build_generator(sub, H0, Hp + c * np.eye(6), m.schedule)
        worst = max(worst, max_abs(shifted.heisenberg - base.heisenberg))
    q = two_sector_qubit_model()
    sub_q = build_projection(sector_family(q.sector_dims))
    base_q = build_generator(sub_q, q.H0, q.Hp, q.schedule)
    for c in (1.0, -3.7):
        shifted = build_generator(sub_q, q.H0, q.Hp + c * np.eye(2), q.schedule)
        worst = max(worst, max_abs(shifted.heisenberg - base_q.heisenberg))
    report(5, worst <= 1e-10, "generator invariant under H' -> H' + c*1",
           f"worst deviation {worst:.3e}")


def test_06_heat_bath_dual_path():
    """Line-sum generator equals the general Kraus construction on three
    randomized qubit + 3-level-bath models, max entry <= 1e-7."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for k, (beta, lam) in enumerate([(0.7, 0.5), (1.0, 0.35), (1.4, 0.6)]):
        model = HeatBathModel(
            H_A=random_hermitian(rng, 2),
            H_B=np.diag(np.sort(rng.uniform(0.0, 2.5, size=3))).astype(complex),
            Q=random_hermitian(rng, 2),
            Phi=random_hermitian(rng, 3),
            beta=beta,
            schedule=CoarseGrainSchedule(lam=lam, xi=1.0, T_ref=1.0),
        )
        dev = dual_path_residual(general_heat_bath_bundle(model),
                                 heat_bath_generator(model))
        worst = max(worst, dev)
        assert dev <= 1e-7, f"model {k}: {dev:.3e}"
    report(6, worst <= 1e-7, "specialized vs general heat-bath generator x3",
           f"worst max-entry {worst:.3e}")


def test_07_gibbs_limit():
    """Reference-model steady states approach the system Gibbs state:
    strictly decreasing over lam in {0.3, 0.1, 0.03} and < 0.05 at the
    smallest coupling."""
    rows = gibbs_limit_study(reference_heat_bath_model(), [0.3, 0.1, 0.03])
    dists = [r.distance for r in rows]
    ok = dists[0] > dists[1] > dists[2] and dists[2] < 0.05 \
        and all(r.nullspace_dim == 1 for r in rows)
    report(7, ok, "steady-state distance to Gibbs decreases over the grid",
           "distances " + ", ".join(f"{x:.6f}" for x in dists))


def test_08_fgr_nascent_delta():
    """Rate-profile normalization 2 pi to 1e-6 for T in {1, 10}; peak
    scales linearly in T to 1e-9 relative."""
    rows = [fgr_rate_profile(T) for T in (1.0, 10.0)]
    norm_devs = [abs(integral - 2.0 * np.pi) for integral, *_ in rows]
    peak_lin = abs(rows[1][1] / rows[0][1] - 10.0) / 10.0
    ok = all(d <= 1e-6 for d in norm_devs) and peak_lin <= 1e-9
    report(8, ok, "nascent-delta normalization and peak scaling",
           f"norm devs {norm_devs[0]:.2e}/{norm_devs[1]:.2e}, "
           f"peak linearity {peak_lin:.2e}")


def test_09_weak_coupling_sweep():
    """On the frozen quasi-continuum preset the sup error over the
    rescaled window is strictly smaller at lam = 0.05 than at lam = 0.2.
    Recorded table of the CLI's auto time mode, 41 points each; no
    asymptotic claim."""
    cfg = ScenarioConfig(
        kind="heat_bath", preset="quasi-continuum", sector_dims=None,
        matrices={}, beta=None, lambdas=[0.2, 0.05], xi=1.0, t_ref=1.0,
        time_mode="auto", t_start=0.0, t_stop=10.0, t_count=41,
        tau_bar=QUASI_CONTINUUM_TAU_BAR, seed=0, csv_name="run.csv",
        json_name="run.json")
    results = run_config(cfg).results
    sup = {r.lam: float(np.max(r.error_norm)) for r in results}
    ok = sup[0.05] < sup[0.2]
    report(9, ok, "quasi-continuum sup error shrinks with the coupling",
           f"sup(0.2) = {sup[0.2]:.4f}, sup(0.05) = {sup[0.05]:.4f}, "
           f"{sum(len(r.times) for r in results)} table rows")


def test_10_conditional_expectation_validator():
    """Both scenario Kraus families satisfy every conditional-expectation
    axiom; the deliberately broken family fails the bimodule axiom with
    a nonzero witness."""
    sector_sub = build_projection(sector_family([2, 2]))
    bath = reference_heat_bath_model()
    pt_sub = build_projection(partial_trace_family(bath.dim_A,
                                                   bath.bath_state()))
    r1 = validate_cppnce(sector_sub, rng=3)
    r2 = validate_cppnce(pt_sub, rng=3)
    broken = PhysicalSubsystem([np.eye(2, dtype=complex) / 2, SX / 2, SZ / 2])
    r3 = validate_cppnce(broken, rng=3)
    bimodule_ok, witness = r3["bimodule"]
    ok = all(ok for ok, _ in [*r1.values(), *r2.values()]) \
        and not bimodule_ok and witness > 0.0
    report(10, ok, "validator passes scenario families, breaks broken family",
           f"broken bimodule witness {witness:.3e}")


def test_11_cli_determinism(tmp_path):
    """Repeated CLI runs with the same config and seed produce
    byte-identical CSV output."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("""\
[scenario]
kind = heat_bath
preset = heat-bath-qutrit

[schedule]
lambda = 0.45 0.3
xi = 1.0
t_ref = 1.0

[time]
mode = explicit
start = 0.0
stop = 4.0
count = 4

[run]
seed = 7

[output]
csv = det.csv
json = det.json
""")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["--out-dir", str(out1), "run", str(cfg)]) == 0
    assert cli_main(["--out-dir", str(out2), "run", str(cfg)]) == 0
    b1 = (out1 / "det.csv").read_bytes()
    b2 = (out2 / "det.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    report(11, ok, "byte-identical CSV for identical config and seed",
           f"{len(b1)} bytes")
