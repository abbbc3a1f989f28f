"""Acceptance gate: eleven go/no-go checks over the whole toolkit.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and fails with the collected defect list if its criterion is not met.
"""

import json
import time
from pathlib import Path

import numpy as np

from qpl import (
    CoherentFamily,
    FockSpace,
    Kinematics,
    StructureConstants,
    WeakConfig,
    annihilator_shift,
    annihilator_shift_prediction,
    coherent_overlap,
    coherent_overlap_closed,
    dft,
    expectation,
    fs_speed_check,
    gauss_trace,
    gauss_trace_closed_form,
    measured_shift,
    momentum_amplitudes,
    normalize,
    nslit_evolve,
    pancharatnam_phase,
    phase_point,
    random_density,
    random_hermitian,
    random_ket,
    reference_state,
    shift_residual,
    tensor,
    unitary_exp,
    weak_value,
    wigner_map,
)
from qpl.cli import main as cli_main
from qpl.modular import az_state, crt_permutation

GOLDEN = Path(__file__).parent / "golden"


def _report(number, label, failures, started=None, budget=None):
    status = "PASS" if not failures else "FAIL"
    timing = ""
    if started is not None:
        elapsed = time.perf_counter() - started
        timing = f" [runtime {elapsed:.1f}s < {budget:.0f}s]"
        if budget is not None and elapsed > budget:
            failures.append(f"runtime {elapsed:.1f}s exceeded budget {budget:.0f}s")
            status = "FAIL"
    print(f"criterion {number:02d} {status} - {label}{timing}")
    assert not failures, f"criterion {number}: " + " | ".join(failures)


def test_c01_shift_clock_algebra():
    started = time.perf_counter()
    failures = []
    for n in range(1, 33):
        kin = Kinematics(n)
        v_phase = np.exp(2j * np.pi / n)
        eye = np.eye(n)
        if np.max(np.abs(np.linalg.matrix_power(kin.V, n) - eye)) > 1e-10:
            failures.append(f"V^{n} != I at N={n}")
        if np.max(np.abs(np.linalg.matrix_power(kin.U, n) - eye)) > 1e-10:
            failures.append(f"U^{n} != I at N={n}")
        v_pows = [eye]
        u_pows = [eye]
        for _ in range(n - 1):
            v_pows.append(v_pows[-1] @ kin.V)
            u_pows.append(u_pows[-1] @ kin.U)
        defect = 0.0
        for j in range(n):
            for k in range(n):
                lhs = v_pows[j] @ u_pows[k]
                rhs = v_phase ** (j * k) * (u_pows[k] @ v_pows[j])
                defect = max(defect, np.max(np.abs(lhs - rhs)))
        if defect > 1e-10:
            failures.append(f"Weyl defect {defect:.2e} at N={n}")
        if np.max(np.abs(kin.F.conj().T @ kin.F - eye)) > 1e-10:
            failures.append(f"F not unitary at N={n}")
        if np.max(np.abs(np.linalg.matrix_power(kin.F, 4) - eye)) > 1e-10:
            failures.append(f"F^4 != I at N={n}")
    _report(1, "shift/clock algebra for N <= 32", failures, started, 10.0)


def test_c02_dft_trace_identity():
    failures = []
    for n in range(1, 32, 2):
        closed = gauss_trace_closed_form(n)
        if abs(gauss_trace(n) - closed) > 1e-10:
            failures.append(f"odd trace mismatch at N={n}")
    recorded = json.loads((GOLDEN / "gauss_trace_even.json").read_text())
    if sorted(int(k) for k in recorded) != list(range(2, 33, 2)):
        failures.append("even-N record does not cover 2..32")
    for key, value in recorded.items():
        live = complex(np.trace(dft(int(key))))
        if abs(live - complex(value["re"], value["im"])) > 1e-10:
            failures.append(f"recorded even trace stale at N={key}")
    _report(2, "DFT trace closed form (odd) + even-N record", failures)


def test_c03_phase_point_basis():
    failures = []
    printed_n2 = {
        (0, 0): np.array([[2, 1 + 1j], [1 - 1j, 0]]) / 2,
        (0, 1): np.array([[0, 1 - 1j], [1 + 1j, 2]]) / 2,
        (1, 0): np.array([[2, -1 - 1j], [-1 + 1j, 0]]) / 2,
        (1, 1): np.array([[0, -1 + 1j], [-1 - 1j, 2]]) / 2,
    }
    for n in (2, 3, 4, 5, 7):
        flat = phase_point(n, *np.ogrid[:n, :n]).reshape(n * n, n, n)
        for idx in range(n * n):
            d = flat[idx]
            if np.max(np.abs(d - d.conj().T)) > 1e-9:
                failures.append(f"non-hermitian point operator N={n}")
                break
            if abs(np.trace(d) - 1.0) > 1e-9:
                failures.append(f"trace != 1 at N={n}")
                break
        gram = np.einsum("aij,bji->ab", flat.conj().transpose(0, 2, 1), flat)
        if np.max(np.abs(gram - n * np.eye(n * n))) > 1e-9:
            failures.append(f"orthogonality defect at N={n}")
        rng = np.random.default_rng(300 + n)
        op = random_hermitian(n, rng)
        completeness = np.einsum(
            "aij,jk,akl->il", flat, op, flat
        )
        if np.max(np.abs(completeness - n * np.trace(op) * np.eye(n))) > 1e-9:
            failures.append(f"completeness defect at N={n}")
        if n % 2 == 1:
            squares = np.einsum("aij,ajk->aik", flat, flat)
            if np.max(np.abs(squares - np.eye(n))) > 1e-9:
                failures.append(f"involution defect at odd N={n}")
    for (m, n_), expected in printed_n2.items():
        if not np.allclose(phase_point(2, m, n_), expected, atol=1e-12):
            failures.append(f"N=2 point operator ({m},{n_}) differs from reference")
    _report(3, "phase-point basis identities (N in 2..7) + N=2 block", failures)


def test_c04_structure_constants():
    started = time.perf_counter()
    failures = []
    for n in (3, 5, 7):
        sc = StructureConstants(n)
        flat = phase_point(n, *np.ogrid[:n, :n]).reshape(n * n, n, n)
        m, nn, p, q, r, s = np.ix_(*[np.arange(n)] * 6)
        lam = sc.value((m, nn), (p, q), (r, s)).reshape(n * n, n * n, n * n)
        products = np.einsum("aij,bjk->abik", flat, flat)
        direct = products - products.transpose(1, 0, 2, 3)
        recon = sc.prefactor * np.einsum("abc,cij->abij", lam, flat)
        defect = float(np.max(np.abs(direct - recon)))
        if defect > 1e-9:
            failures.append(f"commutator reconstruction defect {defect:.2e} at N={n}")
    _report(4, "structure-constant commutators (N=3,5,7, all pairs)", failures, started, 60.0)


def test_c05_wigner_maps():
    failures = []
    rng = np.random.default_rng(505)
    for n in range(2, 17):
        for _ in range(3):
            rho = random_density(n, rng)
            wm = wigner_map(rho)
            if abs(wm.total - 1.0) > 1e-10:
                failures.append(f"normalization defect at N={n}")
            f = Kinematics(n).F
            momentum_probs = np.einsum("im,ij,jm->m", f.conj(), rho, f).real
            if np.max(np.abs(wm.values.sum(axis=1) - momentum_probs)) > 1e-10:
                failures.append(f"momentum marginal defect at N={n}")
            if np.max(np.abs(wm.values.sum(axis=0) - np.diag(rho).real)) > 1e-10:
                failures.append(f"position marginal defect at N={n}")
    psi = normalize(np.array([1.0, 1.0, 0.0]))
    wm = wigner_map(np.outer(psi, psi.conj()))
    if not wm.min_value < -1e-6:
        failures.append("no negativity witness at N=3")
    _report(5, "Wigner normalization, marginals (documented orientation), negativity", failures)


def test_c06_finite_coherent_states():
    failures = []
    for n in range(1, 33):
        ref = reference_state(n)
        if np.max(np.abs(Kinematics(n).F @ ref - ref)) > 1e-10:
            failures.append(f"reference state not F-invariant at N={n}")
    for n in range(2, 13, 2):
        witness = abs(coherent_overlap(n, 0, 0, 1, n // 2))
        if witness > 1e-10:
            failures.append(f"missing orthogonal pair at even N={n}")
    for n in range(3, 14, 2):
        family = CoherentFamily(n)
        gram = np.abs(family.gram())
        off = gram[~np.eye(n * n, dtype=bool)]
        if off.min() <= 1e-6:
            failures.append(f"unexpected orthogonal pair at odd N={n}")
    for n in (3, 4, 5):
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        direct = coherent_overlap(n, p, q, r, s)
                        closed = coherent_overlap_closed(n, p, q, r, s)
                        if abs(direct - closed) > 1e-12:
                            failures.append(
                                f"overlap closed form defect at N={n} {(p, q, r, s)}"
                            )
    _report(6, "finite coherent states: F-invariance, parity witnesses, overlaps", failures)


def test_c07_truncated_fock():
    failures = []
    space = FockSpace(64)
    interior = slice(0, 63)
    comm_qp = space.q @ space.p - space.p @ space.q
    if np.max(np.abs((comm_qp - 1j * np.eye(64))[interior, interior])) > 1e-12:
        failures.append("[Q,P] interior defect")
    sl2 = (
        (space.h0, space.g, 2j * space.k),
        (space.g, space.k, -2j * space.h0),
        (space.k, space.h0, 2j * space.g),
    )
    block = slice(0, 62)
    for left, right, target in sl2:
        comm = left @ right - right @ left
        if np.max(np.abs((comm - target)[block, block])) > 1e-12:
            failures.append("sl(2) closure defect")
    for z in (0.5, 1 + 1j, 2.0, 3 * np.exp(1j * np.pi / 4), 3.0):
        ket = space.coherent(z)
        if abs(expectation(space.num, ket).real - abs(z) ** 2) > 1e-6:
            failures.append(f"<N> != |z|^2 at z={z}")
        for theta in (0.3, np.pi / 2, 2.0):
            rotated = space.rotation(theta) @ ket
            fidelity = abs(space.coherent(np.exp(1j * theta) * z).conj() @ rotated)
            if fidelity < 1 - 1e-6:
                failures.append(f"rotation fidelity {fidelity:.8f} at z={z}")
    _report(7, "truncated Fock: interior identities, rotations, coherent moments", failures)


def test_c08_weak_measurement_first_order():
    started = time.perf_counter()
    failures = []
    space = FockSpace(64)
    generators = {
        "q": space.q,
        "p": space.p,
        "n": space.num,
        "h0": space.h0,
        "g": space.g,
        "k": space.k,
    }
    eps = 1e-3
    readouts = (space.q, space.p)

    def build(system_dim, seed, gen_key, pointer):
        rng = np.random.default_rng(seed)
        return WeakConfig(
            pre=random_ket(system_dim, rng),
            post=random_ket(system_dim, rng),
            obs=random_hermitian(system_dim, rng),
            pointer_gen=generators[gen_key],
            pointer=pointer,
            eps=eps,
        )

    for system_dim, seed in ((2, 11), (3, 12)):
        for gen_key in generators:
            # generic pointer: quadratic residual, halving ratio ~1/4
            cfg = build(system_dim, seed, gen_key, space.coherent(0.8 + 0.6j))
            for readout in readouts:
                full = shift_residual(cfg, readout)
                half = shift_residual(cfg.with_eps(eps / 2), readout)
                if full < 1e-13:
                    failures.append(
                        f"degenerate coherent residual ({system_dim}-level, R={gen_key})"
                    )
                    continue
                ratio = half / full
                if not (0.15 <= ratio <= 0.35):
                    failures.append(
                        f"coherent halving ratio {ratio:.3f} outside [0.15,0.35] "
                        f"({system_dim}-level, R={gen_key})"
                    )
            # vacuum pointer: the formula must never degrade below the
            # quadratic contract; parity makes it exact or cubic here
            # (degenerate cases recorded in the decisions ledger).
            cfg = build(system_dim, seed, gen_key, space.vacuum())
            for readout in readouts:
                full = shift_residual(cfg, readout)
                if full < 1e-12:
                    continue  # prediction exact: nothing left to halve
                ratio = shift_residual(cfg.with_eps(eps / 2), readout) / full
                if ratio > 0.35:
                    failures.append(
                        f"vacuum halving ratio {ratio:.3f} above 0.35 "
                        f"({system_dim}-level, R={gen_key})"
                    )

    # momentum-coupled vacuum specialization: dQ = eps*Re(Ow), dP = eps*Im(Ow)
    cfg = build(2, 35, "p", space.vacuum())
    ow = weak_value(cfg)
    if abs(measured_shift(cfg, space.q) - eps * ow.real) > 1e-8:
        failures.append("vacuum dQ specialization defect")
    if abs(measured_shift(cfg, space.p) - eps * ow.imag) > 1e-8:
        failures.append("vacuum dP specialization defect")

    # coherent/number specialization: lowering-operator shift -i*eps*z*Ow
    z = 0.8 + 0.6j
    cfg = build(2, 41, "n", space.coherent(z))
    exact = annihilator_shift(cfg, space.a)
    approx = annihilator_shift_prediction(cfg, z)
    if abs(exact - approx) > 1e-2 * abs(approx):
        failures.append("lowering-operator shift defect")

    # quarter-turn amplitude: dQ/dP split with sqrt(2)|z| gain
    z = 2j
    cfg = build(2, 44, "n", space.coherent(z))
    ow = weak_value(cfg)
    scale = eps * np.sqrt(2) * abs(z)
    if abs(measured_shift(cfg, space.q) - scale * ow.real) > 1e-5:
        failures.append("quarter-turn dQ defect")
    if abs(measured_shift(cfg, space.p) - scale * ow.imag) > 1e-5:
        failures.append("quarter-turn dP defect")

    _report(
        8,
        "weak-measurement first-order suite (6 generators x {2,3}-level)",
        failures,
        started,
        120.0,
    )


def test_c09_geometric_suite():
    failures = []
    rng = np.random.default_rng(909)
    for _ in range(100):
        x, y, z = (random_ket(3, rng) for _ in range(3))
        base = pancharatnam_phase(x, y, z)
        rephased = pancharatnam_phase(
            np.exp(1j * rng.uniform(0, 2 * np.pi)) * x,
            np.exp(1j * rng.uniform(0, 2 * np.pi)) * y,
            z,
        )
        if abs(base - rephased) > 1e-10:
            failures.append("rephasing variance detected")
            break
        if abs(base + pancharatnam_phase(y, x, z)) > 1e-10:
            failures.append("antisymmetry defect")
            break
    eps, dy = 1e-2, 1e-3
    for _ in range(20):
        pre = random_ket(2, rng)
        post = random_ket(2, rng)
        obs = random_hermitian(2, rng)
        a1 = unitary_exp(obs, eps * dy) @ pre
        theta = pancharatnam_phase(post, pre, a1)
        ow = (post.conj() @ obs @ pre) / (post.conj() @ pre)
        formula = -eps * (ow.real - expectation(obs, pre).real) * dy
        if abs(theta - formula) > 0.05 * abs(formula):
            failures.append(f"triangle phase formula off by >5%: {theta} vs {formula}")
            break
    h = random_hermitian(4, rng)
    psi = random_ket(4, rng)
    errors = []
    for dt in (1e-2, 5e-3):
        speed, delta_e = fs_speed_check(h, psi, dt)
        errors.append(abs(speed - delta_e))
    if not errors[1] / errors[0] < 0.6:
        failures.append("ray-speed finite difference not first-order convergent")
    _report(9, "geometric suite: triangle phases + ray-speed convergence", failures)


def test_c10_modular_suite():
    failures = []
    for na in range(1, 37):
        for nb in range(1, 37):
            if na * nb > 36 or np.gcd(na, nb) != 1:
                continue
            perm = crt_permutation(na, nb)
            v_big = Kinematics(na * nb).V
            v_pair = tensor(Kinematics(na).V, Kinematics(nb).V)
            if np.max(np.abs(perm @ v_big @ perm.T - v_pair)) > 1e-12:
                failures.append(f"intertwining defect at ({na},{nb})")
    for na, nb in ((2, 3), (3, 5)):
        shift_a = tensor(Kinematics(na).V, np.eye(nb))
        clock_b = tensor(np.eye(na), Kinematics(nb).U)
        for j in range(na):
            for sigma in range(nb):
                state = az_state(na, nb, j, sigma)
                lhs = shift_a @ state.tensor
                if np.max(np.abs(lhs - np.exp(1j * state.shift_phase) * state.tensor)) > 1e-10:
                    failures.append(f"shift eigencondition defect ({na},{nb},{j},{sigma})")
                lhs = clock_b @ state.tensor
                if np.max(np.abs(lhs - np.exp(1j * state.clock_phase) * state.tensor)) > 1e-10:
                    failures.append(f"clock eigencondition defect ({na},{nb},{j},{sigma})")
    rng = np.random.default_rng(1010)
    for n, periods in ((6, (2, 3)), (15, (3, 5))):
        for trial in range(20):
            period = periods[trial % len(periods)]
            samples = rng.uniform(-np.pi, np.pi, size=period)
            amps = momentum_amplitudes(nslit_evolve(n, samples))
            support = np.flatnonzero(np.abs(amps) > 1e-12)
            stride = n // period
            if support.size == 0 or np.any(support % stride != 0):
                failures.append(f"support theorem defect at N={n}, period={period}")
    _report(10, "modular suite: CRT intertwining, lattice states, slit comb", failures)


def test_c11_cli_determinism(tmp_path):
    failures = []
    weak_cfg = tmp_path / "weak.cfg"
    weak_cfg.write_text(
        "system_dim = 2\npre = random\npost = random\nobs = sz\n"
        "eps = 1e-3\nseed = 6\n"
    )
    commands = (
        ["wigner", "--n", "3", "--state", "random", "--seed", "4"],
        ["gauss-trace", "1", "12"],
        ["weak", "--config", str(weak_cfg)],
        ["az", "3", "5", "1", "2"],
        ["nslit", "--n", "6", "--potential", "random", "--period", "3", "--seed", "2"],
        ["structure-constants", "--n", "5"],
        ["coherent-gram", "--n", "3"],
    )
    for argv in commands:
        outputs = []
        for run in (0, 1):
            target = tmp_path / f"{argv[0]}-{run}.json"
            code = cli_main(argv + ["--out", str(target)])
            if code != 0:
                failures.append(f"{argv[0]} exited {code}")
                break
            outputs.append(target.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append(f"{argv[0]} output not reproducible")
    golden_cases = (
        (["wigner", "--n", "2", "--state", "u0"], "wigner_n2_u0.json"),
        (["gauss-trace", "1", "9"], "gauss_trace_1_9.json"),
        (["az", "2", "3", "1", "2"], "az_2_3_1_2.json"),
    )
    for argv, name in golden_cases:
        target = tmp_path / name
        code = cli_main(argv + ["--out", str(target)])
        if code != 0:
            failures.append(f"golden rerun {name} exited {code}")
            continue
        if target.read_bytes() != (GOLDEN / name).read_bytes():
            failures.append(f"golden drift in {name}")
    _report(11, "CLI determinism and golden outputs", failures)
