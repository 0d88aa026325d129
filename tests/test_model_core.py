"""Weyl pairs, Lax and monodromy structure, exchange relations, grading
charge, quantum determinant and average values."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from sgsov.cli import load_config
from sgsov.params import ModelParams, OddChain
from sgsov import model_core as mc
from sgsov.sov_basis import b_zeros

from conftest import cfg_a_params, cfg_b_params, n1_params


def test_weyl_pair_p3():
    q = np.exp(-2j * np.pi / 3)
    U, V = mc.weyl_generators(3)
    assert np.allclose(V, np.diag([1, q, q ** 2]))
    assert np.allclose(U @ V - q * V @ U, 0.0, atol=1e-15)
    assert np.allclose(np.linalg.matrix_power(U, 3), np.eye(3), atol=1e-15)
    assert np.allclose(np.linalg.matrix_power(V, 3), np.eye(3), atol=1e-15)


def test_weyl_pair_p5():
    q = np.exp(-2j * np.pi / 5)
    U, V = mc.weyl_generators(5)
    assert np.linalg.norm(U @ V - q * V @ U) <= 1e-14


def test_weyl_central_powers_with_phases():
    u, v = np.exp(0.3j), np.exp(-0.7j)
    U, V = mc.weyl_generators(3, u, v)
    assert np.allclose(np.linalg.matrix_power(U, 3), u ** 3 * np.eye(3))
    assert np.allclose(np.linalg.matrix_power(V, 3), v ** 3 * np.eye(3))


def test_site_embed_disjoint_slots_commute():
    params = cfg_b_params()
    U, V = mc.weyl_generators(3)
    A = mc.site_embed(params, 1, V)
    B = mc.site_embed(params, 2, U)
    assert np.linalg.norm(A @ B - B @ A) == 0.0


def test_site_embed_single_site_is_identity_embedding():
    params = n1_params()
    X = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.array_equal(mc.site_embed(params, 1, X), X)


def test_site_embed_cyclic_power():
    params = cfg_a_params()
    U, _ = mc.weyl_generators(3)
    E = mc.site_embed(params, 2, U)
    assert np.linalg.norm(np.linalg.matrix_power(E, 3) - np.eye(27)) <= 1e-14


def test_site_embed_out_of_range():
    params = cfg_b_params()
    with pytest.raises(IndexError):
        mc.site_embed(params, 3, np.eye(3))


def test_lax_diagonal_entries_spectral_independent():
    params = n1_params()
    L = mc.lax_matrix(params, 1)
    assert L[0][0].degrees == [0]
    assert L[1][1].degrees == [0]
    assert sorted(L[0][1].degrees) == [-1, 1]
    # analytic value of the upper-left entry for a single site
    kap = params.kappa[0]
    sq = params.sqrt_q
    U, V = mc.weyl_generators(3)
    expect = kap * U @ (kap / sq * V + sq / kap * np.linalg.inv(V))
    assert mc.rel_err(L[0][0].evaluate(0.37 + 0.11j), expect) <= 1e-14


def _lax_projector_factorization(params: ModelParams, n: int, sign: str):
    """Rank-one factorization of the Lax matrix at a quantum-determinant zero.

    Returns (P, Q, const) with P a column pair and Q a row pair of dense
    operators such that L_n(mu_{n,sign}) = const * P_i Q_j entrywise.  The
    half-shift is realized as the (p+1)/2 power of the cyclic shift, which
    conjugates the clock by (-1)^{p'/2} sqrt(q); the resulting parity
    constant is (-1)^{p'/2}."""
    if sign not in "+-":
        raise ValueError("sign must be '+' or '-'")
    p = params.p
    kap = params.kappa[n - 1]
    U, V = mc.weyl_generators(p, params.u[n - 1], params.v[n - 1], params.p_prime)
    half = np.linalg.matrix_power(U, (p + 1) // 2)
    Ue = mc.site_embed(params, n, half)
    Uei = np.linalg.inv(Ue)
    Ve = mc.site_embed(params, n, V)
    Vei = np.linalg.inv(Ve)
    if sign == "+":
        P = [kap * Ue @ (Ve * kap + Vei / kap), kap * Uei @ (Ve / kap + Vei * kap)]
        Q = [Ue, Uei]
    else:
        P = [kap * Ue, kap * Uei]
        Q = [(Ve * kap + Vei / kap) @ Ue, (Ve / kap + Vei * kap) @ Uei]
    const = (-1.0) ** (params.p_prime // 2)
    return P, Q, const


@pytest.mark.parametrize("sign", ["+", "-"])
def test_lax_projector_factorization(sign):
    params = cfg_a_params()
    for n in (1, 2, 3):
        L = mc.lax_matrix(params, n)
        mu = params.mu_plus[n - 1] if sign == "+" else params.mu_minus[n - 1]
        P, Q, const = _lax_projector_factorization(params, n, sign)
        for i in range(2):
            for j in range(2):
                tgt = L[i][j].evaluate(mu)
                assert mc.rel_err(tgt, const * P[i] @ Q[j],
                                  scale=max(mc.frob(tgt), 1e-300)) <= 1e-10
        # rank-one content, stated without any square-root realization
        Lmu = [[L[i][j].evaluate(mu) for j in range(2)] for i in range(2)]
        schur = Lmu[1][1] - Lmu[1][0] @ np.linalg.inv(Lmu[0][0]) @ Lmu[0][1]
        assert mc.frob(schur) <= 1e-10 * mc.frob(Lmu[1][1])


def test_monodromy_single_site_equals_lax():
    params = n1_params()
    mono = mc.monodromy(params)
    L = mc.lax_matrix(params, 1)
    for entry, (i, j) in (("A", (0, 0)), ("B", (0, 1)), ("C", (1, 0)), ("D", (1, 1))):
        lam = 0.8 + 0.2j
        assert mc.rel_err(mono.entry(entry).evaluate(lam), L[i][j].evaluate(lam)) <= 1e-15


def test_monodromy_evaluation_matches_lax_product(cfg_a):
    params, mono = cfg_a.params, cfg_a.mono
    rng = cfg_a.rng(101)
    laxes = [mc.lax_matrix(params, n) for n in range(1, params.n_sites + 1)]
    for lam in params.spectral_samples(rng, 5):
        prod = [[laxes[-1][i][j].evaluate(lam) for j in range(2)] for i in range(2)]
        for L in reversed(laxes[:-1]):
            Lm = [[L[i][j].evaluate(lam) for j in range(2)] for i in range(2)]
            prod = [[prod[i][0] @ Lm[0][j] + prod[i][1] @ Lm[1][j]
                     for j in range(2)] for i in range(2)]
        M = mono.evaluate(lam)
        scale = np.sqrt(np.sum(np.abs(M) ** 2))
        err = np.sqrt(sum(np.linalg.norm(M[i][j] - prod[i][j]) ** 2
                          for i in range(2) for j in range(2)))
        assert err <= 1e-10 * scale


ROOT = Path(__file__).resolve().parent.parent
KRON_CHAINS = [ROOT / "configs" / f"{name}.json"
               for name in ("n1", "cfg_b", "cfg_a", "hom3", "stretch_p5")] \
    + [ROOT / "perfbench" / "configs" / "dense_wall_even.json", "N5p3"]


def _kron_chain(path):
    if path == "N5p3":
        # dense_wall_even at p=3 with a fifth site
        return ModelParams(5, 3, 2, kappa=[1.1j, 1.3j, 0.7j, 0.9j, 1.2j],
                           xi=[1.0, 1.2, 0.9, 1.1, 0.8])
    return load_config(str(path))[0]


def _dense_product(params, site_order):
    """The monodromy as the ordered product of the embedded Lax matrices,
    by coefficient convolution of dense d x d matrices, left to right."""
    def mul(X, Y):
        out = {}
        for d1, c1 in X.items():
            for d2, c2 in Y.items():
                out[d1 + d2] = out[d1 + d2] + c1 @ c2 if d1 + d2 in out else c1 @ c2
        return out

    def add(X, Y):
        out = dict(X)
        for dg, c in Y.items():
            out[dg] = out[dg] + c if dg in out else c
        return out

    def lax(n):
        return [[entry.coeffs for entry in row] for row in mc.lax_matrix(params, n)]

    M = lax(site_order[0])
    for n in site_order[1:]:
        L = lax(n)
        M = [[add(mul(M[i][0], L[0][j]), mul(M[i][1], L[1][j])) for j in range(2)]
             for i in range(2)]
    return {"ABCD"[2 * i + j]: {dg: c for dg, c in M[i][j].items() if np.any(c)}
            for i in range(2) for j in range(2)}


@pytest.mark.parametrize("path", KRON_CHAINS, ids=lambda p: getattr(p, "stem", p))
def test_kronecker_monodromy_equals_dense_product(path):
    params = _kron_chain(path)
    N = params.n_sites
    for n in range(1, N + 1):
        # the factor order of the site-n frame; n = 1 is the default order
        order = list(range(n - 1, 0, -1)) + list(range(N, n - 1, -1))
        got = mc.monodromy(params, site_order=None if n == 1 else order)
        ref = _dense_product(params, order)
        for e in "ABCD":
            coeffs = got.entry(e).coeffs
            assert sorted(coeffs) == sorted(ref[e])
            for dg, c in ref[e].items():
                assert np.linalg.norm(coeffs[dg] - c) <= 1e-14 * np.linalg.norm(c)


def test_monodromy_builds_no_embedded_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("site_embed called")
    monkeypatch.setattr(mc, "site_embed", refuse)
    for params in (n1_params(), cfg_b_params(), cfg_a_params()):
        for n in range(1, params.n_sites + 1):
            order = list(range(n - 1, 0, -1)) + list(range(params.n_sites, n - 1, -1))
            mc.monodromy(params, site_order=order)


def test_yang_baxter_relation(cfg_a, cfg_b):
    for bundle in (cfg_a, cfg_b):
        rng = bundle.rng(102)
        for _ in range(5):
            lam, mu = bundle.params.spectral_samples(rng, 2)
            assert mc.yang_baxter_residual(bundle.params, lam, mu, bundle.mono) <= 1e-10


def _lifted_residual(params, lam, mu, mono):
    """The exchange relation with both monodromies lifted entry by entry to
    the 4-dim doubled auxiliary space."""
    d = params.dim
    lifts = []
    for T, slot in ((mono.evaluate(lam), 0), (mono.evaluate(mu), 1)):
        M = np.zeros((4, 4, d, d), dtype=complex)
        for a, b, c, e in np.ndindex(2, 2, 2, 2):
            if slot == 0 and b == e:
                M[a * 2 + b, c * 2 + e] = T[a, c]
            elif slot == 1 and a == c:
                M[a * 2 + b, c * 2 + e] = T[b, e]
        lifts.append(M)
    M1, M2 = lifts
    R = mc.rmatrix(lam / mu, params.q)
    lhs = np.einsum("ab,bcij->acij", R, np.einsum("abij,bcjk->acik", M1, M2))
    rhs = np.einsum("abij,bc->acij", np.einsum("abij,bcjk->acik", M2, M1), R)
    return mc.frob(lhs - rhs) / (mc.frob(R) * mc.frob(M1) * mc.frob(M2))


def test_yang_baxter_residual_detects_a_broken_relation(cfg_b):
    # doubling B breaks the relations that are not homogeneous in B; the
    # block products must then reproduce the lifted residual
    mono = cfg_b.mono
    broken = dataclasses.replace(mono, B=mono.B * 2.0)
    lam, mu = cfg_b.params.spectral_samples(cfg_b.rng(103), 2)
    res = mc.yang_baxter_residual(cfg_b.params, lam, mu, broken)
    assert res > 1e-3
    assert abs(res - _lifted_residual(cfg_b.params, lam, mu, broken)) <= 1e-12 * res


def _block_residual(params, lam, mu, mono):
    """The exchange relation one block product at a time:
    sum R[(a,b),(a',b')] Tl[a',c] Tm[b',e] against
    sum Tm[b,e'] Tl[a,c'] R[(c',e'),(c,e)], relative to the same scale as
    ``yang_baxter_residual``."""
    Tl, Tm = mono.evaluate(lam), mono.evaluate(mu)
    R = mc.rmatrix(lam / mu, params.q)
    err2 = 0.0
    for a, b, c, e in np.ndindex(2, 2, 2, 2):
        lhs = sum(R[2 * a + b, 2 * a2 + b2] * (Tl[a2, c] @ Tm[b2, e])
                  for a2, b2 in np.ndindex(2, 2))
        rhs = sum((Tm[b, e2] @ Tl[a, c2]) * R[2 * c2 + e2, 2 * c + e]
                  for c2, e2 in np.ndindex(2, 2))
        err2 += np.linalg.norm(lhs - rhs) ** 2
    return np.sqrt(err2) / (2.0 * mc.frob(R) * mc.frob(Tl) * mc.frob(Tm))


@pytest.mark.parametrize("chain", ["cfg_b", "hom3"])
def test_yang_baxter_residual_equals_block_reference(chain, request):
    sol = request.getfixturevalue(chain)
    params, mono = sol.params, sol.mono
    broken = dataclasses.replace(mono, B=mono.B * 2.0)
    rng = sol.rng(104)
    for _ in range(3):
        lam, mu = params.spectral_samples(rng, 2)
        # both are relative to the same scale: they agree to 1e-12 of it, and
        # on a broken relation to 1e-12 of the residual itself
        ref = _block_residual(params, lam, mu, mono)
        assert ref <= 1e-10
        assert abs(mc.yang_baxter_residual(params, lam, mu, mono) - ref) <= 1e-12
        ref = _block_residual(params, lam, mu, broken)
        assert ref > 1e-3
        assert abs(mc.yang_baxter_residual(params, lam, mu, broken) - ref) <= 1e-12 * ref


def test_parity_and_degree_structure(desk_bundles):
    for bundle in desk_bundles.values():
        params, mono = bundle.params, bundle.mono
        for name in ("A", "D"):
            degs = mono.entry(name).degrees
            assert all(d % 2 == 0 for d in degs)
            assert max(abs(d) for d in degs) == params.n_bar
        for name in ("B", "C"):
            degs = mono.entry(name).degrees
            assert all(d % 2 == 1 for d in degs)
            assert max(abs(d) for d in degs) == params.n_separate


def test_transfer_family_commutes(desk_bundles):
    for bundle in desk_bundles.values():
        rng = bundle.rng(103)
        l1, l2 = bundle.params.spectral_samples(rng, 2)
        T1 = mc.transfer(bundle.mono, l1)
        T2 = mc.transfer(bundle.mono, l2)
        assert mc.frob(T1 @ T2 - T2 @ T1) <= 1e-10 * mc.frob(T1) * mc.frob(T2)


def test_transfer_single_site_is_spectral_constant(n1):
    A, D = n1.mono.A, n1.mono.D
    degrees = sorted(set(A.degrees) | set(D.degrees))
    assert [g for g in degrees if np.any(A.coeff(g) + D.coeff(g))] == [0]


def test_transfer_selfadjoint_on_real_line(cfg_a):
    assert cfg_a.params.self_adjoint
    T = mc.transfer(cfg_a.mono, 1.37)
    assert mc.frob(T - T.conj().T) <= 1e-10 * mc.frob(T)


def test_hermitian_conjugation_table(cfg_a):
    params, mono = cfg_a.params, cfg_a.mono
    eps = params.hermitian_eps
    lam = 0.9 + 0.4j
    pairs = [("A", "D", np.conj(lam)), ("D", "A", np.conj(lam)),
             ("B", "C", eps * np.conj(lam)), ("C", "B", eps * np.conj(lam))]
    for x, y, ly in pairs:
        X = mono.entry(x).evaluate(lam).conj().T
        Y = mono.entry(y).evaluate(ly)
        assert mc.rel_err(X, Y) <= 1e-10


def test_theta_charge_commutations(cfg_b):
    params, mono = cfg_b.params, cfg_b.mono
    theta = mc.theta_charge(params)
    lam = 0.7 + 0.2j
    B = mono.B.evaluate(lam)
    C = mono.C.evaluate(lam)
    A = mono.A.evaluate(lam)
    D = mono.D.evaluate(lam)
    nt = mc.frob(theta)
    q = params.q
    assert mc.frob(B @ theta - q * theta @ B) <= 1e-10 * mc.frob(B) * nt
    assert mc.frob(theta @ C - q * C @ theta) <= 1e-10 * mc.frob(C) * nt
    assert mc.frob(A @ theta - theta @ A) <= 1e-10 * mc.frob(A) * nt
    assert mc.frob(D @ theta - theta @ D) <= 1e-10 * mc.frob(D) * nt


def test_theta_eigenvalues_are_charge_phases(cfg_b):
    params = cfg_b.params
    theta = mc.theta_charge(params)
    diag = np.diag(theta)
    phases = params.q ** np.arange(params.p)
    assert np.max(np.min(np.abs(diag[:, None] - phases[None, :]), axis=1)) <= 1e-12
    assert mc.frob(np.linalg.matrix_power(theta, params.p) - np.eye(params.dim)) <= 1e-10


def test_theta_requires_even_chain():
    with pytest.raises(OddChain):
        mc.theta_charge(n1_params())


def test_theta_asymptotic_coefficients(cfg_b):
    params, mono = cfg_b.params, cfg_b.mono
    theta = mc.theta_charge(params)
    pref_lead = np.prod(np.asarray(params.kappa) / (1j * np.asarray(params.xi)))
    pref_trail = np.prod(np.asarray(params.kappa) * np.asarray(params.xi) / 1j)
    N = params.n_sites
    assert mc.rel_err(mono.A.coeff(N), pref_lead * theta) <= 1e-10
    assert mc.rel_err(mono.A.coeff(-N), pref_trail * np.linalg.inv(theta)) <= 1e-10
    assert mc.rel_err(mono.D.coeff(N), pref_lead * np.linalg.inv(theta)) <= 1e-10
    assert mc.rel_err(mono.D.coeff(-N), pref_trail * theta) <= 1e-10
    assert mc.rel_err(mono.A.coeff(N) + mono.D.coeff(N),
                      pref_lead * (theta + np.linalg.inv(theta))) <= 1e-10


def test_quantum_determinant_operator_identity(desk_bundles):
    for bundle in desk_bundles.values():
        params, mono = bundle.params, bundle.mono
        rng = bundle.rng(104)
        for lam in params.spectral_samples(rng, 3):
            AD = mono.A.evaluate(lam) @ mono.D.evaluate(lam / params.q) \
                - mono.B.evaluate(lam) @ mono.C.evaluate(lam / params.q)
            qd = mc.quantum_determinant(params, lam)
            assert mc.frob(AD - qd * np.eye(params.dim)) <= 1e-10 * mc.frob(AD)


def test_quantum_determinant_product_form_sign(desk_bundles):
    # the factorized product over the determinant zeros carries (-1)^N
    # relative to the operator-true scalar a(lam) d(lam/q)
    for bundle in desk_bundles.values():
        params = bundle.params
        lam = 0.9 + 0.1j
        qd = mc.quantum_determinant(params, lam)
        prod = mc.quantum_determinant_product(params, lam)
        assert abs(qd - (-1.0) ** params.n_sites * prod) <= 1e-12 * abs(qd)


def test_quantum_determinant_vanishes_at_zeros():
    params = cfg_a_params()
    for mu in np.concatenate([params.mu_plus, params.mu_minus]):
        assert abs(mc.quantum_determinant(params, mu)) <= \
            1e-12 * abs(mc.quantum_determinant(params, 1.1 * mu))


def test_gauge_coefficient_relations():
    params = cfg_a_params()
    lam = 1.3 - 0.2j
    q = params.q
    assert abs(mc.d_coeff(params, lam)
               - q ** params.n_sites * mc.a_coeff(params, -lam * q)) <= 1e-12
    assert abs(mc.quantum_determinant(params, lam)
               - mc.dbar_coeff(params, lam) * mc.abar_coeff(params, lam / q)) \
        <= 1e-12 * abs(mc.quantum_determinant(params, lam))


def test_lower_row_from_determinant_relation(cfg_b):
    # the lower-left generator is fixed by the determinant once the rest is known
    params, mono = cfg_b.params, cfg_b.mono
    lam = 1.1 + 0.3j
    q = params.q
    C_pred = np.linalg.solve(
        mono.B.evaluate(lam),
        mono.A.evaluate(lam) @ mono.D.evaluate(lam / q)
        - mc.quantum_determinant(params, lam) * np.eye(params.dim))
    assert mc.rel_err(C_pred, mono.C.evaluate(lam / q)) <= 1e-9


def test_average_values_two_routes(desk_bundles):
    for bundle in desk_bundles.values():
        params, mono = bundle.params, bundle.mono
        lam = bundle.params.spectral_samples(bundle.rng(105), 1)[0]
        for entry in "ABCD":
            dense, dev = mc.average_value_dense(params, entry, lam, mono)
            assert dev <= 1e-9 * abs(dense) * np.sqrt(params.dim)
            lax_route = mc.average_value(params, entry, lam ** params.p)
            assert abs(dense - lax_route) <= 1e-9 * abs(dense)


def test_average_B_equals_C_for_unit_phases(desk_bundles):
    for bundle in desk_bundles.values():
        big = 1.7 - 0.4j
        b_avg = mc.average_value(bundle.params, "B", big)
        c_avg = mc.average_value(bundle.params, "C", big)
        assert abs(b_avg - c_avg) <= 1e-10 * abs(b_avg)


def test_average_conjugation_for_selfadjoint_family(cfg_a):
    big = 0.8 + 0.6j
    lhs = np.conj(mc.average_value(cfg_a.params, "A", big))
    rhs = mc.average_value(cfg_a.params, "D", np.conj(big))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_average_commutes_with_generators(cfg_b):
    params, mono = cfg_b.params, cfg_b.mono
    lam, mu = params.spectral_samples(cfg_b.rng(106), 2)
    prod = np.eye(params.dim, dtype=complex)
    for k in range(1, params.p + 1):
        prod = prod @ mono.B.evaluate(params.q ** k * lam)
    for name in "ABCD":
        X = mono.entry(name).evaluate(mu)
        assert mc.frob(prod @ X - X @ prod) <= 1e-9 * mc.frob(prod) * mc.frob(X)


SHIPPED = KRON_CHAINS[:5]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_a_laurent_equals_the_pointwise_shift_coefficients(path):
    params = load_config(str(path))[0]
    N, q = params.n_sites, params.q
    k = np.arange(-N, N + 1)
    a = mc.a_laurent(params)
    lam = np.array([0.7 + 0.3j, 1.4 - 0.6j, -0.5 + 1.1j, 0.2 - 1.9j])
    for coeffs, pointwise in ((a, mc.a_coeff), (q ** N * (-q) ** k * a, mc.d_coeff)):
        ref = pointwise(params, lam)
        assert np.max(np.abs(lam[:, None] ** k @ coeffs - ref) / np.abs(ref)) <= 1e-13


def _average_lax_at(params, n, big):
    """The p-fold averages of the site-n Lax entries at Lambda, written out."""
    p = params.p
    kap, xi, u, v = (x[n - 1] ** p for x in (params.kappa, params.xi, params.u, params.v))
    s, ip = params.sqrt_q ** p, 1j ** p
    return np.array([[s * u * (kap ** 2 * v + 1 / v), kap * (big * v / xi - xi / (big * v)) / ip],
                     [kap * (big / (v * xi) - xi * v / big) / ip, s / u * (kap ** 2 / v + v)]])


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_average_monodromy_is_the_product_of_the_site_averages(path):
    params = load_config(str(path))[0]
    for big in (0.8 + 0.6j, 1.7 - 0.4j, -2.2 + 0.3j, 0.4j):
        ref = np.eye(2)
        for n in range(params.n_sites, 0, -1):
            ref = ref @ _average_lax_at(params, n, big)
        assert mc.rel_err(mc.average_monodromy(params, big), ref) <= 1e-13


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(2, 4, 2, kappa=[1j, 1j], xi=[1, 1])
    with pytest.raises(ValueError):
        ModelParams(2, 3, 3, kappa=[1j, 1j], xi=[1, 1])
    with pytest.raises(ValueError):
        ModelParams(2, 3, 2, kappa=[1j], xi=[1, 1])
    with pytest.raises(ValueError):
        ModelParams(1, 3, 2, kappa=[1j], xi=[1.0], u=[1.3])
    # p' sharing a factor with p breaks primitivity
    with pytest.raises(ValueError):
        ModelParams(1, 3, 6, kappa=[1j], xi=[1.0])


@pytest.mark.parametrize("make", [cfg_b_params, cfg_a_params])   # even; odd
def test_average_monodromy_laurent_is_built_once_per_chain(make):
    params = make()
    mc.average_monodromy_laurent.cache_clear()
    first_zeros = b_zeros(params)            # builds the coefficients
    coeffs = mc.average_monodromy_laurent(params)
    assert mc.average_monodromy_laurent(params) is coeffs
    with pytest.raises(ValueError):
        coeffs[0, 0, 0] = 1.0
    # the cached table gives the values of a fresh build
    fresh = mc.average_monodromy_laurent.__wrapped__(params)
    assert np.array_equal(coeffs, fresh)
    zeros = b_zeros(params)
    assert np.array_equal(zeros.z, first_zeros.z)
    assert np.array_equal(zeros.eta0, first_zeros.eta0)
    powers = (0.9 + 0.4j) ** np.arange(-params.n_sites, params.n_sites + 1)
    for k, entry in enumerate("ABCD"):
        assert mc.average_value(params, entry, 0.9 + 0.4j) \
            == complex(np.tensordot(powers, fresh, axes=1)[divmod(k, 2)])
