"""Independent numerical routes used to cross-check library results.

Everything here deliberately avoids the code paths under test: singular
values come from characteristic-polynomial roots, t-distribution tails from
an incomplete-beta quadrature, and the 2x2 SVD from closed-form algebra.
``expectation_from_model`` takes a model's expectation from its operator,
the route that checks the one through its outcome probabilities.
``_random_product_pair`` and ``_random_quartet`` draw one trial of
verify-paper's seeded suites at a time, from ``_unit``, ``_unitary2`` and
``_product_family``: the sequential draws that the suites' stacks must
reproduce trial by trial.
``levenberg_gather_scatter`` is the state search's Levenberg loop in its
earlier form, which gathers the running starts from full arrays and scatters
the kept steps back on every iteration; ``state_residuals_by_slots`` is its
residual function in its earlier form, which fills zeroed weight and gradient
buffers slot by slot and scatters them into the Jacobian, taking each
table's sides from its experiment key.
"""
from __future__ import annotations

import math

import numpy as np

from bellkit.entanglement import random_isomorphism
from bellkit.fitting import _INITIAL_DAMPING, _MIN_DECREASE, _STALL_ITERATIONS
from bellkit.hilbert import tensor
from bellkit.tables import EXPERIMENT_KEYS
from bellkit.verify import _orthonormal_columns, _unit_rows


def singular_values_by_charpoly(m: np.ndarray) -> np.ndarray:
    """Singular values of ``m`` via eigenvalues of M†M.

    The characteristic polynomial of M†M is built by the Faddeev-LeVerrier
    recurrence and handed to numpy.roots; no SVD or eigensolver on the
    library's route is involved.
    """
    m = np.asarray(m, dtype=complex)
    h = m.conj().T @ m
    n = h.shape[0]
    # Faddeev-LeVerrier: c[0] x^n + c[1] x^(n-1) + ... + c[n]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(h)
    for k in range(1, n + 1):
        mk = h @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(h @ mk) / k
    eigs = np.roots(coeffs)
    eigs = np.clip(eigs.real, 0.0, None)  # M†M is PSD; imaginary parts are noise
    return np.sort(np.sqrt(eigs))[::-1]


def svd2_closed_form(c: np.ndarray) -> np.ndarray:
    """Singular values of a 2x2 complex matrix in closed form."""
    c = np.asarray(c, dtype=complex)
    g = c.conj().T @ c
    tr = g[0, 0].real + g[1, 1].real
    det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    disc = max(tr * tr / 4.0 - det, 0.0)
    lam1 = tr / 2.0 + math.sqrt(disc)
    lam2 = max(tr / 2.0 - math.sqrt(disc), 0.0)
    return np.array([math.sqrt(lam1), math.sqrt(lam2)])


def t_tail_by_incomplete_beta(t: float, df: int, points: int = 200_001) -> float:
    """P(T > t) for Student's t via the regularized incomplete beta function.

    Uses P(T > t) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2) for t >= 0
    and symmetry for t < 0; the incomplete beta integral is evaluated by
    direct Simpson quadrature after the substitution u = s^2 (which removes
    the left-endpoint singularity for the b = 1/2 parameter).
    """
    if t < 0:
        return 1.0 - t_tail_by_incomplete_beta(-t, df, points)
    a = df / 2.0
    b = 0.5
    x = df / (df + t * t)
    # I_x(a, b) = B(x; a, b)/B(a, b);  B(x; a, b) = ∫_0^x s^(a-1)(1-s)^(b-1) ds.
    # Substitute s = x u^2: ds = 2 x u du, s^(a-1) = x^(a-1) u^(2a-2)
    # → integrand 2 x^a u^(2a-1) (1 - x u^2)^(b-1) on u in [0, 1].
    # For b = 1/2 the remaining singularity sits at u = 1 only when x = 1
    # (t = 0), handled exactly below.
    if t == 0.0:
        return 0.5
    u = np.linspace(0.0, 1.0, points)
    integrand = 2.0 * x**a * u ** (2 * a - 1) * (1.0 - x * u * u) ** (b - 1.0)
    h = u[1] - u[0]
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    partial = float(np.dot(w, integrand) * h / 3.0)
    complete = math.exp(
        math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    )
    return partial / complete / 2.0


def eigenprojectors_from_spectrum(op: np.ndarray, eigenvalues) -> dict:
    """Eigenprojectors of a self-adjoint operator with known spectrum.

    Lagrange interpolation on the distinct eigenvalues:
    P_nu = prod_{mu != nu} (op - mu I) / (nu - mu).
    """
    op = np.asarray(op, dtype=complex)
    n = op.shape[0]
    distinct = sorted(set(float(v) for v in eigenvalues))
    projectors = {}
    for nu in distinct:
        p = np.eye(n, dtype=complex)
        for mu in distinct:
            if mu == nu:
                continue
            p = p @ (op - mu * np.eye(n)) / (nu - mu)
        projectors[nu] = p
    return projectors


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-uniform unit vector."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-distributed unitary (Gram-Schmidt of a Ginibre sample)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q = np.zeros_like(z)
    for k in range(dim):
        w = z[:, k]
        for j in range(k):
            w = w - np.vdot(q[:, j], w) * q[:, j]
        q[:, k] = w / np.linalg.norm(w)
    return q


def expectation_from_model(state, model) -> float:
    """<state|operator|state> of a measurement model, from its operator
    rather than its outcome probabilities; the imaginary residue must vanish."""
    psi = np.asarray(getattr(state, "values", state), dtype=complex)
    psi = psi / np.linalg.norm(psi)
    value = complex(np.vdot(psi, model.operator @ psi))
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _unit_rows(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _unitary2(rng: np.random.Generator) -> np.ndarray:
    return _orthonormal_columns(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


def _product_family(inverse: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> list:
    """Pull the product basis ua[:, i] (x) ub[:, j] back through an isomorphism.

    Column 2i + j of kron(ua, ub) is ua[:, i] (x) ub[:, j].
    """
    return list((inverse @ np.kron(ua, ub)).T)


def _random_product_pair(rng: np.random.Generator) -> tuple:
    """(iso, a product family pulled back through iso, a product state pulled
    back likewise), drawn in this order: iso, ua, ub, the two qubit states."""
    iso = random_isomorphism(rng)
    inverse = iso.matrix.conj().T
    family = _product_family(inverse, _unitary2(rng), _unitary2(rng))
    return iso, family, inverse @ tensor(_unit(rng, 2), _unit(rng, 2))


def _random_quartet(rng: np.random.Generator) -> tuple:
    """(iso, four product families pulled back through iso, a state psi), drawn
    in this order: iso, ua, ua', ub, ub', psi."""
    iso = random_isomorphism(rng)
    inverse = iso.matrix.conj().T
    ua, uap, ub, ubp = (_unitary2(rng) for _ in range(4))
    families = {
        "AB": _product_family(inverse, ua, ub),
        "AB'": _product_family(inverse, ua, ubp),
        "A'B": _product_family(inverse, uap, ub),
        "A'B'": _product_family(inverse, uap, ubp),
    }
    return iso, families, _unit(rng, 4)


def levenberg_gather_scatter(residuals, params: np.ndarray, target_misfit: float,
                             max_iterations: int) -> tuple:
    """Minimize |r(p)|^2 from every row of ``params`` (B, P) at once.

    ``residuals(p)`` returns r (B, R) and its Jacobian J (B, R, P) at the
    rows of p.  Each iteration solves the damped Gauss-Newton step of every
    start still running in dual form, delta = -J^T (J J^T + lam I)^-1 r, an
    R x R system, and evaluates r and J once, at the trial points.  A step
    is kept only when it lowers the objective; lam is then multiplied by
    0.3, otherwise by 10 and the start keeps its r and J.  Starts stop by
    the rule fit_state documents, its budget being ``max_iterations``.
    Returns (params, objectives, history, evaluations): history[k] holds
    every start's objective after iteration k, and evaluations counts the
    points at which ``residuals`` ran.
    """
    count = params.shape[0]
    r, jac = residuals(params)
    f = np.einsum("bi,bi->b", r, r)
    damping = np.full(count, _INITIAL_DAMPING)
    stalled = np.zeros(count, dtype=int)
    history = [f.copy()]
    evaluations = count
    identity = np.eye(r.shape[1])
    while len(history) <= max_iterations:
        run = np.flatnonzero((f > target_misfit) & (stalled < _STALL_ITERATIONS))
        if run.size == 0:
            break
        p, r_run, jac_run, f_run = params[run], r[run], jac[run], f[run]
        jac_t = jac_run.transpose(0, 2, 1)
        dual = jac_run @ jac_t + damping[run, None, None] * identity
        trial = p - (jac_t @ np.linalg.solve(dual, r_run[..., None]))[..., 0]
        r_trial, jac_trial = residuals(trial)
        f_trial = np.einsum("bi,bi->b", r_trial, r_trial)
        evaluations += run.size
        accept = f_trial < f_run
        stalled[run] = np.where(f_run - f_trial > _MIN_DECREASE * f_run, 0, stalled[run] + 1)
        damping[run] *= np.where(accept, 0.3, 10.0)
        kept = run[accept]
        params[kept], r[kept], jac[kept], f[kept] = (
            trial[accept], r_trial[accept], jac_trial[accept], f_trial[accept])
        history.append(f.copy())
    return params, f, np.array(history), evaluations


_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))
_PRODUCTS = np.array([np.kron(s, t) for s in _PAULI for t in _PAULI])[
    [4, 8, 12, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15]]
_REAL_FORMS = np.block([[_PRODUCTS.real, -_PRODUCTS.imag], [_PRODUCTS.imag, _PRODUCTS.real]]).reshape(120, 8).T
# The sides A, A', B and B' (numbered 0 to 3) that each table reads, from its experiment key: "A'B" reads A' and B.
TABLE_SIDES = np.array([[("A", "A'", "B", "B'").index(side) for side in (key[:key.index("B")], key[key.index("B"):])]
                        for key in EXPERIMENT_KEYS])
_OWN_ROWS = np.arange(12).reshape(4, 3, 1)
_OWN_COLUMNS = (8 + 3 * TABLE_SIDES[:, :, None] + np.arange(3)).reshape(4, 1, 6)


def state_residuals_by_slots(params: np.ndarray, signatures: np.ndarray) -> tuple:
    """fit_state's 12 residuals r (B, 12) and their Jacobian J (B, 12, 20).

    ``params`` (B, 20) holds x = (Re z, Im z), then the directions of A, A',
    B and B'; table k reads those of the sides TABLE_SIDES[k].  The 15 Pauli
    products are ordered m = (mu, 0), n = (0, nu), t = (mu, nu) for mu, nu
    in (X, Y, Z).  A correlation c = x.M x / x.x has gradient
    2 (M x - c x) / x.x, and a unit direction u = d / |d| has derivative
    (I - u u^T) / |d|.
    """
    count = params.shape[0]
    x = params[:, :8]
    xx = np.einsum("bi,bi->b", x, x)[:, None]
    mx = (x @ _REAL_FORMS).reshape(count, 15, 8)
    c = np.einsum("bui,bi->bu", mx, x) / xx
    dc = (mx - c[:, :, None] * x[:, None, :]) * (2.0 / xx[:, :, None])
    t = c[:, 6:].reshape(count, 3, 3)
    directions = params[:, 8:].reshape(count, 4, 3)[:, TABLE_SIDES]
    norms = np.linalg.norm(directions, axis=-1, keepdims=True)
    units = directions / norms
    a, b = units[:, :, 0], units[:, :, 1]
    # weights[:, k, j] @ c is table k's fitted value j; grads its gradient in (a, b)
    weights, grads = np.zeros((count, 4, 3, 15)), np.zeros((count, 4, 3, 2, 3))
    weights[:, :, 0, :3], weights[:, :, 1, 3:6] = a, b
    weights[:, :, 2, 6:] = (a[..., :, None] * b[..., None, :]).reshape(count, 4, 9)
    grads[:, :, 0, 0], grads[:, :, 1, 1] = c[:, None, :3], c[:, None, 3:6]
    grads[:, :, 2, 0], grads[:, :, 2, 1] = b @ t.transpose(0, 2, 1), a @ t
    grads -= np.einsum("bkjsx,bksx->bkjs", grads, units)[..., None] * units[:, :, None]
    weights = weights.reshape(count, 12, 15)
    jac = np.zeros((count, 12, 20))
    jac[:, :, :8] = weights @ dc
    jac[:, _OWN_ROWS, _OWN_COLUMNS] = (grads / norms[:, :, None]).reshape(count, 4, 3, 6)
    return 0.5 * ((weights @ c[:, :, None])[..., 0] - signatures.reshape(12)), 0.5 * jac
