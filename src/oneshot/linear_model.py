"""Linear inverse problems driven by a fixed-point state equation.

The forward model is ``u = B u + M sigma + F`` with measurement ``f = H u``.
Recovering ``sigma`` from ``f`` is well posed when the state iteration
contracts (``rho(B) < 1``) and ``H (I - B)^{-1} M`` is injective.  This module
holds the real and scalar problem containers, the assumption checks, exact
direct/adjoint solves, the realification of complex-state problems,
synthetic generators, and JSON (de)serialization.  sigma is real, so a
complex-state problem enters only through its real block form: a complex
problem file loads as its realification.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

EPS_RHO = 1e-8                  # validate: rho(B) must stay below 1 - EPS_RHO,
EPS_INJ = 1e-10                 # and s_min of H (I - B)^-1 M above EPS_INJ s_max


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value (the operator 2-norm); inf, without LAPACK, for
    a matrix with a non-finite entry."""
    return float(np.linalg.norm(a, 2)) if np.isfinite(a).all() else np.inf


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix, by a dense eigensolver."""
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _contraction_bound(a, norm: float | None = None) -> float:
    """An induced norm of a (``norm``, else ||a||_inf) if below 1, else rho(a)."""
    norm = float(np.linalg.norm(a, np.inf)) if norm is None else norm
    return norm if norm < 1.0 else spectral_radius(a)


def _require_real(a) -> np.ndarray:
    """``a`` as an array; complex problem data must be realified first."""
    if np.iscomplexobj(a):
        raise ValueError("complex problem data: convert it with realify first")
    return np.asarray(a)


def _vector(name: str, v, n: int) -> np.ndarray:
    """A flat float copy of ``v``, checked to have length ``n``."""
    v = np.array(v, dtype=float).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got {v.shape}")
    return v


@dataclass(frozen=True)
class RealInverseProblem:
    """Real problem data ``(B, M, H, F)``.

    Shapes: B is (n_u, n_u), M is (n_u, n_sigma), H is (n_f, n_u) and F is
    (n_u,).  Complex data is rejected, not cast (see :func:`realify`), and so
    is a non-finite entry; the arrays are then coerced to float64 and
    frozen, as is the container.
    """

    B: np.ndarray
    M: np.ndarray
    H: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        B, M, H, F = (np.asarray(_require_real(getattr(self, name)), dtype=float)
                      for name in "BMHF")
        if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] < 1:
            raise ValueError(f"B must be square and non-empty, got shape {B.shape}")
        n_u = B.shape[0]
        if M.ndim != 2 or M.shape[0] != n_u or M.shape[1] < 1:
            raise ValueError(f"M must have shape ({n_u}, n_sigma), got {M.shape}")
        if H.ndim != 2 or H.shape[1] != n_u or H.shape[0] < 1:
            raise ValueError(f"H must have shape (n_f, {n_u}), got {H.shape}")
        F = _vector("F", F, n_u)
        for name, a in zip("BMHF", (B, M, H, F)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} has a non-finite entry")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def state_inverse(self) -> np.ndarray:
        """``(I - B)^{-1}``, inverted on first use and kept for every solve."""
        R = np.linalg.inv(np.eye(self.n_u) - self.B)
        R.setflags(write=False)
        return R

    @property
    def n_u(self) -> int:
        return self.B.shape[0]

    @property
    def n_sigma(self) -> int:
        return self.M.shape[1]

    @property
    def n_f(self) -> int:
        return self.H.shape[0]


@dataclass
class AssumptionReport:
    """Outcome of checking the standing assumptions on a problem."""

    spectral_radius_B: float
    min_singular_value: float
    max_singular_value: float
    is_valid: bool
    messages: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScalarProblem:
    """The scalar case: state factor b in (-1, 1); h, m, their squares and
    h^2 m^2 finite and nonzero."""

    b: float
    h: float
    m: float

    def __post_init__(self):
        if not -1.0 < self.b < 1.0:
            raise ValueError(f"b must lie in (-1, 1), got {self.b}")
        h, m = float(self.h), float(self.m)   # a float ** raises on overflow
        if not all(0.0 < v < np.inf for v in (h * h, m * m, (h * h) * (m * m))):
            raise ValueError("h and m must be finite and nonzero, "
                             "and so must h^2, m^2 and h^2 m^2")

    def as_problem(self) -> RealInverseProblem:
        """Embed as a 1x1 :class:`RealInverseProblem` with F = 0."""
        return RealInverseProblem(
            B=[[self.b]], M=[[self.m]], H=[[self.h]], F=[0.0]
        )


def data_map(problem) -> np.ndarray:
    """The parameter-to-data map ``H (I - B)^{-1} M``, formed explicitly."""
    return problem.H @ (problem.state_inverse @ problem.M)


def validate(problem: RealInverseProblem) -> AssumptionReport:
    """Check contraction of B and injectivity of ``H (I - B)^{-1} M``.

    Valid iff ``rho(B) < 1 - EPS_RHO`` (1e-8) and the smallest singular value
    of the explicitly formed ``H (I - B)^{-1} M`` exceeds ``EPS_INJ`` (1e-10)
    times the largest one; both margins are fixed.  A complex-state problem
    is checked in its realified form, so injectivity is over real sigma.
    """
    messages: list[str] = []
    rho = spectral_radius(problem.B)
    contraction_ok = rho < 1.0 - EPS_RHO
    if not contraction_ok:
        messages.append(
            f"spectral radius of B is {rho:.6g}, need < 1 - {EPS_RHO:g}"
        )

    smin = smax = 0.0
    try:
        svals = np.linalg.svd(data_map(problem), compute_uv=False)
        smax, smin = float(svals[0]), float(svals[-1])
        if problem.n_f < problem.n_sigma:
            smin = 0.0
            messages.append(
                f"only {problem.n_f} measurement rows for {problem.n_sigma} "
                "parameters; the parameter-to-data map cannot be injective"
            )
    except np.linalg.LinAlgError:
        messages.append("state operator I - B is singular")

    injectivity_ok = smin > EPS_INJ * smax
    if not injectivity_ok and not messages:
        messages.append(
            f"smallest singular value {smin:.6g} of the parameter-to-data map "
            f"is not above {EPS_INJ:g} times the largest ({smax:.6g})"
        )
    return AssumptionReport(
        spectral_radius_B=rho,
        min_singular_value=smin,
        max_singular_value=smax,
        is_valid=bool(contraction_ok and injectivity_ok),
        messages=messages,
    )


def exact_state(problem: RealInverseProblem, sigma) -> np.ndarray:
    """Solve ``u = B u + M sigma + F`` exactly, by the kept ``(I - B)^{-1}``."""
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    return problem.state_inverse @ (problem.M @ sigma + problem.F)


def adjoint_from_state(problem: RealInverseProblem, u, f) -> np.ndarray:
    """Solve ``p = B* p + H*(H u - f)`` for an already computed state u."""
    r = problem.H @ np.asarray(u, dtype=float) - np.asarray(f, dtype=float).reshape(-1)
    return problem.state_inverse.T @ (problem.H.T @ r)


def exact_adjoint(problem: RealInverseProblem, sigma, f) -> np.ndarray:
    """Solve ``p = B* p + H*(H u(sigma) - f)``; the cost gradient is M* p."""
    return adjoint_from_state(problem, exact_state(problem, sigma), f)


def cost(problem: RealInverseProblem, sigma, f) -> float:
    """Least-squares misfit ``0.5 * ||H u(sigma) - f||^2``."""
    f = np.asarray(f, dtype=float).reshape(-1)
    r = problem.H @ exact_state(problem, sigma) - f
    return 0.5 * float(r @ r)


def gradient(problem: RealInverseProblem, sigma, f) -> np.ndarray:
    """Gradient of the misfit, ``M* p(sigma)``."""
    return problem.M.T @ exact_adjoint(problem, sigma, f)


def realify(B, M, H, F) -> RealInverseProblem:
    """Rewrite complex-state problem data as a real problem of doubled dimension.

    With B = B1 + i B2 etc., the real system uses the block matrices
    ``[[B1, -B2], [B2, B1]]`` for B and H, and stacks [M1; M2], [F1; F2].
    The spectrum of the new B is Spec(B) together with its conjugate, so
    contraction and injectivity carry over.
    """
    B, M, H, F = (np.asarray(a) for a in (B, M, H, F))
    return RealInverseProblem(
        B=np.block([[B.real, -B.imag], [B.imag, B.real]]),
        M=np.vstack([M.real, M.imag]),
        H=np.block([[H.real, -H.imag], [H.imag, H.real]]),
        F=np.concatenate([F.real, F.imag]))


@dataclass(frozen=True)
class TUXTriple:
    """Operators of k sweeps: T_k = sum_{j<k} B^j, X_k = sum_{l<k} U_l (0 at
    k = 1), B^k, and L = [H; H B; ...; H B^{k-1}] as blocks L[j] = H B^j of
    shape (k, n_f, n_u).  U_k = sum_{i+j=k-1} (B*)^i H*H B^j = L* R, with R
    the blocks of L reversed, is formed on first use."""

    T: np.ndarray
    X: np.ndarray
    Bk: np.ndarray
    L: np.ndarray

    @cached_property
    def U(self) -> np.ndarray:
        return np.tensordot(self.L, self.L[::-1], ([0, 1], [0, 1]))


def tux(B: np.ndarray, H: np.ndarray, k: int) -> TUXTriple:
    """T_k, B^k and L from the powers of B, and X_k = sum_{i+j<=k-2} L[i]* L[j]
    as one product of stacked blocks, sum_{i<k-1} L[i]* (H T_{k-1-i})."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    B, H = _require_real(B).astype(float, copy=False), _require_real(H)
    try:   # numpy reports a shape beyond its index range as a ValueError
        L, HT = np.empty((k, *H.shape)), np.empty((k, *H.shape))
    except (MemoryError, ValueError):
        raise MemoryError(f"k = {k} is too large: its blocks H B^l "
                          "do not fit in memory") from None
    L[0] = HT[0] = H                # HT[j] = H T_{j+1}
    T, Bl = np.eye(len(B)), B
    for l in range(1, k):
        np.matmul(L[l - 1], B, out=L[l])
        T, Bl = T + Bl, Bl @ B
        if l < k - 1:
            np.matmul(H, T, out=HT[l])
    X = np.tensordot(L[:k - 1], HT[:k - 1][::-1], ([0, 1], [0, 1]))
    return TUXTriple(T=T, X=X, Bk=Bl, L=L)


def random_contraction(n_u: int, n_sigma: int, n_f: int, target_norm: float,
                       seed: int) -> RealInverseProblem:
    """Draw a dense Gaussian problem with ``||B||_2`` rescaled to target_norm.

    The spectral norm (not the spectral radius) is pinned because the descent
    step bounds are stated in ``||B||``.  One draw, deterministic in ``seed``;
    a draw that fails ``validate`` raises ValueError.  That happens when
    ``target_norm`` is within ``EPS_RHO`` of 1, and almost never otherwise.
    """
    if not 0.0 <= target_norm < 1.0:
        raise ValueError(f"target_norm must lie in [0, 1), got {target_norm}")
    if not 1 <= n_sigma <= min(n_u, n_f):
        raise ValueError(
            f"an injective map needs 1 <= n_sigma <= min(n_u, n_f); "
            f"got n_sigma={n_sigma}, n_u={n_u}, n_f={n_f}")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n_u, n_u))   # drawn at target 0 too: M, H, F keep their draws
    B = B * (target_norm / spectral_norm(B)) if target_norm else np.zeros_like(B)
    problem = RealInverseProblem(B=B, M=rng.standard_normal((n_u, n_sigma)),
                                 H=rng.standard_normal((n_f, n_u)), F=rng.standard_normal(n_u))
    report = validate(problem)
    if not report.is_valid:
        raise ValueError("the drawn problem is not valid: " + "; ".join(report.messages))
    return problem


def _to_rows(a: np.ndarray) -> np.ndarray:
    # an (n, n) array indexed [i-1, j-1] flattened in row order, x-fastest
    return a.T.ravel()


# east, west, north, south neighbours of the interior nodes of a full-grid field
_NEIGHBOURS = (np.s_[2:, 1:-1], np.s_[:-2, 1:-1], np.s_[1:-1, 2:], np.s_[1:-1, :-2])


def _five_point_operator(coeff: np.ndarray, n: int, h: float) -> np.ndarray:
    """Dense matrix of the variable-coefficient operator -div(c grad u).

    ``coeff`` is a nodal field on the full (n+2) x (n+2) grid; edge
    coefficients are arithmetic means of the two endpoint values.  Rows and
    columns run over the n*n interior nodes, ordered x-fastest.
    """
    A = np.zeros((n * n, n * n))
    inv_h2 = 1.0 / (h * h)
    c = coeff[1:-1, 1:-1]
    ce, cw, cn, cs = (_to_rows(0.5 * (c + coeff[nb])) for nb in _NEIGHBOURS)
    rows = np.arange(n * n)
    A[rows, rows] = (ce + cw + cn + cs) * inv_h2
    i = rows % n                          # i - 1 of each row's node
    for mask, shift, ci in ((i < n - 1, 1, ce), (i > 0, -1, cw),
                            (rows < n * n - n, n, cn), (rows >= n, -n, cs)):
        A[rows[mask], rows[mask] + shift] = -ci[mask] * inv_h2
    return A


def _div_grad(coeff: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """``-div(c grad u)`` at the interior nodes, x-fastest, of u given on the full
    grid: :func:`_five_point_operator` applied, not assembled, each edge term
    ``0.5 (c + c_nb) (u - u_nb) / h^2`` scaled before the four are summed."""
    inv_h2 = 1.0 / (h * h)
    c, uc = coeff[1:-1, 1:-1], u[1:-1, 1:-1]
    return _to_rows(sum(0.5 * (c + coeff[nb]) * (uc - u[nb]) * inv_h2
                        for nb in _NEIGHBOURS))


def _sine_solver(n: int, h: float, wavenumber: float):
    """``rhs -> A11^{-1} rhs``, rhs (n*n, m) x-fastest, for ``A11 = -Delta_h - k^2 I =
    (S kron S) diag(lam_i + lam_j - k^2) (S kron S)`` with S the orthogonal grid sine
    modes (Hockney, 1965).  Raises unless each divisor is finite and > eps * max."""
    i = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(i, i) / (n + 1))
    lam = (2.0 - 2.0 * np.cos(np.pi * i / (n + 1))) / (h * h)
    d = (lam[:, None] + lam - wavenumber * wavenumber)[..., None]
    if not np.abs(d).min() > np.finfo(float).eps * np.abs(d).max():  # nan fails too
        raise ValueError(f"wavenumber {wavenumber!r}: its square must be finite and "
                         "off the grid Laplacian's eigenvalues, where A11 is singular")

    def solve(rhs: np.ndarray) -> np.ndarray:   # S on the x axis, then on the y axis
        a = np.tensordot(S, S @ rhs.reshape(n, n, -1), 1) / d
        return np.tensordot(S, S @ a, 1).reshape(rhs.shape)
    return solve


def helmholtz_toy(grid_n: int, wavenumber: float, delta: float,
                  seed: int) -> RealInverseProblem:
    """Structured-grid Helmholtz scattering toy on the unit square.

    Discretizes ``div(sigma0_tilde grad u) + wavenumber^2 u = div(sigma grad u0)``
    with homogeneous Dirichlet conditions, on a 5-point finite-difference grid
    with ``grid_n x grid_n`` interior nodes.  The background coefficient is
    ``sigma0_tilde = 1 + delta * sigma_r`` with a seeded random nodal field
    ``sigma_r`` taking values in [1, 2].  Splitting off the random part gives
    the fixed-point form with

    * ``B = -delta * A11^{-1} A12`` (A11: unit-coefficient part incl. the
      wavenumber term; A12: stiffness of the random part alone),
    * ``M = A11^{-1} A2`` where A2 maps a 3x3 piecewise-constant parameter
      basis through the incident field,
    * ``H`` extracting the one-sided boundary flux at every non-corner
      boundary node, and ``F = 0``.

    Only A12 and the incident field's operator, the two solved with, are
    assembled; A2 applies the stencil by :func:`_div_grad`.  A11 is solved by
    sine transforms (:func:`_sine_solver`), never formed.
    Raises when A11 is singular, and when the splitting does not contract
    (``rho(B) >= 1``), which needs an eigensolve only where ``||B||_inf < 1``
    does not rule it out.
    """
    if grid_n < 4:
        raise ValueError(f"grid_n must be at least 4, got {grid_n}")
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")
    n = grid_n
    h = 1.0 / (n + 1)
    solve_a11 = _sine_solver(n, h, wavenumber)
    rng = np.random.default_rng(seed)
    sigma_r = rng.uniform(1.0, 2.0, size=(n + 2, n + 2))

    if delta == 0.0:
        B = np.zeros((n * n, n * n))
    else:
        with np.errstate(over="ignore"):    # a B that overflows does not contract
            B = -delta * solve_a11(_five_point_operator(sigma_r, n, h))
            rho = _contraction_bound(B) if np.isfinite(B).all() else np.inf
        if rho >= 1.0:
            raise ValueError(
                f"splitting does not contract (rho(B) = {rho:.4g} >= 1); "
                "reduce delta"
            )

    # incident field u0: background Helmholtz solve with smooth boundary data
    xs = np.arange(n + 2) * h
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    u0 = np.cos(wavenumber * gx) + np.sin(wavenumber * gy)
    u0[1:-1, 1:-1] = 0.0             # the boundary data alone make the rhs
    coeff_full = 1.0 + delta * sigma_r
    A1_full = _five_point_operator(coeff_full, n, h) - wavenumber**2 * np.eye(n * n)
    u0_int = np.linalg.solve(A1_full, -_div_grad(coeff_full, u0, h))
    u0[1:-1, 1:-1] = u0_int.reshape(n, n).T

    # parameter basis: indicators of a 3x3 partition of the square,
    # supported on interior nodes only (the parameter vanishes on the boundary)
    cell = np.minimum((xs * 3).astype(int), 2)[1:-1]
    patches = [np.pad(np.outer(cell == px, cell == py), 1).astype(float)
               for py in range(3) for px in range(3)]
    # action of -div(chi grad .) on the whole incident field
    M = solve_a11(np.column_stack([_div_grad(chi, u0, h) for chi in patches]))

    # boundary flux rows: sigma0_tilde * du/dnu ~ -sigma0_tilde(x_b) u_adj / h
    # one row per non-corner boundary node: bottom/top pairs for each i, then
    # left/right pairs for each j, each picking the adjacent interior node
    inner = np.arange(n)
    cols = np.concatenate([np.column_stack([inner, (n - 1) * n + inner]).ravel(),
                           np.column_stack([inner * n, inner * n + n - 1]).ravel()])
    coeff_b = np.concatenate([
        np.column_stack([coeff_full[1:-1, 0], coeff_full[1:-1, n + 1]]).ravel(),
        np.column_stack([coeff_full[0, 1:-1], coeff_full[n + 1, 1:-1]]).ravel()])
    H = np.zeros((4 * n, n * n))
    H[np.arange(4 * n), cols] = -coeff_b / h

    return RealInverseProblem(B=B, M=M, H=H, F=np.zeros(n * n))


# ---------------------------------------------------------------------------
# JSON problem files

def problem_to_dict(problem: RealInverseProblem) -> dict:
    """Serialize a problem to the (real) JSON problem-file schema."""
    return {"n_u": problem.n_u, "n_sigma": problem.n_sigma, "n_f": problem.n_f,
            "B": problem.B.ravel().tolist(), "M": problem.M.ravel().tolist(),
            "H": problem.H.ravel().tolist(), "F": problem.F.tolist()}


def problem_from_dict(d: dict) -> RealInverseProblem:
    """Inverse of :func:`problem_to_dict`; raises ValueError on bad input.

    The ``"complex"`` schema (``{"re": [...], "im": [...]}`` per field) is
    read too, and returns :func:`realify` of the complex arrays.
    """
    try:
        n_u, n_sigma, n_f = int(d["n_u"]), int(d["n_sigma"]), int(d["n_f"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"problem file misses valid dimensions: {exc}") from exc
    shapes = {"B": (n_u, n_u), "M": (n_u, n_sigma), "H": (n_f, n_u), "F": (n_u,)}

    def reshape(name, flat):
        a = np.asarray(flat, dtype=float)
        want = shapes[name]
        if a.size != int(np.prod(want)):
            raise ValueError(f"field {name} has {a.size} entries, "
                             f"expected {int(np.prod(want))}")
        return a.reshape(want)

    if "complex" in d:
        parts = d["complex"]
        arrays = {}
        for name in ("B", "M", "H", "F"):
            try:
                re = reshape(name, parts[name]["re"])
                im = reshape(name, parts[name]["im"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"complex field {name} malformed: {exc}") from exc
            arrays[name] = re + 1j * im
        return realify(**arrays)

    try:
        arrays = {name: reshape(name, d[name]) for name in ("B", "M", "H", "F")}
    except KeyError as exc:
        raise ValueError(f"problem file misses field {exc}") from exc
    except TypeError as exc:   # such as an object {} where a number belongs
        raise ValueError(f"problem file has a non-numeric entry: {exc}") from exc
    return RealInverseProblem(**arrays)


def save_problem(problem: RealInverseProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh)


def load_problem(path) -> RealInverseProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
