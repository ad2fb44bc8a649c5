"""Dirichlet solves of the translator equation on rectangles.

Damped Newton on the centered-difference discretization of the
nondivergence form, with an explicit parabolic relaxation, taken in
Runge-Kutta-Legendre super-steps, usable both as a standalone solver and
as a globalizer that manufactures Newton initial guesses from hard starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (_MIRROR_ROUNDING_RTOL, _centered, _require_steps, _residual_and_wsq,
                       interior_partials)
from .grids import GridFunction, Rectangle

_MIN_STEP_FRACTION = 2.0 ** -30
# SuperLU's supernode settings, measured in CHANGES.md
_SUPERNODE_RELAX = 4
_PANEL_SIZE = 1
# inner iterations of the one GMRES cycle run on each factorization
_GMRES_RESTART = 10
# stages of one Runge-Kutta-Legendre relax super-step, each at the base
# explicit step; together they advance 16*17/2 = 136 base steps of
# pseudo-time. 8 stages took about twice the evaluations to reach a tol;
# 32 took fewer, but one noisy start's transient tripped the growth rule.
_RKL_STAGES = 16
# relax's base explicit step, in units of min(h1, h2)^2; forward Euler on
# u_t = F/W^2 is stable below about 1/4
_RELAX_DT = 0.2


def _linalg():
    """scipy.sparse.linalg, imported by the first solve that needs it.

    Only Newton's LU needs it, so the other commands never pay for the
    import. The module is kept in the global spla, where a stand-in
    set on tlab.solver.spla (a tracer, a test) replaces it.
    """
    spla = globals().get("spla")
    if spla is None:
        import scipy.sparse.linalg as spla
        globals()["spla"] = spla
    return spla


def __getattr__(name):
    if name == "spla":
        return _linalg()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SolveConfig:
    """Stopping controls: the residual tolerance and each solver's budget."""

    tol: float = 1e-10
    max_newton_iters: int = 40
    max_relax_steps: int = 20000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        # a budget of 0 evaluates the start only
        for name in ("max_newton_iters", "max_relax_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class SolveOutcome:
    """Result of a solve; converged implies final_residual <= tol.

    status says why the solve stopped, one of: "converged" (final_residual
    <= tol); Newton's "at_rounding_floor" (no step decreases a residual
    that is already within the estimate of its own rounding), "stalled"
    (backtracking found no decrease above that estimate) and "singular" (a
    nonfinite Newton step); relax's "unstable" (growing or nonfinite
    residual); and "budget" (iterations or steps used up). notes renders it
    in words, "" when converged. converged is read from status, so the two
    cannot disagree.
    """

    solution: GridFunction
    final_residual: float
    iterations: int
    status: str
    history: list[float] = field(default_factory=list)
    notes: str = ""
    factorizations: int = 0
    # the axes Newton folded the problem across, e.g. ("x1", "x2")
    mirror_axes: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _residual(U: np.ndarray, h1: float, h2: float, f_int=None):
    """Interior residual minus the forcing, and the W^2 of the same stencil."""
    R, Wsq = _residual_and_wsq(*interior_partials(U, h1, h2))
    if f_int is not None:
        R -= f_int
    return R, Wsq


# Stencil offsets (di, dj) in decreasing order of the flat offset
# dj*mi + di (for mi >= 3), so each CSC column lists its rows in
# increasing order.
_OFFSETS = ((1, 1), (0, 1), (-1, 1), (1, 0), (0, 0), (-1, 0),
            (1, -1), (0, -1), (-1, -1))


def _stencil_pattern(mi: int, mj: int):
    """CSC structure of the 9-point Jacobian on an mi x mj interior.

    Returns (indices, indptr, gather), all int32: gather picks each stored
    entry out of the flattened (9, mj, mi) coefficient stack that
    _jacobian fills in _OFFSETS order. Column c = (jc, ic) holds rows
    (jc - dj, ic - di) that lie inside the interior.
    """
    n = mi * mj
    di, dj = np.array(_OFFSETS, dtype=np.int32).T
    # (mj, mi, 9): axes 0 and 1 are the column's (jc, ic), axis 2 its slot
    ri = np.arange(mi, dtype=np.int32)[None, :, None] - di
    rj = np.arange(mj, dtype=np.int32)[:, None, None] - dj
    keep = (ri >= 0) & (ri < mi) & (rj >= 0) & (rj < mj)
    rows = rj * mi + ri
    indices = rows[keep]
    gather = (np.arange(len(_OFFSETS), dtype=np.int32) * n + rows)[keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=2), out=indptr[1:])
    return indices, indptr, gather


def _jacobian(U: np.ndarray, h1: float, h2: float, pattern=None, axes=()):
    """Full linearization of the discrete residual at interior nodes.

    Includes the first-order terms from differentiating the quasilinear
    coefficients, not just the frozen-coefficient principal part; Dirichlet
    neighbors contribute nothing. pattern is _stencil_pattern of the
    interior, built here when not given; a solve builds it once and only
    the data is refilled per iteration. axes names the mirror folds of U,
    a block cut at _fold_origin whose row and column 0 are ghost lines: a
    ghost neighbour's coefficient is added onto its mirror node's, the x1
    fold first, so the corner ghost (-1, -1) lands on (1, 1). Returns a
    CSC matrix.

    The nine coefficients are written into one (9, mj, mi) block in
    _OFFSETS order, each rounding like its written expression:
        (0, 0): -2 A / h1^2 - 2 C / h2^2,
        (+-1, 0): A / h1^2 +- D1 / (2 h1),   (0, +-1): C / h2^2 +- D2 / (2 h2),
        (1, 1), (-1, -1): B / (4 h1 h2),     (1, -1), (-1, 1): -B / (4 h1 h2),
    with A = 1 + u2^2, B = -2 u1 u2, C = 1 + u1^2, D1 = 2 (u1 u22 - u2 u12 - u1)
    and D2 = 2 (u2 u11 - u1 u12 - u2). At the peak only the block and the
    CSC data gathered from it are alive, beside the caller's pattern.
    """
    from scipy.sparse import csc_matrix

    ny, nx = U.shape
    mi, mj = nx - 2, ny - 2
    if pattern is None:
        pattern = _stencil_pattern(mi, mj)
    indices, indptr, gather = pattern
    u1, u2, u11, u12, u22 = interior_partials(U, h1, h2)
    A = 1.0 + u2 * u2
    B = -2.0 * u1 * u2
    Cc = 1.0 + u1 * u1
    D1 = 2.0 * (u1 * u22 - u2 * u12 - u1)
    D2 = 2.0 * (u2 * u11 - u1 * u12 - u2)
    del u1, u2, u11, u12, u22

    stack = np.empty((len(_OFFSETS), mj, mi))
    # views of the block's slots by offset
    c = dict(zip(_OFFSETS, stack))
    np.multiply(-2.0, A, out=c[0, 0])
    c[0, 0] /= h1 * h1
    # (0, 1) holds 2 C / h2^2 until its own coefficient is written
    np.multiply(2.0, Cc, out=c[0, 1])
    c[0, 1] /= h2 * h2
    c[0, 0] -= c[0, 1]
    A /= h1 * h1
    D1 /= 2.0 * h1
    np.add(A, D1, out=c[1, 0])
    np.subtract(A, D1, out=c[-1, 0])
    del A, D1
    Cc /= h2 * h2
    D2 /= 2.0 * h2
    np.add(Cc, D2, out=c[0, 1])
    np.subtract(Cc, D2, out=c[0, -1])
    del Cc, D2
    np.divide(B, 4.0 * h1 * h2, out=c[1, 1])
    np.negative(B, out=B)
    np.divide(B, 4.0 * h1 * h2, out=c[1, -1])
    del B
    c[-1, -1][...] = c[1, 1]
    c[-1, 1][...] = c[1, -1]
    if "x1" in axes:
        for d in (1, 0, -1):
            c[1, d][:, 0] += c[-1, d][:, 0]
    if "x2" in axes:
        for d in (1, 0, -1):
            c[d, 1][0, :] += c[d, -1][0, :]
    n = mi * mj
    return csc_matrix((stack.ravel()[gather], indices, indptr), shape=(n, n))


def _factorize(J):
    """Sparse LU of J cast to float32; returns the solve callable of the
    factor.

    The solve takes and returns float64 and keeps the SuperLU object as
    its lu attribute. The factor and its triangular solves move half the
    bytes of a float64 one, and the GMRES cycle of _preconditioned_step
    refines its step to float64 accuracy (Langou et al., SC 2006; Carson &
    Higham, SIAM J. Sci. Comput. 40, 2018).

    Minimum-degree ordering on J^T + J suits the 9-point stencil: at the
    sizes the lab solves it fills in far less than the default COLAMD.
    diag_pivot_thresh=0 keeps each nonzero diagonal pivot and so the
    ordering's fill on rough iterates. The supernode settings
    _SUPERNODE_RELAX and _PANEL_SIZE (Demmel, Eisenstat, Gilbert, Li & Liu,
    SIAM J. Matrix Anal. Appl. 20, 1999) change neither the ordering, the
    pivots nor nnz(L + U), only the order of the numeric updates. An
    exactly singular J gives a solve that returns NaNs, not an error.
    """
    spla = _linalg()
    try:
        lu = spla.splu(J.astype(np.float32).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, relax=_SUPERNODE_RELAX,
                       panel_size=_PANEL_SIZE)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return lambda rhs: np.full(np.shape(rhs), np.nan)

    def solve(rhs):
        return lu.solve(rhs.astype(np.float32)).astype(float)

    solve.lu = lu
    return solve


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("i,i", v, v)))


def _preconditioned_step(J, rhs: np.ndarray, solve, rtol: float):
    """One right-preconditioned GMRES cycle on J x = rhs, with M the
    Jacobian an LU factored and solve applying M^-1 (Saad & Schultz, SIAM J.
    Sci. Stat. Comput. 7, 1986).

    M is the current or an earlier Jacobian in float32; the cycle refines
    the factor's step in float64. It starts from the factor's own step
    x0 = M^-1 rhs, the one solve of rhs, and keeps each Z_k = M^-1 v_k
    beside the Arnoldi basis v_k of J M^-1, so x = x0 + Z y costs no
    further solve. Right preconditioning makes the Hessenberg
    least-squares residual, kept by Givens rotations, the true residual
    |rhs - J x| in exact arithmetic. Returns (x, met): (x, True) once that
    residual, evaluated afresh, is within target = rtol * |rhs|, and
    (x0, False) on a miss: when the cycle ends short of it; when, from the
    second iteration on, its mean contraction so far,
    c = (r_k / r_0)^(1/k), cannot reach it in the m = _GMRES_RESTART
    iterations (r_k c^(m-k) > target); or on a nonfinite value. Norms
    are 2-norms. newton_solve's rtol, max(min(1e-2, max|rhs|),
    0.5 tol / |rhs|), makes the target its forcing term times |rhs| but
    never under tol / 2.

    Inner products are einsum's, not numpy's threaded BLAS dot.
    """
    m = _GMRES_RESTART
    with np.errstate(all="ignore"):
        target = rtol * _norm(rhs)
        x0 = solve(rhs)
        r = rhs - J @ x0
        r0 = rk = _norm(r)
        if not np.isfinite(r0):
            return x0, False
        V = np.empty((m + 1, r.size))
        Z = np.empty((m, r.size))
        R = np.zeros((m + 1, m))  # the Hessenberg matrix, rotated to upper triangular
        rot = np.zeros((m, 2))
        g = np.zeros(m + 1)  # the rotated r0 e_1; |g[k]| is the residual after k steps
        g[0] = r0
        V[0] = r / r0
        k = 0
        while rk > target:
            if k == m or (k >= 2 and rk * (rk / r0) ** ((m - k) / k) > target):
                return x0, False
            Z[k] = solve(V[k])
            w = J @ Z[k]
            # modified Gram-Schmidt
            for i in range(k + 1):
                R[i, k] = np.einsum("i,i", V[i], w)
                w -= R[i, k] * V[i]
            R[k + 1, k] = _norm(w)
            V[k + 1] = w / R[k + 1, k]
            for i in range(k):
                c, s = rot[i]
                R[i, k], R[i + 1, k] = (c * R[i, k] + s * R[i + 1, k],
                                        c * R[i + 1, k] - s * R[i, k])
            d = np.hypot(R[k, k], R[k + 1, k])
            rot[k] = R[k, k] / d, R[k + 1, k] / d
            R[k, k], R[k + 1, k] = d, 0.0
            g[k], g[k + 1] = rot[k, 0] * g[k], -rot[k, 1] * g[k]
            k += 1
            rk = abs(g[k])
            if not np.isfinite(rk):
                return x0, False
        if not k:
            return x0, True
        x = x0 + np.einsum("ij,i->j", Z[:k], np.linalg.solve(R[:k, :k], g[:k]))
        if not _norm(rhs - J @ x) <= target:
            return x0, False
    return x, True


def _ring(V: np.ndarray):
    return V[0, :], V[-1, :], V[:, 0], V[:, -1]


def boundary_ring_values(boundary, rect: Rectangle, nx: int, ny: int):
    """Boundary data on the four sides of the nx x ny grid on rect.

    boundary is a vectorized callable g(x1, x2) or a GridFunction on that
    grid. Returns (bottom, top, left, right).
    """
    if isinstance(boundary, GridFunction):
        if boundary.values.shape != (ny, nx) or boundary.rect != rect:
            raise ValueError("boundary grid does not match the solve grid")
        return _ring(boundary.values)
    x1 = np.linspace(rect.x1_min, rect.x1_max, nx)
    x2 = np.linspace(rect.x2_min, rect.x2_max, ny)
    sides = ((x1, np.full_like(x1, rect.x2_min)), (x1, np.full_like(x1, rect.x2_max)),
             (np.full_like(x2, rect.x1_min), x2), (np.full_like(x2, rect.x1_max), x2))
    return tuple(np.broadcast_to(np.asarray(boundary(a, b), dtype=float), a.shape)
                 for a, b in sides)


def _dirichlet_start(boundary, init: GridFunction, solver: str) -> np.ndarray:
    """A copy of init's values, the start of a Dirichlet solve.

    Refuses a grid under 5x5 or with squared steps that are not finite
    and positive (_require_steps), nonfinite boundary data, and an init
    whose ring is off the data by more than 1e-9 (1 + max|data|).
    """
    if init.nx < 5 or init.ny < 5:
        raise ValueError(f"{solver} needs at least a 5x5 grid")
    _require_steps(init)
    data = np.concatenate(boundary_ring_values(boundary, init.rect, init.nx, init.ny))
    if not np.all(np.isfinite(data)):
        raise ValueError("boundary data is not finite on the ring")
    worst = float(np.max(np.abs(np.concatenate(_ring(init.values)) - data)))
    if worst > 1e-9 * (1.0 + float(np.max(np.abs(data)))):
        raise ValueError(f"init does not match the boundary data on the ring "
                         f"(max mismatch {worst:.3e})")
    return init.values.copy()


def fill_from_boundary(rect: Rectangle, nx: int, ny: int, boundary) -> GridFunction:
    """Transfinite (bilinear blend) fill of the four boundary traces."""
    if nx < 3 or ny < 3:
        raise ValueError("fill needs nx, ny >= 3")
    bottom, top, left, right = boundary_ring_values(boundary, rect, nx, ny)
    s = np.linspace(0.0, 1.0, nx)[None, :]
    t = np.linspace(0.0, 1.0, ny)[:, None]
    c00, c10 = bottom[0], bottom[-1]
    c01, c11 = top[0], top[-1]
    U = ((1.0 - t) * bottom[None, :] + t * top[None, :]
         + (1.0 - s) * left[:, None] + s * right[:, None]
         - ((1.0 - s) * (1.0 - t) * c00 + s * (1.0 - t) * c10
            + (1.0 - s) * t * c01 + s * t * c11))
    U[0, :] = bottom
    U[-1, :] = top
    U[:, 0] = left
    U[:, -1] = right
    return GridFunction(rect, U)


def _forcing_interior(forcing, shape):
    if forcing is None:
        return None
    f = np.asarray(forcing, dtype=float)
    if f.shape != shape:
        raise ValueError("forcing shape does not match the grid")
    f = f[1:-1, 1:-1]
    if not np.all(np.isfinite(f)):
        raise ValueError("forcing must be finite on the interior")
    return f


def _mirror_axes(init: GridFunction, f_int) -> tuple[str, ...]:
    """The axes across which the discrete problem is mirror-even.

    An axis qualifies when its node count is odd and the init (ring
    included) and the forcing equal their mirror images to within
    _MIRROR_ROUNDING_RTOL * max|init|. The discrete system reads only the
    node values and the spacings, so where the rectangle sits does not
    matter, and the boundary callable is not consulted: Newton keeps the
    init's ring.
    """
    V = init.values
    tol = _MIRROR_ROUNDING_RTOL * float(np.max(np.abs(V)))
    fields = (V,) if f_int is None else (V, f_int)
    return tuple(name for name, axis, n in (("x1", 1, init.nx), ("x2", 0, init.ny))
                 if n % 2 and all(float(np.max(np.abs(F - np.flip(F, axis)))) <= tol
                                  for F in fields))


def _fold_origin(shape, axes):
    """(row, column) where the folded block starts: one ghost before each
    folded centre line, 0 along an unfolded axis."""
    ny, nx = shape
    return (ny // 2 - 1 if "x2" in axes else 0,
            nx // 2 - 1 if "x1" in axes else 0)


def _mirror(U: np.ndarray, axes) -> None:
    """Copy the upper half of U's interior (the fundamental half, centre
    line included) onto the lower half, in place, along each folded axis;
    the ring is left alone."""
    ny, nx = U.shape
    if "x1" in axes:
        U[1:-1, 1:nx // 2] = U[1:-1, -2:nx // 2:-1]
    if "x2" in axes:
        U[1:ny // 2, 1:-1] = U[-2:ny // 2:-1, 1:-1]


def _rounding_floor(U: np.ndarray, h1: float, h2: float) -> float:
    """The largest interior residual that rounding alone can explain.

    At each interior node, eps times the stencil sum of |U| weighted by the
    principal part of the Jacobian: |A|/h1^2 along x1, |C|/h2^2 along x2
    and |B|/(4 h1 h2) on the corners, the centre counted on both lines.
    Only the maximum means anything: node by node |F| can exceed the
    estimate next to the ring. On the converged and stopped solves the
    tests pin, it was 2.4 to 3.3 times max|F|.
    """
    u1, u2 = np.empty((2, U.shape[0] - 2, U.shape[1] - 2))
    _centered(U, h1, h2, 0, u1)
    _centered(U, h1, h2, 1, u2)
    a = np.abs(U)
    centre = 2.0 * a[1:-1, 1:-1]
    est = ((1.0 + u2 * u2) / (h1 * h1) * (a[1:-1, 2:] + centre + a[1:-1, :-2])
           + (1.0 + u1 * u1) / (h2 * h2) * (a[2:, 1:-1] + centre + a[:-2, 1:-1])
           + np.abs(u1 * u2) / (2.0 * h1 * h2)
           * (a[2:, 2:] + a[2:, :-2] + a[:-2, 2:] + a[:-2, :-2]))
    return float(np.finfo(float).eps * np.max(est))


_NEWTON_NOTES = {
    "converged": "",
    "at_rounding_floor": "at rounding floor: the residual is within the rounding "
                         "estimate {floor:.3e}",
    "stalled": "backtracking stalled: no residual decrease along the Newton step",
    "budget": "iteration budget exhausted after {iterations} steps",
    "singular": "singular Jacobian at iteration {iterations}",
}


def newton_solve(boundary, init: GridFunction, cfg: SolveConfig,
                 forcing=None) -> SolveOutcome:
    """Damped Newton for the discrete translator system.

    Each iteration assembles the Jacobian and solves for the Newton step
    by one GMRES cycle right-preconditioned by a kept sparse LU
    (_preconditioned_step). The step is accepted only when its true
    float64 linear residual is within max(min(1e-2, residual),
    0.5 tol / |F|) times the right-hand side F, in the 2-norm (Eisenstat &
    Walker, SIAM J. Sci. Comput. 17, 1996): the forcing term, floored so
    that no cycle is asked for a linear residual under tol / 2, which the
    stop does not need (Kelley, Iterative Methods for Linear and Nonlinear
    Equations, SIAM 1995, 6.3). The 2-norm bounds the max-norm, so the
    floor leaves the accepted step's linear residual within tol / 2 at
    every node. Every LU is of the Jacobian in float32. The LU is kept while
    cycles are accepted. When one misses, the old factor is dropped, the
    current Jacobian is factored and the cycle runs on that fresh factor,
    whose step is taken whether it meets the forcing term or not: a missed
    cycle gives back its start, that factor's own step. A nonfinite step
    ends the solve "singular". The sparsity pattern is built once per pass
    (see below).

    A problem that is mirror-even across the middle column or row (odd
    node count along the axis, and init and forcing even to within a few
    hundred ulps of max|init|) is solved on its fundamental domain: a half
    or a quarter of the unknowns. The iterate stays one full grid, kept
    exactly even by copying the fundamental half onto the other after
    every step; the residual and the Jacobian read the block that starts
    one ghost line before each centre line. This is the full Newton step
    restricted to even grid functions, and the ring stays the init's bit
    for bit. If the full-grid residual then misses tol, binds on the
    mirror side (the ring's rounding-level asymmetry) and exceeds the
    rounding floor, the same loop goes on over the full grid from the same
    iterate.

    The rounding floor is _rounding_floor, evaluated only where it can end
    the solve: when the full step fails to decrease the residual, and
    before a full-grid pass. Below the floor no step can be shown to
    help, so the solve stops there without halving. A residual below the
    floor at the top of an iteration is not tested: a full step can still
    reach tol from it.

    Parameters
    ----------
    boundary : callable or GridFunction
        Dirichlet data on all four sides, finite; init must already match it
        on the boundary ring.
    init : GridFunction
        Starting iterate; also fixes the domain and resolution (>= 5x5).
    cfg : SolveConfig
        tol is a max-norm target for the interior residual; each step is
        tried in full, then, above the rounding floor, halved by
        backtracking until the residual norm decreases.
    forcing : array or None
        Optional manufactured right-hand side of the grid's shape, read at
        the interior nodes; the system solved is
        residual(u) = forcing, which makes any sampled reference solution an
        exact discrete fixed point of its own forcing.

    Returns
    -------
    SolveOutcome
        status is "converged" (final_residual <= tol), "at_rounding_floor",
        "stalled" (no decrease along the step above the floor: the refined
        step, or a fresh factor's own step where its cycle missed),
        "singular" (a nonfinite step from a fresh factor: a singular
        Jacobian or an overflow) or "budget" (max_newton_iters used up);
        every status but the first comes back with converged=False, not an
        exception, and notes renders it. The solution is the last accepted
        iterate.
        factorizations counts the LUs built; mirror_axes names the folds.
        final_residual, converged and the last history entry are those of
        the returned full grid; earlier entries of a folded solve are
        fold-domain residuals.
    """
    U = _dirichlet_start(boundary, init, "newton_solve")
    h1, h2 = init.h1, init.h2
    f_full = _forcing_interior(forcing, init.values.shape)
    mirror_axes = axes = _mirror_axes(init, f_full)
    history = []
    iterations = 0
    factorizations = 0
    floor = None

    # A folded pass is followed by a pass with no fold from the same
    # iterate when its full-grid residual misses tol and exceeds the folded
    # one, i.e. binds on the mirror side. There the ring's rounding-level
    # asymmetry and the mirrored order of the stencil's floating-point sums
    # act, which no even step can undo. A folded residual that binds above
    # tol is the even step's own rounding floor, which a full step shares,
    # and so is a full-grid residual within the rounding floor.
    while True:
        _mirror(U, axes)
        j0, i0 = _fold_origin(U.shape, axes)
        # views of U: the block's interior holds the unknowns and its row
        # and column 0 are ghost lines; with no fold the block is all of U
        block, inner = U[j0:, i0:], U[j0 + 1:-1, i0 + 1:-1]
        f_int = None if f_full is None else f_full[j0:, i0:]
        mj, mi = inner.shape

        F = _residual(block, h1, h2, f_int)[0]
        rn = float(np.max(np.abs(F)))
        if not history:
            history.append(rn)
        status = "budget"

        pattern = _stencil_pattern(mi, mj) if rn > cfg.tol else None
        solve = None

        while rn > cfg.tol and iterations < cfg.max_newton_iters:
            J = None  # free the last Jacobian before assembling the next
            J = _jacobian(block, h1, h2, pattern, axes)
            rhs = -F.ravel()
            rtol = max(min(1e-2, rn), 0.5 * cfg.tol / _norm(rhs))
            met = False
            if solve is not None:
                delta, met = _preconditioned_step(J, rhs, solve, rtol)
            if not met:
                delta = solve = None  # free the old factor and its step first
                solve = _factorize(J)
                factorizations += 1
                delta, _ = _preconditioned_step(J, rhs, solve, rtol)
            if not np.all(np.isfinite(delta)):
                status = "singular"
                break
            delta = delta.reshape(mj, mi)

            # trial steps are written into U in place; a failed one is undone at once
            start = inner.copy()
            alpha = 1.0
            stop = "stalled"
            while alpha >= _MIN_STEP_FRACTION:
                np.add(start, alpha * delta, out=inner)
                _mirror(U, axes)
                F_try = _residual(block, h1, h2, f_int)[0]
                rn_try = float(np.max(np.abs(F_try)))
                if np.isfinite(rn_try) and rn_try < rn:
                    F, rn = F_try, rn_try
                    stop = None
                    break
                inner[...] = start
                _mirror(U, axes)
                if alpha == 1.0:
                    # within the rounding floor no shorter step is tried
                    floor = _rounding_floor(U, h1, h2)
                    if rn <= floor:
                        stop = "at_rounding_floor"
                        break
                alpha *= 0.5
            iterations += 1
            history.append(rn)
            if stop is not None:
                status = stop
                break

        # the next pass builds its own; the full-grid residual runs without them
        solve = J = pattern = None
        if not axes:
            break
        rn_fold, rn = rn, float(np.max(np.abs(_residual(U, h1, h2, f_full)[0])))
        history[-1] = rn
        if rn <= max(cfg.tol, rn_fold):
            break
        floor = _rounding_floor(U, h1, h2)
        if rn <= floor:
            status = "at_rounding_floor"
            break
        axes = ()

    if rn <= cfg.tol:
        status = "converged"
    return SolveOutcome(solution=GridFunction(init.rect, U),
                        final_residual=rn, iterations=iterations, status=status,
                        history=history,
                        notes=_NEWTON_NOTES[status].format(iterations=iterations,
                                                           floor=floor),
                        factorizations=factorizations, mirror_axes=mirror_axes)


def parabolic_relax(boundary, init: GridFunction, cfg: SolveConfig) -> SolveOutcome:
    """Explicit pseudo-time stepping toward the translator equation.

    Integrates u_t = residual / W^2: the W^2 normalization makes the
    linearized operator uniformly parabolic with unit-bounded coefficients,
    so a forward-Euler step dt is stable below about min(h1,h2)^2/4. Steps
    of dt = _RELAX_DT min(h1,h2)^2 are chained into first-order
    Runge-Kutta-Legendre super-steps (Meyer, Balsara & Aslam, J. Comput.
    Phys. 257, 2014): its s = _RKL_STAGES stages, one residual evaluation
    each, advance s(s+1)/2 steps' worth of pseudo-time under the stability
    bound of one step.

    iterations counts residual evaluations and max_relax_steps bounds them,
    so the last super-step takes only the stages the budget has left. The
    tol test and the history entry come at super-step ends. Residual growth
    over consecutive super-steps totalling 50 evaluations, or a nonfinite
    residual (an overflowed iterate, which is discarded for init), is
    reported as instability via converged=False. boundary is a callable or
    a GridFunction of finite Dirichlet data, which init (>= 5x5) must
    already match on its ring, as for newton_solve; the ring is never
    written.
    """
    U = _dirichlet_start(boundary, init, "parabolic_relax")
    h1, h2 = init.h1, init.h2
    dt = _RELAX_DT * min(h1, h2) ** 2

    # one stencil and one residual evaluation per stage: the residual also
    # gives the W^2 of the next stage. U holds stage j-1 and V stage j-2;
    # each stage overwrites V's interior and the two swap.
    F, Wsq = _residual(U, h1, h2)
    rn = float(np.max(np.abs(F)))
    history = [rn]
    V = U.copy()
    growth_streak = 0
    steps = 0
    status = "budget"
    notes = ""
    # an unstable dt overflows the iterate; the nonfinite residual says so
    with np.errstate(over="ignore", invalid="ignore"):
        while rn > cfg.tol and steps < cfg.max_relax_steps:
            stages = min(_RKL_STAGES, cfg.max_relax_steps - steps)
            for j in range(1, stages + 1):
                # Y_j = mu (Y_{j-1} + dt L(Y_{j-1})) + nu Y_{j-2} with L = F/W^2,
                # mu = (2j-1)/j, nu = (1-j)/j; stage 1 (mu = 1, nu = 0) is a
                # forward-Euler step
                euler = U[1:-1, 1:-1] + dt * F / Wsq
                V[1:-1, 1:-1] = (2 * j - 1) / j * euler + (1 - j) / j * V[1:-1, 1:-1]
                U, V = V, U
                F, Wsq = _residual(U, h1, h2)
            steps += stages
            rn_new = float(np.max(np.abs(F)))
            growth_streak = growth_streak + stages if rn_new > rn else 0
            rn = rn_new
            history.append(rn)
            if not np.isfinite(rn):
                status = "unstable"
                notes = f"instability: nonfinite residual at step {steps} (dt={dt:.3e})"
                break
            if growth_streak >= 50:
                status = "unstable"
                notes = (f"instability: residual grew for {growth_streak} consecutive "
                         f"steps (dt={dt:.3e} vs stability bound ~{min(h1, h2) ** 2 / 4:.3e})")
                break

    if rn <= cfg.tol:
        status = "converged"
    elif status == "budget":
        notes = f"step budget exhausted after {steps} steps"
    if not np.all(np.isfinite(U)):
        U = init.values.copy()
        notes += "; iterate discarded (nonfinite), returning init"
    return SolveOutcome(solution=GridFunction(init.rect, U),
                        final_residual=rn if np.isfinite(rn) else float("inf"),
                        iterations=steps, status=status, history=history, notes=notes)
