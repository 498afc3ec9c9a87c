"""Exact characteristic polynomials and graph energy by two independent routes.

``char_polys`` and ``spectra`` take graphs of any orders, run one stacked pass
per chunk of at most ``_CHUNK`` graphs of one order and answer in input order;
``char_poly`` and ``eigenvalues`` are batches of one.

Per chunk, the Faddeev-LeVerrier recurrence

    M_1 = A,   M_k = A (M_{k-1} + c_{k-1} I),   c_k = -tr(M_k) / k,

runs with per-graph checks that each division is exact and that c_2 = -e. It
uses a stacked ``(k, n, n)`` int64 array when ``n * 2**n * D**n < 2**62``,
where D is the largest degree in the chunk (taken as at least 1), and the
Python-integer recurrence per graph otherwise, so coefficients are exact at
any order. The bound rules out overflow: M_k = sum_{j<k} c_j A^(k-j), every
eigenvalue has |lambda| <= D so |c_j| = |e_j(lambda)| <= C(n,j) D^j, and
entries of A^i are at most D^i. Every entry of M_k, of M_k + c_k I, and every
partial sum of the non-negative combination A @ X is therefore at most
D^k sum_j C(n,j) <= 2^n D^n, and a trace adds n of them. Orders n <= 9 sit far
inside (9 * 2^9 * 8^9 < 2^40); n = 62 is outside at any degree.

``spectra`` is the authoritative energy route (symmetric eigensolver); each
:class:`Spectrum` carries the exact polynomial that gated it, through the
residual |p(lambda)| of every eigenvalue. ``energy_coulson`` integrates the
classical contour formula from the exact coefficients and serves as the
independent oracle: nothing the eigensolver computes reaches it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GraphEnergyError, InvalidFamilyError, QuadratureAccuracyError
from .graphs import FamilySpec, Graph


@dataclass(frozen=True)
class CharPoly:
    """Exact integer coefficients a_0..a_n of det(xI - A), highest power first."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class BCoeffs:
    """Sign-adjusted coefficients b_k = (-1)^(k//2) * a_k."""

    values: tuple[int, ...]


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues sorted descending, their energy and the polynomial that gated them."""

    eigenvalues: tuple[float, ...]
    energy: float
    residual: float
    charpoly: CharPoly


@dataclass(frozen=True)
class CoulsonEnergy:
    value: float
    error_bound: float
    evaluations: int


# int64 Faddeev-LeVerrier is exact while n * 2**n * D**n stays below this
# (proof in the module docstring).
_INT64_LIMIT = 1 << 62
# Graphs per stacked pass: big enough to amortise the numpy calls, small
# enough that the (k, n, n) stacks add little to peak memory.
_CHUNK = 256


def _batched(stacked: Callable[[list[Graph]], list], graphs: Sequence[Graph]) -> list:
    """``stacked`` over chunks of graphs of one order, results in input order."""
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    out: list = [None] * len(graphs)
    for index in by_order.values():
        for lo in range(0, len(index), _CHUNK):
            chunk = index[lo:lo + _CHUNK]
            for i, result in zip(chunk, stacked([graphs[i] for i in chunk])):
                out[i] = result
    return out


def _adjacency_stack(graphs: list[Graph]) -> np.ndarray:
    """``(k, n, n)`` 0/1 int64 adjacency matrices, unpacked from the bitset rows."""
    rows = np.array([g.adj for g in graphs], dtype=np.int64)
    return (rows[:, :, None] >> np.arange(rows.shape[1])) & 1


def _char_poly_exact(g: Graph) -> CharPoly:
    """The recurrence over Python integers; exact at any order."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    # A is 0/1, so A*M reduces to summing neighbour rows.
    m = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    coeffs = [1, -sum(m[i][i] for i in range(n))]
    for k in range(2, n + 1):
        ck = coeffs[-1]
        for i in range(n):
            m[i][i] += ck
        nxt = []
        for i in range(n):
            row = [0] * n
            for u in nbrs[i]:
                mu = m[u]
                for j in range(n):
                    row[j] += mu[j]
            nxt.append(row)
        m = nxt
        tr = sum(m[i][i] for i in range(n))
        if tr % k:
            raise GraphEnergyError("characteristic polynomial recurrence lost exactness")
        coeffs.append(-(tr // k))
    if n >= 2 and coeffs[2] != -g.e:
        raise GraphEnergyError("characteristic polynomial failed the edge-count identity")
    return CharPoly(tuple(coeffs))


def _stacked_char_polys(graphs: list[Graph]) -> list[CharPoly]:
    """Exact characteristic polynomials of one chunk of graphs of one order.

    Takes the int64 route only under the overflow bound of the module
    docstring, and the Python-integer recurrence per graph otherwise.
    """
    n = graphs[0].n
    a = _adjacency_stack(graphs)
    if n * 2**n * max(int(a.sum(axis=2).max()), 1) ** n >= _INT64_LIMIT:
        return [_char_poly_exact(g) for g in graphs]
    size = len(graphs)
    coeffs = np.zeros((size, n + 1), dtype=np.int64)
    traces = np.zeros((size, n + 1), dtype=np.int64)
    coeffs[:, 0] = 1
    m = a.copy()
    for k in range(2, n + 1):
        # every n+1-th entry of a contiguous (n, n) block is its diagonal
        m.reshape(size, n * n)[:, :: n + 1] += coeffs[:, k - 1, None]
        m = a @ m
        traces[:, k] = m.reshape(size, n * n)[:, :: n + 1].sum(axis=1)
        coeffs[:, k] = -(traces[:, k] // k)
    # an inexact division is reported even if the steps after it went wrong
    if (traces[:, 2:] % np.arange(2, n + 1)).any():
        raise GraphEnergyError("characteristic polynomial recurrence lost exactness")
    if n >= 2 and (coeffs[:, 2] != [-g.e for g in graphs]).any():
        raise GraphEnergyError("characteristic polynomial failed the edge-count identity")
    return [CharPoly(tuple(c)) for c in coeffs.tolist()]


def char_polys(graphs: Sequence[Graph]) -> list[CharPoly]:
    """Exact characteristic polynomials of graphs of any orders, in input order."""
    return _batched(_stacked_char_polys, graphs)


def char_poly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the adjacency matrix."""
    return char_polys([g])[0]


def b_coeffs(p: CharPoly) -> BCoeffs:
    return BCoeffs(tuple((-1) ** (k // 2) * a for k, a in enumerate(p.coeffs)))


def poly_mul(p: CharPoly, q: CharPoly) -> CharPoly:
    """Exact product; the characteristic polynomial of a disjoint union."""
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a:
            for j, b in enumerate(q.coeffs):
                out[i + j] += a * b
    return CharPoly(tuple(out))


def _stacked_spectra(graphs: list[Graph]) -> list[Spectrum]:
    """Spectra of one chunk of graphs of one order from one stacked eigensolve.

    Each graph's exact polynomial gates its eigenvalues:
    :class:`GraphEnergyError` is raised when the largest residual |p(lambda)|
    exceeds 1e-10 times the largest condition sum_k |c_k| |lambda|^(n-k), as
    it does for a wrong polynomial.
    """
    n = graphs[0].n
    polys = _stacked_char_polys(graphs)
    w = np.linalg.eigvalsh(_adjacency_stack(graphs).astype(np.float64))[:, ::-1]
    e = np.array([g.e for g in graphs], dtype=np.float64)
    if (np.abs(w.sum(axis=1)) > 1e-9 * n).any():
        raise GraphEnergyError("eigenvalue sum violates trace-zero bound")
    if (np.abs((w * w).sum(axis=1) - 2 * e) > 1e-8 * np.maximum(e, 1)).any():
        raise GraphEnergyError("eigenvalue square-sum violates the degree-sum identity")
    c = np.array([p.coeffs for p in polys], dtype=np.float64)[:, :, None]
    powers = w[:, :, None] ** np.arange(n, -1, -1)  # lambda^(n-k), k = 0..n
    residual = np.abs(powers @ c).max(axis=(1, 2))
    condition = (np.abs(powers) @ np.abs(c)).max(axis=(1, 2))
    if (residual > 1e-10 * condition).any():
        raise GraphEnergyError("eigenvalues are not roots of the characteristic polynomial")
    return [
        Spectrum(tuple(row.tolist()), float(np.abs(row).sum()), r, p)
        for row, r, p in zip(w, residual.tolist(), polys)
    ]


def spectra(graphs: Sequence[Graph]) -> list[Spectrum]:
    """Spectra of graphs of any orders, in input order, each with its polynomial."""
    return _batched(_stacked_spectra, graphs)


def eigenvalues(g: Graph) -> Spectrum:
    """All n real adjacency eigenvalues, descending; energy = sum |lambda_i|."""
    return spectra([g])[0]


def energy(g: Graph) -> float:
    return eigenvalues(g).energy


def closed_form_charpoly(spec: FamilySpec) -> CharPoly:
    """Reference closed forms for S(n,n), S(n,n+2), S(n,n+3); oracle for char_poly.

    Only x^n, x^(n-2), x^(n-3), x^(n-4) carry non-zero coefficients, so n >= 6
    keeps the four contributing powers distinct.
    """
    if spec.kind != "s" or len(spec.params) != 2:
        raise InvalidFamilyError(f"no closed form for {spec.describe()}")
    n, e = spec.params
    if n < 6:
        raise InvalidFamilyError(f"closed form for {spec.describe()} requires n >= 6")
    table = {
        0: (n, 2, n - 3),
        2: (n + 2, 6, 3 * n - 15),
        3: (n + 3, 8, 4 * n - 24),
    }
    if e - n not in table:
        raise InvalidFamilyError(f"no closed form for {spec.describe()}")
    x2, x3, x4 = table[e - n]
    coeffs = [1, 0, -x2, -x3, x4] + [0] * (n - 4)
    return CharPoly(tuple(coeffs))


# --- Coulson integral -------------------------------------------------------
#
# With D(x) = P(x)^2 + Q(x)^2 (P, Q the alternating even/odd coefficient sums)
# one has D(x) = prod_k (1 + lambda_k^2 x^2), so D's coefficients in y = x^2
# are non-negative integers and the integrand splits into two smooth pieces:
#
#   pi * E = I1 + I2 + 2n - 2m,   m = multiplicity of eigenvalue 0,
#   I1 = int_0^1 log(D(x)) / x^2 dx        (finite limit 2e at x = 0)
#   I2 = int_0^1 log(D(1/u) u^(2n)) du - 2m log-singularity removed exactly
#
# Both integrands are evaluated cancellation-free from the non-negative
# coefficient list, so plain Gauss-Kronrod adaptivity reaches 1e-7 quickly.

_KRONROD_X = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_KRONROD_W = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# Gauss(7) weights for the Kronrod abscissae with odd index (plus centre).
_GAUSS_W = {
    1: 0.129484966168870,
    3: 0.279705391489277,
    5: 0.381830050505119,
    7: 0.417959183673469,
}

_NODES = np.array([-x for x in _KRONROD_X[:-1]] + [0.0] + list(reversed(_KRONROD_X[:-1])))
_WK = np.array(list(_KRONROD_W[:-1]) + [_KRONROD_W[-1]] + list(reversed(_KRONROD_W[:-1])))
_WG = np.zeros(15)
for _i, _w in _GAUSS_W.items():
    _WG[_i] = _w
    _WG[14 - _i] = _w


def _abs2_coeffs(p: CharPoly) -> list[int]:
    """Integer coefficients d_k of P^2 + Q^2 in y = x^2; all non-negative."""
    n = p.degree
    even = [(-1) ** i * p.coeffs[2 * i] for i in range(n // 2 + 1)]
    odd = [(-1) ** i * p.coeffs[2 * i + 1] for i in range((n + 1) // 2)]
    d = [0] * (n + 1)
    for i, a in enumerate(even):
        for j, b in enumerate(even):
            d[i + j] += a * b
    for i, a in enumerate(odd):
        for j, b in enumerate(odd):
            d[i + j + 1] += a * b
    if d[0] != 1 or any(x < 0 for x in d):
        raise GraphEnergyError("squared-modulus coefficients are not a valid graph polynomial")
    return d


def _adaptive_quad(f, lo: float, hi: float, tol: float, budget: list[int]) -> tuple[float, float]:
    """Globally adaptive Gauss-Kronrod 15(7) on [lo, hi]; best-effort.

    Returns (estimate, error bound); stops refining when the bound meets
    ``tol`` or the shared evaluation budget runs out.
    """

    def eval_segs(pairs):
        a = np.array([s[0] for s in pairs])
        b = np.array([s[1] for s in pairs])
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        xs = mid[:, None] + half[:, None] * _NODES[None, :]
        budget[0] -= xs.size
        ys = f(xs.ravel()).reshape(xs.shape)
        k = (ys * _WK).sum(axis=1) * half
        gauss = (ys * _WG).sum(axis=1) * half
        return list(zip(pairs, k.tolist(), np.abs(k - gauss).tolist()))

    work = eval_segs([(lo, hi)])
    while True:
        err = sum(w[2] for w in work)
        if err <= tol or budget[0] <= 0 or len(work) > 4000:
            return sum(w[1] for w in work), err
        work.sort(key=lambda w: w[2], reverse=True)
        nsplit = max(1, len(work) // 4)
        split, keep = work[:nsplit], work[nsplit:]
        halves = []
        for (a, b), _, _ in split:
            m = 0.5 * (a + b)
            halves.append((a, m))
            halves.append((m, b))
        work = keep + eval_segs(halves)


def energy_coulson(
    p: CharPoly, *, tol: float = 1e-7, max_evals: int = 1_000_000
) -> CoulsonEnergy:
    """Graph energy from the contour-integral formula, with an error bound.

    Raises :class:`QuadratureAccuracyError` carrying the best estimate when
    the evaluation budget runs out before ``tol`` is met, and ``ValueError``
    when ``tol`` is not finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    n = p.degree
    d = _abs2_coeffs(p)
    deg = max((k for k, x in enumerate(d) if x), default=0)
    m = n - deg  # multiplicity of the zero eigenvalue
    if deg == 0:
        return CoulsonEnergy(0.0, 0.0, 0)

    # T(y) = (D(y) - 1) / y, highest power first; D has d[0] = 1 exactly, so
    # log(D) = log1p(y T(y)) costs no cancellation near x = 0.
    t_coeffs = [float(x) for x in reversed(d[1:])]
    # S(v) = reversed D with the zero-root factor v^m removed; S > 0 on [0,1].
    s_coeffs = [float(x) for x in d[: deg + 1]]

    def f1(x):
        y = x * x
        t = np.zeros_like(y)
        for c in t_coeffs:
            t = t * y + c
        return np.log1p(y * t) / y

    def f2(u):
        v = u * u
        s = np.zeros_like(v)
        for c in s_coeffs:
            s = s * v + c
        return np.log(s)

    budget = [max_evals]
    tol_each = tol * math.pi / 2.0
    i1, e1 = _adaptive_quad(f1, 0.0, 1.0, tol_each, budget)
    i2, e2 = _adaptive_quad(f2, 0.0, 1.0, tol_each, budget)
    value = (i1 + i2 + 2 * n - 2 * m) / math.pi
    bound = (e1 + e2) / math.pi
    used = max_evals - budget[0]
    if bound > tol:
        raise QuadratureAccuracyError(
            f"requested tolerance {tol:.1e} not reached (bound {bound:.1e} "
            f"after {used} evaluations)",
            value,
            bound,
        )
    return CoulsonEnergy(value, bound, used)
