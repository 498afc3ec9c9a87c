"""Exact characteristic polynomials and graph energy by two independent routes.

``char_polys`` and ``spectra`` take graphs of any orders, run one stacked pass
per chunk of at most ``_CHUNK`` graphs of one order and answer in input order;
``char_poly`` and ``energy`` are batches of one. The census path,
``census_energies(n, strings)``, decodes graph6 strings of one order straight
into each chunk's float64 stack and keeps only energies and polynomials; it and
``spectra`` share one solve, ``_solve``, with every gate of the eigensolve.

Per chunk, the Faddeev-LeVerrier recurrence

    M_1 = A,   M_k = A (M_{k-1} + c_{k-1} I),   c_k = -tr(M_k) / k,

runs on the chunk's float64 ``(k, n, n)`` adjacency stack, the one the
eigensolver reads, and c_2 = -e is checked for every graph. A graph's row is
accepted only under the certificate

    n * max_k (max |M_k| + |c_k|) < 2^53,

read from the computed values. It makes the row exact. Every integer of
magnitude below 2^53 is a float64, so a sum whose exact value is such an
integer is computed exactly. Suppose M_{k-1} and c_{k-1} are exact. Then every
entry of X = M_{k-1} + c_{k-1} I is an integer of magnitude at most
max |M_{k-1}| + |c_{k-1}|, and every partial sum of A @ X, in any order, adds
at most n of them with 0/1 weights: an integer below 2^53 by the certificate,
so M_k is exact. Each partial sum of tr(M_k) adds at most n entries of M_k, and
n max |M_k| < 2^53, so the trace is exact; it is a multiple of k (``np.fmod``
checks it on every accepted row), so c_k is exact. M_1 = A and c_1 = 0 are
exact, and by induction so is every step. The comparison itself is exact:
rounding is monotone and 2^53 is a float64, so a computed product reaches 2^53
whenever the true one does. Only accepted rows are cast to int64. Orders
n <= 9 sit far inside; K45 and every K_{a,b} up to order 62 pass, K46 fails.

The float64 steps stop once every row of the chunk has failed the
certificate. A row failing it goes alone through the recurrence modulo the
fixed primes p < 2^44 of ``_PRIMES``, all of them at once on a float64
``(P, n, n)`` stack of residues, and rebuilds each coefficient by the Chinese
remainder theorem. The primes exceed n, so division by k is multiplication by
its inverse mod p. A step adds c_{k-1} mod p in [0, p) to the diagonal,
multiplies by A and reduces with m - p * floor(m / p). A correctly rounded
m / p never falls below floor(m / p) and at most reaches the next integer: the
reduction leaves residues in (-p, p), every entry of M_k + c_k I lies in
(-p, 2p), and every partial sum of A @ X, in any order, adds at most
D <= 61 of them, D the graph's largest degree, an integer of magnitude below
2 * 61 * 2^44 < 2^51. A trace adds n <= 62 residues, below 2^50. float64
holds all of them exactly. Every eigenvalue has |lambda| <= D, so
|c_k| <= C(n,k) D^k; the fewest primes whose product exceeds
2 max_k C(n,k) D^k fix each c_k as the residue of least magnitude, and one
spare prime must agree with every rebuilt coefficient, so a wrong residue raises
:class:`GraphEnergyError` instead of corrupting the polynomial.

``spectra`` is the authoritative energy route (symmetric eigensolver); each
:class:`Spectrum` carries the exact polynomial that gated it, through the
residual |p(lambda)| of every eigenvalue, which Horner's rule evaluates from
the float64 coefficients together with its condition sum_k |c_k| |lambda|^(n-k).
``energy_coulsons`` integrates the classical contour formula from the exact
coefficients and serves as the independent oracle: nothing the eigensolver
computes reaches it. It runs one masked Gauss-Kronrod pass per chunk of
polynomials whose squared modulus has one degree, each integral refining until
it meets the tolerance or passes ``_MAX_PANELS`` panels.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GraphEnergyError, InvalidFamilyError, QuadratureAccuracyError
from .graph6 import graph6_decode
from .graphs import MAX_VERTICES, Graph


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues sorted descending, their energy and the polynomial that gated them."""

    eigenvalues: tuple[float, ...]
    energy: float
    residual: float
    charpoly: tuple[int, ...]


@dataclass(frozen=True)
class CoulsonEnergy:
    value: float
    error_bound: float
    evaluations: int


# Every integer of magnitude below this is a float64.
_FLOAT_EXACT = 2.0**53
# Primes below 2**44 for the modular route, the largest nine of them enough for
# every graph up to n = 62 (2 max_k C(62,k) 61^k < 2^369 < their product), the
# tenth a spare; fixed here, as finding them at import costs seconds.
_PRIMES = (
    17592186044399, 17592186044299, 17592186044297, 17592186044287, 17592186044273,
    17592186044267, 17592186044129, 17592186044089, 17592186044057, 17592186044039,
)
# Graphs per stacked pass: big enough to amortise the numpy calls, small
# enough that the (k, n, n) stacks add little to peak memory.
_CHUNK = 256


def _batched(stacked: Callable[[list], list], items: Sequence, size: Callable) -> list:
    """``stacked`` over chunks of items of one ``size``, results in input order."""
    by_size: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        by_size.setdefault(size(item), []).append(i)
    out: list = [None] * len(items)
    for index in by_size.values():
        for lo in range(0, len(index), _CHUNK):
            chunk = index[lo:lo + _CHUNK]
            for i, result in zip(chunk, stacked([items[i] for i in chunk])):
                out[i] = result
    return out


def _adjacency_stack(graphs: list[Graph]) -> np.ndarray:
    """``(k, n, n)`` 0/1 float64 adjacency matrices, unpacked from the bitset rows."""
    rows = np.array([g.adj for g in graphs], dtype=np.int64)
    return ((rows[:, :, None] >> np.arange(rows.shape[1])) & 1).astype(np.float64)


def _graph6_stack(n: int, strings: Sequence[str]) -> np.ndarray:
    """``(k, n, n)`` 0/1 float64 adjacency matrices of bare order-n graph6 strings, in one pass.

    On a batch failing a size byte, data byte, length or padding check, the
    first string ``graph6_decode`` rejects raises its error; one it accepts (a
    header, whitespace, another order) raises :class:`GraphEnergyError`.
    """
    k, nbits = len(strings), n * (n - 1) // 2
    width = 1 + (nbits + 5) // 6
    raw = "".join(strings).encode()
    # a non-ASCII character makes the UTF-8 bytes outrun the characters
    if 0 < n <= MAX_VERTICES and len(raw) == k * width and all(len(s) == width for s in strings):
        b = np.frombuffer(raw, dtype=np.uint8).reshape(k, width)
        data = b[:, 1:] - np.uint8(63)  # a byte below 63 wraps past 63
        bits = np.unpackbits(data[:, :, None], axis=2)[:, :, 2:].reshape(k, 6 * (width - 1))
        if (b[:, 0] == 63 + n).all() and (data < 64).all() and not bits[:, nbits:].any():
            a = np.zeros((k, n, n))
            j, i = np.tril_indices(n, -1)  # the column-major upper triangle
            a[:, i, j] = bits[:, :nbits]
            return a + a.transpose(0, 2, 1)
    for s in strings:
        graph6_decode(s)
    raise GraphEnergyError(f"census strings are not bare graph6 strings of order {n}")


def _char_poly_residues(a: np.ndarray, primes: tuple[int, ...]) -> list[list[int]]:
    """c_0..c_n modulo each prime, from the recurrence on a float64 ``(P, n, n)`` residue stack."""
    n = a.shape[0]
    size = len(primes)
    p = np.array(primes, dtype=np.float64)[:, None, None]
    m = np.repeat(a[None], size, axis=0)
    coeffs = [[1, 0] for _ in primes]
    for k in range(2, n + 1):
        m.reshape(size, n * n)[:, :: n + 1] += [[c[-1]] for c in coeffs]
        m = a @ m
        m -= p * np.floor(m / p)
        traces = m.reshape(size, n * n)[:, :: n + 1].sum(axis=1).tolist()
        for c, q, t in zip(coeffs, primes, traces):
            c.append(-int(t) * pow(k, -1, q) % q)
    return coeffs


def _modular_char_poly(a: np.ndarray) -> tuple[int, ...]:
    """The coefficients of one graph rebuilt by CRT from their residues modulo ``_PRIMES``.

    Takes the fewest primes whose product exceeds 2 max_k C(n,k) D^k, D the
    largest degree (taken as at least 1), and one spare prime whose residues
    the rebuilt coefficients must match.
    """
    n = a.shape[0]
    degree = max(int(a.sum(axis=1).max()), 1)
    bound = 2 * max(math.comb(n, k) * degree**k for k in range(n + 1))
    used = next(i for i in range(1, len(_PRIMES)) if math.prod(_PRIMES[:i]) > bound)
    primes, spare = _PRIMES[:used], _PRIMES[used]
    modulus = math.prod(primes)
    weights = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    coeffs = []
    for *column, check in zip(*_char_poly_residues(a, _PRIMES[: used + 1])):
        c = sum(r * w for r, w in zip(column, weights)) % modulus
        if c > modulus // 2:
            c -= modulus
        if (c - check) % spare:
            raise GraphEnergyError("characteristic polynomial residues disagree with the spare prime")
        coeffs.append(c)
    return tuple(coeffs)


def _stacked_char_polys(a: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Exact characteristic polynomials of one float64 ``(k, n, n)`` adjacency stack.

    Returns them as tuples of Python ints and as a float64 ``(k, n + 1)``
    array. The float64 recurrence runs on the whole stack; a graph failing
    the certificate of the module docstring takes the modular route.
    """
    size, n = a.shape[:2]
    coeffs = np.zeros((size, n + 1))
    traces = np.zeros((size, n + 1))
    coeffs[:, 0] = 1
    peak = np.ones(size)  # max_k (max |M_k| + |c_k|); M_1 = A, c_1 = 0
    m = a.copy()
    for k in range(2, n + 1):
        # every n+1-th entry of a contiguous (n, n) block is its diagonal
        m.reshape(size, n * n)[:, :: n + 1] += coeffs[:, k - 1, None]
        m = a @ m
        traces[:, k] = m.reshape(size, n * n)[:, :: n + 1].sum(axis=1)
        coeffs[:, k] = -traces[:, k] / k
        peak = np.maximum(peak, np.abs(m).max(axis=(1, 2)) + np.abs(coeffs[:, k]))
        if n * peak.min() >= _FLOAT_EXACT:
            break  # every row has failed the certificate: the steps left are wasted
    exact = n * peak < _FLOAT_EXACT
    # an inexact division is reported even if the steps after it went wrong
    if np.fmod(traces[exact, 2:], np.arange(2, n + 1)).any():
        raise GraphEnergyError("characteristic polynomial recurrence lost exactness")
    # a failed row may hold inf or NaN: only certified rows are cast
    polys = list(map(tuple, np.where(exact[:, None], coeffs, 0).astype(np.int64).tolist()))
    for i in np.flatnonzero(~exact).tolist():
        polys[i] = _modular_char_poly(a[i])
        coeffs[i] = polys[i]
    if n >= 2 and (coeffs[:, 2] != -a.sum(axis=(1, 2)) / 2).any():
        raise GraphEnergyError("characteristic polynomial failed the edge-count identity")
    return polys, coeffs


def char_polys(graphs: Sequence[Graph]) -> list[tuple[int, ...]]:
    """Exact characteristic polynomials of graphs of any orders, in input order."""
    return _batched(
        lambda chunk: _stacked_char_polys(_adjacency_stack(chunk))[0], graphs, lambda g: g.n
    )


def char_poly(g: Graph) -> tuple[int, ...]:
    """Exact det(xI - A): the Python ints a_0..a_n, highest power first."""
    return char_polys([g])[0]


def b_coeffs(p: tuple[int, ...]) -> tuple[int, ...]:
    """Sign-adjusted coefficients b_k = (-1)^(k//2) * a_k."""
    return tuple((-1) ** (k // 2) * a for k, a in enumerate(p))


def _solve(a: np.ndarray) -> tuple[np.ndarray, list[tuple[int, ...]], list[float]]:
    """Descending eigenvalues, exact polynomials and residuals of one ``(k, n, n)`` stack.

    One stacked eigensolve, gated by the trace-zero and square-sum identities
    and by each graph's exact polynomial: :class:`GraphEnergyError` is raised
    when the largest residual |p(lambda)| exceeds 1e-10 times the largest
    condition sum_k |c_k| |lambda|^(n-k), as it does for a wrong polynomial.
    """
    n = a.shape[1]
    polys, c = _stacked_char_polys(a)
    w = np.linalg.eigvalsh(a)[:, ::-1]
    e = a.sum(axis=(1, 2)) / 2
    if (np.abs(w.sum(axis=1)) > 1e-9 * n).any():
        raise GraphEnergyError("eigenvalue sum violates trace-zero bound")
    if (np.abs((w * w).sum(axis=1) - 2 * e) > 1e-8 * np.maximum(e, 1)).any():
        raise GraphEnergyError("eigenvalue square-sum violates the degree-sum identity")
    residual = np.abs(_horner(c, w)).max(axis=1)
    condition = _horner(np.abs(c), np.abs(w)).max(axis=1)
    if (residual > 1e-10 * condition).any():
        raise GraphEnergyError("eigenvalues are not roots of the characteristic polynomial")
    return w, polys, residual.tolist()


def _stacked_spectra(graphs: list[Graph]) -> list[Spectrum]:
    w, polys, residuals = _solve(_adjacency_stack(graphs))
    return [
        Spectrum(tuple(row.tolist()), float(np.abs(row).sum()), r, p)
        for row, r, p in zip(w, residuals, polys)
    ]


def spectra(graphs: Sequence[Graph]) -> list[Spectrum]:
    """Spectra of graphs of any orders, in input order, each with its polynomial."""
    return _batched(_stacked_spectra, graphs, lambda g: g.n)


def census_energies(n: int, strings: Sequence[str]) -> Iterator[tuple[float, tuple[int, ...]]]:
    """(energy, polynomial) per bare order-n graph6 string, in input order, building no graph."""
    for lo in range(0, len(strings), _CHUNK):
        w, polys, _ = _solve(_graph6_stack(n, strings[lo:lo + _CHUNK]))
        yield from zip(np.abs(w).sum(axis=1).tolist(), polys)


def energy(g: Graph) -> float:
    """sum |lambda_i| over the adjacency eigenvalues of one graph."""
    return spectra([g])[0].energy


def closed_form_charpoly(n: int, e: int) -> tuple[int, ...]:
    """Reference closed forms for S(n,n), S(n,n+2), S(n,n+3); oracle for char_poly.

    Only x^n, x^(n-2), x^(n-3), x^(n-4) carry non-zero coefficients, so n >= 6
    keeps the four contributing powers distinct.
    """
    if n < 6:
        raise InvalidFamilyError(f"closed form for S({n},{e}) requires n >= 6")
    table = {
        0: (n, 2, n - 3),
        2: (n + 2, 6, 3 * n - 15),
        3: (n + 3, 8, 4 * n - 24),
    }
    if e - n not in table:
        raise InvalidFamilyError(f"no closed form for S({n},{e})")
    x2, x3, x4 = table[e - n]
    return (1, 0, -x2, -x3, x4) + (0,) * (n - 4)


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
# The one work limit of the quadrature: an integral stops refining once it has
# more than this many panels, so it ends with at most 5,000 (each round splits
# a quarter of them) and at most 15 * (2 * 5,000 - 1) evaluations.
_MAX_PANELS = 4000


def _abs2_coeffs(p: tuple[int, ...]) -> tuple[int, list[int]]:
    """``(n, d)``: d_k, the integer coefficients of P^2 + Q^2 in y = x^2 up to its degree.

    P and Q take the even and odd b_k. All d_k are non-negative and d_0 = 1.
    """
    n = len(p) - 1
    signed = b_coeffs(p)
    even, odd = signed[0::2], signed[1::2]
    d = [0] * (n + 1)
    for i, a in enumerate(even):
        for j, b in enumerate(even):
            d[i + j] += a * b
    for i, a in enumerate(odd):
        for j, b in enumerate(odd):
            d[i + j + 1] += a * b
    if d[0] != 1 or any(x < 0 for x in d):
        raise GraphEnergyError("squared-modulus coefficients are not a valid graph polynomial")
    deg = max(k for k, x in enumerate(d) if x)
    return n, d[: deg + 1]


def _horner(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row i of ``c`` (highest power first) evaluated at every entry of row i of ``y``."""
    acc = np.zeros_like(y)
    for j in range(c.shape[1]):
        acc = acc * y + c[:, j, None]
    return acc


def _log_d_over_x2(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """I1's integrand log(D(x)) / x^2 = log1p(y T(y)) / y, y = x^2: no cancellation near 0."""
    y = x * x
    return np.log1p(y * _horner(t, y)) / y


def _log_s(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """I2's integrand log(S(u^2)); S > 0 on [0, 1]."""
    return np.log(_horner(s, u * u))


def _gk15(f, coeffs: np.ndarray, gid: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Kronrod estimates and |Kronrod - Gauss| errors of f on panels [a, b] of rows ``gid``."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ys = f(mid[:, None] + half[:, None] * _NODES, coeffs[gid])
    k = (ys * _WK).sum(axis=1) * half
    return k, np.abs(k - (ys * _WG).sum(axis=1) * half)


def _adaptive_gk15(f, coeffs: np.ndarray, tol: float):
    """Globally adaptive Gauss-Kronrod 15(7) on [0, 1] for every row of ``coeffs`` at once.

    Row g refines on its own: each round it splits the quarter of its panels
    with the largest errors while its summed error exceeds ``tol`` and it has
    at most ``_MAX_PANELS`` panels. Each row's panels stay in the order a
    batch of one keeps them, so ``np.bincount`` adds them up in that order.
    Returns per-row (estimates, error bounds, evaluations); best-effort.
    """
    rows = len(coeffs)
    gid = np.arange(rows)
    a, b = np.zeros(rows), np.ones(rows)
    pan = np.column_stack((a, b, *_gk15(f, coeffs, gid, a, b)))  # lo, hi, estimate, error
    value, bound, panels = np.empty(rows), np.empty(rows), np.empty(rows, dtype=np.int64)
    while True:
        count = np.bincount(gid, minlength=rows)
        total = np.bincount(gid, pan[:, 3], minlength=rows)
        done = (count > 0) & ((total <= tol) | (count > _MAX_PANELS))
        if done.any():
            value[done] = np.bincount(gid, pan[:, 2], minlength=rows)[done]
            bound[done] = total[done]
            panels[done] = count[done]
            live = ~done[gid]
            gid, pan = gid[live], pan[live]
            if not gid.size:
                # c panels took the first one and c - 1 splits into two halves
                return value.tolist(), bound.tolist(), (_NODES.size * (2 * panels - 1)).tolist()
            count[done] = 0
        # by row, then by error descending; stable, as a batch of one sorts
        order = np.lexsort((-pan[:, 3], gid))
        gid, pan = gid[order], pan[order]
        rank = np.arange(gid.size) - (np.cumsum(count) - count)[gid]
        split = rank < np.maximum(1, count // 4)[gid]
        # each split panel [lo, hi] becomes [lo, mid] and [mid, hi], appended in turn
        lo, hi = pan[split, 0], pan[split, 1]
        mid = 0.5 * (lo + hi)
        hgid = np.repeat(gid[split], 2)
        ha, hb = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
        halves = np.column_stack((ha, hb, *_gk15(f, coeffs, hgid, ha, hb)))
        gid, pan = np.concatenate((gid[~split], hgid)), np.concatenate((pan[~split], halves))


def _stacked_coulson(items: list[tuple[int, list[int]]], tol: float) -> list[CoulsonEnergy]:
    """Coulson energies of one chunk of polynomials whose D has one degree."""
    deg = len(items[0][1]) - 1
    if deg == 0:
        return [CoulsonEnergy(0.0, 0.0, 0)] * len(items)
    d = np.array([[float(x) for x in di] for _, di in items])
    tol_each = tol * math.pi / 2.0
    # T(y) = (D(y) - 1) / y, highest power first: d_deg .. d_1
    i1, e1, n1 = _adaptive_gk15(_log_d_over_x2, d[:, :0:-1], tol_each)
    # S(v) = reversed D with the zero-root factor v^m removed: d_0 .. d_deg
    i2, e2, n2 = _adaptive_gk15(_log_s, d, tol_each)
    # pi * E = I1 + I2 + 2n - 2m, m = n - deg the multiplicity of eigenvalue 0
    return [
        CoulsonEnergy((i1[g] + i2[g] + 2 * n - 2 * (n - deg)) / math.pi,
                      (e1[g] + e2[g]) / math.pi, n1[g] + n2[g])
        for g, (n, _) in enumerate(items)
    ]


def energy_coulsons(polys: Sequence[tuple[int, ...]], *, tol: float = 1e-7) -> list[CoulsonEnergy]:
    """Graph energies from the contour-integral formula, with error bounds, in input order.

    One masked Gauss-Kronrod pass runs per chunk of at most ``_CHUNK``
    polynomials whose D has one degree; each polynomial keeps its own
    refinement and bound, so a batch gives bit for bit what each polynomial
    gives alone. Each integral stops refining past ``_MAX_PANELS`` panels.
    Raises :class:`QuadratureAccuracyError` for the first polynomial, in
    input order, that misses ``tol`` within that limit, carrying that
    polynomial's best estimate, and ``ValueError`` when ``tol`` is not finite
    and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    results = _batched(
        lambda chunk: _stacked_coulson(chunk, tol),
        [_abs2_coeffs(p) for p in polys],
        lambda item: len(item[1]),
    )
    for r in results:
        if r.error_bound > tol:
            raise QuadratureAccuracyError(
                f"requested tolerance {tol:.1e} not reached (bound {r.error_bound:.1e} "
                f"after {r.evaluations} evaluations)",
                r.value,
                r.error_bound,
            )
    return results
