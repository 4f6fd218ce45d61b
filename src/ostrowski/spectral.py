"""Correlations, discrete Fourier tables, and exponential sums of
digit-multiplicative functions.

Sign conventions, fixed package-wide: exponential sums carry e(-n*beta), and
the Fourier coefficients at level lam are

    G_lam(h) = (1/q_lam) * sum_{u < q_lam} g(u) e(-h*u/q_lam),

the convention under which the cyclic correlation identity

    sum_h |G_lam(h)|^2 e(h*r/q_lam)
        = (1/q_lam) * sum_{v < q_lam} g((v+r) mod q_lam) * conj(g(v))

holds exactly for every complex-valued g, not just conjugation-symmetric ones.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from math import prod

import numpy as np

from .alphafun import AlphaFunction, _Rows, values_range
from .errors import CapError, RangeError, ValidationError
from .numeration import encode
from .numerics import check_size, frac_mul_array, pairwise_sum, unit

DFT_CAP = 1 << 20      # hard cap on transform length

EXACT_RESIDUAL_MAX = 1e-3   # largest |c - rint(c)| accepted as a Gaussian-integer sum
EXACT_INT_MAX = 1 << 53     # integers up to here are exact floats, and so are their sums
EXACT_FFT_NORM_MAX = 1 << 40  # largest |x| * |y| (2-norms) of one transform whose rounding is trusted

GRID_DEFAULT = 4096
REFINE_WIDTH = 1e-6
REFINE_PEAKS = 5
PEAK_TIE_ULPS = 64  # spectrum candidates this many ulps below the largest tie with it

SIEVE_SLACK = 1e-9  # additive slack of the large-sieve bound
VDC_SLACK = 1e-9    # slack of the van der Corput bound, in units of L**2


def correlation(g: AlphaFunction, r: int, N: int) -> complex:
    """Autocorrelation (1/N) sum_{n<N} g(n+r) * conj(g(n)), fixed-order summation."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    if r < 0:
        raise ValidationError("r must be >= 0")
    vals = values_range(g, N + r)  # RangeError if the scale cannot cover N + r
    return pairwise_sum(vals[r : r + N] * np.conj(vals[:N])) / N


@dataclass(frozen=True)
class CorrelationProfile:
    """gamma[r] = correlation(g, r, N) for r < R, plus its two summary means.

    route names the computation that produced gamma: "levels-exact"
    (bit for bit correlation()) or "levels" (within 1e-13 * max|g|**2 of
    it); see correlation_profile.
    """

    R: int
    N: int
    gamma: np.ndarray
    quadratic_mean: float
    absolute_mean: float
    route: str


def _profile_means(gamma: np.ndarray) -> tuple[float, float]:
    """(Q, A): the means of |gamma_r|**2 and of |gamma_r| over the given shifts."""
    power = gamma.real**2 + gamma.imag**2
    quad = pairwise_sum(power).real / len(gamma)
    absm = pairwise_sum(np.abs(gamma)).real / len(gamma)
    return quad, absm


def _lagged_sums(x: np.ndarray, R: int, y: np.ndarray | None = None) -> np.ndarray:
    """c[r] = sum_u x[u+r] * conj(y[u]) for r < R, both zero-padded; y defaults to x.

    One transform pair of length L >= max(len(x), len(y) + R - 1), so no lag
    below R wraps around.
    """
    y_len = len(x) if y is None else len(y)
    if len(x) == 0 or y_len == 0:
        return np.zeros(R, dtype=np.complex128)
    L = 1 << (max(len(x), y_len + R - 1) - 1).bit_length()
    fx = np.fft.fft(x, L)
    fy = fx if y is None else np.fft.fft(y, L)
    return np.fft.ifft(fx * np.conj(fy))[:R]


class _Inexact(Exception):
    """The level sums could not be trusted to round to their Gaussian integers."""


def _rint_sums(x: np.ndarray, R: int, y: np.ndarray | None = None) -> np.ndarray:
    """_lagged_sums of Gaussian-integer inputs, rounded to the Gaussian integers they are.

    Raises _Inexact when the input norms could carry the transform's error
    near 1/2, or when any result sits EXACT_RESIDUAL_MAX or more off the
    integers.
    """
    xx = np.vdot(x, x).real
    yy = xx if y is None else np.vdot(y, y).real
    if xx * yy > float(EXACT_FFT_NORM_MAX) ** 2:
        raise _Inexact
    c = _lagged_sums(x, R, y)
    exact = np.rint(c)
    if np.max(np.abs(c - exact)) >= EXACT_RESIDUAL_MAX:
        raise _Inexact
    return exact


def _level_sums(g: AlphaFunction, R: int, N: int, digits: tuple[int, ...], lag) -> np.ndarray:
    """c[r] = sum_{n<N} g(n+r) conj(g(n)) for r < R; digits are those of M - 1 = N + R - 2.

    Let k0 be the first level with q_k0 >= R.  The only value block is the
    seed g(n), n < q_{k0+1}; lag (_lagged_sums, or _rint_sums for exact
    sums) turns blocks into lagged sums.  Write h(u) = g(u) for u < R,
    T_k(s) = g(q_k - s) for 1 <= s < R, v_k = g.atoms[k], a = a_{k+1} and

        A_k(r) = sum_{u < q_k - r} g(u+r) conj(g(u)),
        X_k(r) = sum_{1 <= s <= r} h(r-s) conj(T_k(s)).

    [0, q_{k+1}) is a blocks b*q_k + [0, q_k), b < a, then a*q_k + [0, q_{k-1});
    a pair at lag r < R <= q_{k-1} stays in its block or crosses into the next, so

        A_{k+1} = S2 A_k + |v_k(a)|^2 A_{k-1} + S1 X_k,   T_{k+1} = v_k(a) T_{k-1}
        (S2 = sum_{b<a} |v_k(b)|^2, S1 = sum_{b<a} v_k(b+1) conj(v_k(b))).

    So T_k = tau_k T_{k0 + (k-k0) % 2} and X_k = conj(tau_k) X_{k0 + (k-k0) % 2}:
    every A_k is a combination of the four basis sums A_k0, A_{k0+1}, X_k0,
    X_{k0+1}, and its coefficients follow the recursion as scalars.

    The digits walked from the top split [0, M) into pieces c * g([0, q_k)),
    c = (prod_{j>k} v_j(d_j)) v_k(b) for each b < d_k, and the point M - 1.
    The pieces at levels >= k0 end at S and hold
    D = sum |c_i|^2 A_{k_i} + sum c_{i+1} conj(c_i) X_{k_i} over consecutive
    pieces.  The window W = g on [S - R + 1, M), the last long piece's tail
    followed by the short pieces, has length R - 1 + t, and

        c = D + acorr(W) - acorr(W[:R-1]) - acorr(W[t:]),

    the last term dropping the pairs with n >= N.  When M <= q_{k0+1}, or the
    table has no level k0 + 1, c comes from one dense block v = g([0, M)) as
    the lagged sums of v against v[:N].
    """
    q = g.scale.q
    M = N + R - 1
    k0 = bisect.bisect_left(q, R)
    if k0 + 1 >= len(q) or M <= q[k0 + 1]:
        check_size(M + R, "correlation block")
        vals = values_range(g, M)
        return lag(vals, R, vals[:N])
    check_size(q[k0 + 1] + R, "correlation seed")
    seed = values_range(g, q[k0 + 1])

    long, short = [], []  # (level, coefficient) of the pieces of [0, M), in order
    H = 1 + 0j
    for k in reversed(range(len(digits))):
        row = g.atoms[k][: digits[k] + 1].tolist()  # Python complex: numpy's scalar products round otherwise
        (long if k >= k0 else short).extend((k, H * row[b]) for b in range(digits[k]))
        H *= row[digits[k]]
    (long if k0 == 0 else short).append((0, H))

    span = long[0][0] - k0 + 1  # levels k0..top
    coef = np.zeros((span, 4), dtype=np.complex128)  # A_k over (A_k0, A_k0+1, X_k0, X_k0+1)
    tau = np.ones(span, dtype=np.complex128)
    coef[0, 0] = coef[1, 1] = 1
    for j in range(1, span - 1):
        row = g.atoms[k0 + j].tolist()
        a = len(row) - 1
        s2 = sum(v.real**2 + v.imag**2 for v in row[:a])
        s1 = sum(w * v.conjugate() for v, w in zip(row, row[1:]))
        coef[j + 1] = s2 * coef[j] + (row[a].real**2 + row[a].imag**2) * coef[j - 1]
        coef[j + 1, 2 + j % 2] += s1 * tau[j].conjugate()
        tau[j + 1] = row[a] * tau[j - 1]

    d = np.zeros(4, dtype=np.complex128)
    for (k, c), after in zip(long, long[1:] + [None]):
        j = k - k0
        d += (c.real**2 + c.imag**2) * coef[j]
        if after is not None:
            d[2 + j % 2] += after[1] * (c * tau[j]).conjugate()

    head = np.concatenate((np.zeros(R - 1, dtype=np.complex128), seed[:R]))
    tails = [seed[qk - R + 1 : qk] for qk in (q[k0], q[k0 + 1])]
    basis = (lag(seed[: q[k0]], R), lag(seed, R), lag(head, R, tails[0]), lag(head, R, tails[1]))
    total = sum(dk * b for dk, b in zip(d, basis))

    k, c = long[-1]
    j = k - k0
    window = np.concatenate([c * tau[j] * tails[j % 2]] + [cs * seed[: q[ks]] for ks, cs in short])
    t = len(window) - (R - 1)
    return total + lag(window, R) - lag(window[: R - 1], R) - lag(window[t:], R)


def _gaussian_square_bound(g: AlphaFunction, K: int) -> int | None:
    """B**2 = prod over rows k < K of max_b |v_k(b)|**2 if every atom there is a Gaussian integer, else None;
    the squares are floats, exact up to 2**53 (all the exact route takes) and at least 2**53 past it."""
    atoms = g.flat[: g.starts[K]]
    if not np.array_equal(np.rint(atoms), atoms):
        return None
    return prod(map(int, np.maximum.reduceat(atoms.real**2 + atoms.imag**2, g.starts[:K]).tolist()))


def correlation_profile(g: AlphaFunction, R: int, N: int) -> CorrelationProfile:
    """Correlations for all shifts r < R at a common N, from the level recursion.

    The sums come from _level_sums, whose only value block has
    min(N + R - 1, q_{k0+1}) entries (k0 the first level with q_k0 >= R),
    so N may run up to the scale's limit while R + q_{k0+1} stays within
    RANGE_CAP (CapError otherwise, before anything is allocated).  Its cost
    is O(q_{k0+1} log q_{k0+1} + R log R + sum a_k).

    When every atom on the rows the digits of N + R - 2 reach is a Gaussian
    integer (theta in {0, 1/4, 1/2, 3/4}, or an integer atom table) and
    (N + R - 1) * B**2 <= EXACT_INT_MAX = 2**53, B the product of those
    rows' largest moduli, every partial sum is an exact float: the
    transform outputs are rounded to their Gaussian integers and the
    result divided by N part by part, so each gamma[r] is bit for bit
    correlation(g, r, N) ("levels-exact").

    Otherwise ("levels": other atoms, that bound failing, a rounding
    residual reaching EXACT_RESIDUAL_MAX, or a transform's input norms
    passing EXACT_FFT_NORM_MAX) gamma agrees with correlation() to within
    1e-13 * max_{n < N+R-1} |g(n)|^2, which is 1e-13 for unimodular atoms
    (measured for theta in {0.1234567, 1/3}: at most 8.9e-16 over golden,
    silver, [1,2] and [1,2,3,1,1,4], R from 1 to 8192, N at q_k +- 1,
    q_k + R - 1 and q_k + R up to 2**21; at most 1.3e-15 over those,
    /1000, 3/7,1 and list:1,...,20 with N from 1 to 2000 and R from 1 to
    300; 1.8e-16 * max|g|^2 for random atom tables of modulus up to 2 and
    integer tables in [-3, 3]).
    """
    if N < 1:
        raise ValidationError("N must be >= 1")
    if R < 1:
        raise ValidationError("R must be >= 1")
    M = N + R - 1
    if M > g.scale.limit:
        raise RangeError(f"N + R - 1 = {M} past the scale limit {g.scale.limit}")
    digits = encode(M - 1, g.scale).digits
    square_bound = _gaussian_square_bound(g, len(digits))
    try:
        if square_bound is None or M * square_bound > EXACT_INT_MAX:
            raise _Inexact
        c = _level_sums(g, R, N, digits, _rint_sums)
    except _Inexact:
        gamma, route = _level_sums(g, R, N, digits, _lagged_sums) / N, "levels"
    else:
        gamma, route = np.empty(R, dtype=np.complex128), "levels-exact"
        gamma.real = c.real / N  # parts divided on their own, as Python's complex / int does
        gamma.imag = c.imag / N
    quad, absm = _profile_means(gamma)
    return CorrelationProfile(R, N, gamma, quad, absm, route)


def quadratic_mean(profile: CorrelationProfile, R: int | None = None) -> float:
    """Q(R) = (1/R) sum_{r<R} |gamma_r|^2 from a stored profile prefix."""
    R = profile.R if R is None else R
    if not 1 <= R <= profile.R:
        raise RangeError(f"R={R} outside the profile range 1..{profile.R}")
    return _profile_means(profile.gamma[:R])[0]


@dataclass(frozen=True)
class FourierTable:
    """G[h] for h < q_lam at truncation level lam, and the value block g(u), u < q_lam, of G."""

    lam: int
    q: int
    G: np.ndarray
    values: np.ndarray

    def parseval(self) -> tuple[float, float, float]:
        """(sum_h |G|^2, (1/q) sum_u |g(u)|^2, |difference|): Parseval's identity on this table."""
        lhs = pairwise_sum(self.G.real**2 + self.G.imag**2).real
        rhs = pairwise_sum(self.values.real**2 + self.values.imag**2).real / self.q
        return lhs, rhs, abs(lhs - rhs)


def _dft_fast(vals: np.ndarray) -> np.ndarray:
    """Exact-length fast transform, the route of every Fourier table; an O(q^2) sum is its test oracle."""
    return np.fft.fft(vals) / len(vals)


def fourier_coeffs(g: AlphaFunction, lam: int) -> FourierTable:
    """Fourier table of g at level lam, from one value block (CapError past DFT_CAP)."""
    if not 0 <= lam <= g.scale.K:
        raise RangeError(f"lam={lam} outside 0..{g.scale.K}")
    q = g.scale.q[lam]
    if q > DFT_CAP:
        raise CapError(f"q_lam = {q} exceeds the transform cap {DFT_CAP}")
    vals = values_range(g, q)
    return FourierTable(lam, q, _dft_fast(vals), vals)


def cyclic_identity_sweep(g: AlphaFunction, lam: int, r_values) -> list[float]:
    """Deltas |lhs - rhs| of the cyclic identity for many shifts off one Fourier table.

    lhs = sum_h |G(h)|^2 e(h*r/q); rhs = (1/q) sum_v g((v+r) mod q) conj(g(v)).
    Both sides come from one (shifts x q_lam) matrix each, so the shift count
    times q_lam stays within RANGE_CAP (CapError otherwise); delta stays
    below 1e-10 * q_lam.  The phases e(j/q) are one table of q roots read at
    j = (h*r) mod q: the same arguments as one e() per entry, bit for bit;
    the shifted values g((v+r) mod q) are read from g's block written twice.
    Shifts that have a length are counted against the cap before they are listed.
    """
    if hasattr(r_values, "__len__") and 0 <= lam <= g.scale.K:
        check_size(len(r_values) * g.scale.q[lam], "cyclic identity matrix")
    r = list(map(int, r_values))
    if any(shift < 0 for shift in r):
        raise ValidationError("r must be >= 0")
    table = fourier_coeffs(g, lam)
    q, vals = table.q, table.values
    check_size(len(r) * q, "cyclic identity matrix")
    power = table.G.real**2 + table.G.imag**2
    h = np.arange(q, dtype=np.int64)
    s = np.array([shift % q for shift in r], dtype=np.int64)  # only r mod q is read: any r >= 0 fits
    hs = np.multiply.outer(s, h)
    hs -= hs // q * q  # (h*s) mod q: floor_divide by a scalar has a fast path that % lacks
    lhs = (power * unit(h / q)[hs]).sum(axis=1)
    rhs = (np.concatenate([vals, vals])[h + s[:, None]] * np.conj(vals)).sum(axis=1)  # h + s < 2q
    # parts divided on their own and libm's hypot: Python's abs(lhs - rhs / q), bit for bit
    return np.hypot(lhs.real - rhs.real / q, lhs.imag - rhs.imag / q).tolist()


def exponential_sum(g: AlphaFunction, beta: float, N: int) -> complex:
    """(1/N) sum_{n<N} g(n) e(-n*beta); CapError past RANGE_CAP (from values_range)."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    vals = values_range(g, N)
    return pairwise_sum(vals * unit(frac_mul_array(np.arange(N), -beta))) / N


def _scale_partials(sums, lasts):
    """Yield P_i = sum_{n<q_i} h(n) for i = 0..len(sums), from the atom rows of h.

    [0, q_{i+1}) splits into the a = a_{i+1} blocks b*q_i + [0, q_i), b < a,
    and the block a*q_i + [0, q_{i-1}), so with P_{-1} = 0 and P_0 = 1

        P_{i+1} = (sum_{b<a} v_i(b)) P_i + v_i(a) P_{i-1},

    where sums[i] = sum_{b<a} v_i(b) and lasts[i] = v_i(a): complex numbers,
    or (B,) arrays for B functions at once.
    """
    P, prev = 1 + 0j, 0j
    yield P
    for s, v in zip(sums, lasts):
        P, prev = s * P + v * prev, P
        yield P


def scale_sums(g: AlphaFunction, beta: float, K: int | None = None) -> np.ndarray:
    """Averages S_i = (1/q_i) sum_{n<q_i} g(n) e(-n*beta) for i = 0..K.

    K defaults to scale.K and may be up to scale.rows: one past scale.K when
    a_next is known, where the last average runs over n < q_{K+1} = scale.limit.

    S_i = P_i / q_i, with P_i from the recurrence of _scale_partials run on
    g's atom rows twisted by beta (_Rows.sums, the twist of alphafun.twist).
    The twist reduces each phase b*q_k*beta exactly (frac_mul_array), so
    scales up to q_K ~ 2**63 are served and S_i matches the direct average
    to rounding (measured: at most 2.5e-16 for q_i <= 1e5).  This is the
    one-beta case of _scale_sums, which twists the rows for many betas in one
    batched reduction; the spectrum_scan probes run the same recurrence on
    the same twist (see _digit_exp_sums).  For unimodular atoms each step is
    a convex-type combination, so |S_{i+1}| never exceeds
    max(|S_i|, |S_{i-1}|) beyond rounding.

    When the twisted atoms are Gaussian integers (beta = 0 or a multiple of
    1/4 with theta a multiple of 1/4) every P_i is an exact integer only
    while it stays <= 2**53: at theta = beta = 0, S_i is exactly 1 up to the
    last q_i <= 2**53 (golden q_77, silver q_41) and may round past it
    (golden q_81 ~ 6.1e16 and silver q_43 give 0.9999999999999999).
    """
    scale = g.scale
    if K is None:
        K = scale.K
    if not 0 <= K <= scale.rows:
        raise RangeError(f"K={K} outside 0..{scale.rows}")
    return _scale_sums(g, np.array([beta], dtype=np.float64), K)[0]


def _scale_sums(g: AlphaFunction, betas: np.ndarray, K: int) -> np.ndarray:
    """(B, K + 1) array whose row j is scale_sums(g, betas[j], K); K may also
    be g.scale.rows, one past g.scale.K where a_next is known, with q_K the limit."""
    rows = _Rows.of(g, K)
    out = np.empty((len(betas), K + 1), dtype=np.complex128)
    ((sums, lasts),) = rows.sums(betas, rows.last)
    for i, (P, q) in enumerate(zip(_scale_partials(sums, lasts), (*g.scale.q, g.scale.limit))):
        out.real[:, i] = P.real / q  # parts divided on their own, as Python's complex / int does
        out.imag[:, i] = P.imag / q
    return out


@dataclass(frozen=True)
class _DigitPlan:
    """The beta-independent part of the digit route for lengths N[0], N[1], ... of one g.

    digits[r, k] is the Ostrowski digit eps_k of N[r] - 1, 0 past its top;
    rows holds g's rows 0..K-1, K the most digits of any N[r] - 1, the top
    row up to its largest digit, so every multiplier b * q_k is at most
    max N[r] - 1.
    """

    N: np.ndarray
    digits: np.ndarray
    rows: _Rows


def _digit_plan(g: AlphaFunction, lengths) -> _DigitPlan:
    expansions = [encode(N - 1, g.scale).digits for N in lengths]
    K = max(map(len, expansions))
    digits = np.zeros((len(expansions), K), dtype=np.intp)
    for r, eps in enumerate(expansions):
        digits[r, : len(eps)] = eps
    return _DigitPlan(np.array(lengths), digits, _Rows.of(g, K, digits[:, -1:].max(initial=0) + 1))


def _digit_exp_sums(plan: _DigitPlan, betas, length=None) -> np.ndarray:
    """(1/N) sum_{n<N} g(n) e(-n*beta) for each of B betas, in O(B * sum a_k) from the digits of N - 1.

    betas[j] is summed up to N = plan.N[length[j]] (length defaults to all 0).
    With h = g twisted by beta, v_k(b) its atoms, P_k = sum_{n<q_k} h(n) and
    eps_k the digits of N - 1 = sum_k eps_k q_k, let m_k = sum_{j<k} eps_j q_j
    and T_k = sum_{n<=m_k} h(n).  Splitting [0, m_{k+1}] at the multiples of
    q_k gives T_0 = 1 and

        T_{k+1} = (sum_{b<eps_k} v_k(b)) P_k + v_k(eps_k) T_k,

    the block decomposition sum_k H_{>k} (sum_{b<eps_k} v_k(b)) P_k + h(N-1)
    evaluated from the lowest digit up (H_{>k}: product of v_j(eps_j), j > k);
    a digit eps_k = 0 leaves T_k as it is (the step 0 * P_k + 1 * T_k, skipped
    where no beta has a digit).  The recursion runs on (B,) arrays, each entry
    as a one-beta call runs it up to signed zeros, so an entry does not
    depend on the other betas.
    """
    betas = np.asarray(betas, dtype=np.float64)
    length = np.zeros(len(betas), dtype=np.intp) if length is None else np.asarray(length)
    eps = plan.digits[length]
    (sums, lasts), (below, at) = plan.rows.sums(betas, plan.rows.last, eps)
    total = np.ones(len(betas), dtype=np.complex128)
    steps = (eps > 0).any(axis=0).tolist()
    for step, s, v, P in zip(steps, below, at, _scale_partials(sums, lasts)):
        if step:
            total = s * P + v * total
    N = plan.N[length]
    out = np.empty(len(betas), dtype=np.complex128)
    out.real = total.real / N  # parts divided on their own, as Python's complex / int does
    out.imag = total.imag / N
    return out


@dataclass(frozen=True)
class SpectrumScan:
    """Result of a Fourier-Bohr sweep: best frequency found and the grid profile."""

    beta_peak: float
    peak_value: float
    grid: np.ndarray  # |exponential sum| at beta = j/grid_size


def _top_local_maxima(profile: np.ndarray, k: int) -> np.ndarray:
    """The k largest cyclic local maxima (>= both neighbours): value descending, then index."""
    idx = np.flatnonzero((profile >= np.roll(profile, 1)) & (profile >= np.roll(profile, -1)))
    return idx[np.lexsort((idx, -profile[idx]))[:k]]


def _refine(plan: _DigitPlan, grids) -> list[list[tuple[float, float]]]:
    """Each scan's candidates (beta, |sum|) in order; grids[r] is the grid at length plan.N[r].

    See spectrum_scan.  The ternary rounds of all peaks of all scans run in
    lockstep: each round's probes, two per peak still wider than
    REFINE_WIDTH, are one _digit_exp_sums call, and so are the final
    midpoints.
    """
    length, bounds, trails = [], [], []
    for r, grid in enumerate(grids):
        M = len(grid)
        for j in _top_local_maxima(grid, REFINE_PEAKS).tolist():
            length.append(r)
            bounds.append([(j - 1) / M, (j + 1) / M])
            trails.append([(j / M, float(grid[j]))])
    active = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > REFINE_WIDTH]
    while active:
        probes = []
        for i in active:
            lo, hi = bounds[i]
            probes += [lo + (hi - lo) / 3, hi - (hi - lo) / 3]
        sums = _digit_exp_sums(plan, probes, np.repeat([length[i] for i in active], 2))
        values = np.abs(sums).tolist()
        for n, i in enumerate(active):
            m1, m2, f1, f2 = probes[2 * n], probes[2 * n + 1], values[2 * n], values[2 * n + 1]
            trails[i] += [(m1, f1), (m2, f2)]
            if f1 < f2:
                bounds[i][0] = m1
            else:
                bounds[i][1] = m2
        active = [i for i in active if bounds[i][1] - bounds[i][0] > REFINE_WIDTH]
    mids = [(lo + hi) / 2 for lo, hi in bounds]
    for trail, mid, value in zip(trails, mids, np.abs(_digit_exp_sums(plan, mids, length)).tolist()):
        trail.append((mid, value))
    out = [[(0.0, float(grid[0]))] for grid in grids]
    for r, trail in zip(length, trails):
        out[r] += trail
    return out


def _peak(candidates) -> tuple[float, float]:
    """The peak (beta mod 1, |sum|) of a scan's candidates (beta, |sum|).

    It is the candidate of smallest beta mod 1 among those within
    PEAK_TIE_ULPS ulps of the largest |sum|.  A real g has
    |S(beta)| = |S(1 - beta)|: its peaks come in mirror pairs that differ
    only by rounding, and the rule reports the same one of a pair whichever
    of the two rounds higher.
    """
    top = max(value for _, value in candidates)
    floor = top - PEAK_TIE_ULPS * np.spacing(top)
    return min(((beta % 1.0, value) for beta, value in candidates if value >= floor),
               key=lambda c: (c[0], -c[1]))


def _scans(g: AlphaFunction, lengths, grid_size: int) -> list[SpectrumScan]:
    """spectrum_scan at each N in lengths (N >= 1) from one value block g(0..max(lengths) - 1).

    Each grid folds a prefix of the block (values_range prefixes are stable);
    CapError, before the block is built, where ceil(max(lengths) / grid_size)
    * grid_size passes RANGE_CAP.  The refinements share one plan, in lockstep.
    """
    M = grid_size
    check_size(-(-max(lengths) // M) * M, "spectrum grid")
    vals = values_range(g, max(lengths))
    grids = []
    for N in lengths:
        padded = np.zeros(-(-N // M) * M, dtype=np.complex128)
        padded[:N] = vals[:N]
        grids.append(np.abs(np.fft.fft(padded.reshape(-1, M).sum(axis=0))) / N)
    return [SpectrumScan(*_peak(candidates), grid)
            for grid, candidates in zip(grids, _refine(_digit_plan(g, lengths), grids))]


def spectrum_scan(g: AlphaFunction, N: int, grid_size: int = GRID_DEFAULT) -> SpectrumScan:
    """Scan beta -> |(1/N) sum g(n) e(-n*beta)| on a uniform grid, then refine.

    The grid stage folds the value block modulo the grid size, so the j-th
    entry is the exponential sum at beta = j/grid_size evaluated through one
    exact-length transform.  The REFINE_PEAKS largest local maxima are then
    refined by ternary subdivision down to REFINE_WIDTH.  The candidates, in
    order, are grid[0], then per refined peak its grid value, each probe pair
    and the final midpoint.  The reported peak is the candidate of smallest
    beta mod 1 among those within PEAK_TIE_ULPS ulps of the largest (_peak),
    so a real g's mirror pair beta, 1 - beta reports the smaller beta.

    Refinement probes take the digit route (_digit_exp_sums): the digits of
    N - 1 and the twisted atom layout make a probe cost O(sum a_k) instead of
    O(N).  The peaks' ternary rounds run in lockstep, one batched evaluation
    per round plus one for the final midpoints (17 at the default grid).  A
    probe agrees with the dense sum exponential_sum(g, beta, N) to
    1e-13 * max|g| (measured: at most 4.6e-16 for unimodular atoms, N from 1
    to 1e6).  Where the atoms twisted by beta are Gaussian integers (beta = 0,
    or theta and beta multiples of 1/4) every partial sum is an exact integer
    while it stays <= 2**53 (see scale_sums), which N <= RANGE_CAP ensures,
    so a probe equals the dense sum bit for bit; the grid entry at beta = 0
    is exact too, so the theta = 0 control peak stays exactly (0.0, 1.0).
    """
    if grid_size < 16:
        raise ValidationError("grid_size must be >= 16")
    if N < 1:
        raise ValidationError("N must be >= 1")
    return _scans(g, [N], grid_size)[0]


# --- classical inequality checks (shared by the harness) ---------------------

def fejer_check(R: int, x: float) -> tuple[complex, float, float]:
    """Fejer kernel identity: sum_{|r|<R} (R-|r|) e(r x) = |sum_{r<R} e(r x)|^2.

    Returns (lhs, rhs, |lhs - rhs|); the delta stays below 1e-10 * R^2.
    """
    if R < 1:
        raise ValidationError("R must be >= 1")
    r = np.arange(1 - R, R, dtype=np.float64)
    lhs = pairwise_sum((R - np.abs(r)) * unit(r * x))
    rhs = abs(pairwise_sum(unit(np.arange(R, dtype=np.float64) * x))) ** 2
    return lhs, rhs, abs(lhs - rhs)


def large_sieve_check(H: int, R: int, t: float) -> tuple[float, float, bool]:
    """Mean-square of averaged phases over a 1/H-spaced frequency set.

    lhs = sum_{h<H} |(1/R) sum_{r<R} e(r(t + h/H))|^2 must stay below
    (H + R - 1)/R; returns (lhs, bound, ok) with additive slack SIEVE_SLACK.
    The inner sums are the rows of one H x R phase matrix (CapError past
    RANGE_CAP entries), built as e(h*r/H) * e(t*r) from H + R roots: a table
    of e(j/H) read at j = (h*r) mod H, times e(t*r).  Against one e() of the
    rounded r*(t + h/H) per entry, lhs moves by at most 1e-13 * bound
    (measured: 2.2e-14 over the battery seeds 0-3); the phases h*r/H mod 1
    are exact here, where t + h/H was rounded before.
    """
    if H < 1 or R < 1:
        raise ValidationError("H and R must be >= 1")
    check_size(H * R, "large sieve matrix")
    h, r = np.arange(H), np.arange(R)
    hr = np.outer(h, r)
    hr -= hr // H * H  # (h*r) mod H, by the floor_divide fast path
    sums = (unit(h / H)[hr] * unit(t * r)).sum(axis=1)
    # parts divided on their own and libm's hypot and pow: Python's abs(sum / R) ** 2, bit for bit
    lhs = pairwise_sum(np.float_power(np.hypot(sums.real / R, sums.imag / R), 2))
    bound = (H + R - 1) / R
    return lhs, bound, lhs <= bound + SIEVE_SLACK


def vdc_check(sequence, R: int) -> tuple[float, complex, bool]:
    """Shift-averaged bound on |sum a_n|^2.

    rhs = ((L - 1 + R)/R) sum_{|r|<R} (1 - |r|/R) sum_{n, n+r in I} a_{n+r} conj(a_n)
    dominates lhs = |sum a_n|^2; returns (lhs, rhs, ok) with slack VDC_SLACK * L^2.
    The inner sums are the lags 1 - R..R - 1 of one full autocorrelation.
    """
    a = np.asarray(sequence, dtype=np.complex128)
    L = len(a)
    if not 1 <= R <= L:
        raise RangeError(f"R={R} outside 1..{L}")
    lhs = abs(pairwise_sum(a)) ** 2
    inner = np.correlate(a, a, "full")[L - R : L + R - 1]
    weights = 1 - np.abs(np.arange(1 - R, R)) / R
    rhs = ((L - 1 + R) / R) * pairwise_sum(weights * inner)
    return lhs, rhs, lhs <= rhs.real + VDC_SLACK * L * L
