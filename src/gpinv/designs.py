"""Space-filling input designs: Latin hypercube and Sobol sequences.

The Sobol generator is the unscrambled base-2 sequence with the Joe & Kuo
(2008) direction numbers, the same table and 30-bit construction as
`scipy.stats.qmc.Sobol(d, scramble=False)`, so designs match it bit for bit
without importing `scipy.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Primitive polynomials (coefficient bits, leading and trailing 1 included)
# and initial direction integers m_1..m_deg of dimensions 1..21, from Joe &
# Kuo (2008), new-joe-kuo-6.21201; dimension 1 is the van der Corput sequence.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109, 115, 131, 137)
_SOBOL_VINIT = (
    (), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69),
)
SOBOL_MAX_DIM = len(_SOBOL_POLY)
SOBOL_BITS = 30


def _sobol_directions() -> np.ndarray:
    """(SOBOL_BITS, SOBOL_MAX_DIM) direction numbers v_j = m_j 2^(SOBOL_BITS - j).

    For a polynomial of degree s, m_j beyond the s initial ones follows the
    Bratley-Fox recurrence m_j = m_(j-s) ^ (2^s m_(j-s)) ^ XOR_k (a_k 2^k m_(j-k))
    over the polynomial's inner coefficients a_1..a_(s-1).
    """
    v = np.empty((SOBOL_BITS, SOBOL_MAX_DIM), dtype=np.int64)
    for d, (poly, vinit) in enumerate(zip(_SOBOL_POLY, _SOBOL_VINIT)):
        deg = poly.bit_length() - 1
        m = list(vinit) if deg else [1] * SOBOL_BITS
        for j in range(len(m), SOBOL_BITS):
            new = m[j - deg]
            for k in range(1, deg + 1):
                if (poly >> (deg - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[:, d] = np.asarray(m, dtype=np.int64) << np.arange(SOBOL_BITS - 1, -1, -1)
    return v


_SOBOL_V = _sobol_directions()


@dataclass(frozen=True)
class DesignBox:
    """Axis-aligned box: the search region of a design, and the uniform prior of a sampler."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound vectors must have equal length")
        if self.lower.size == 0:
            raise ValueError("a box needs at least one dimension")
        if not np.all(np.isfinite(self.lower) & np.isfinite(self.upper)):
            raise ValueError(f"bounds must be finite, got lower {self.lower} and upper {self.upper}")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.all((points >= self.lower) & (points <= self.upper), axis=1)

    def from_unit(self, unit_points: np.ndarray) -> np.ndarray:
        """Map points in [0,1]^p into the box."""
        return self.lower + (self.upper - self.lower) * np.atleast_2d(unit_points)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points drawn uniformly from the box."""
        return self.from_unit(rng.random((n, self.dim)))

    def clip(self, points: np.ndarray) -> np.ndarray:
        return np.clip(points, self.lower, self.upper)


def latin_hypercube(n: int, box: DesignBox, seed: int = 0) -> np.ndarray:
    """n points with one point per axis-parallel stratum in every dimension.

    Each margin is divided into n equal strata; a random permutation assigns
    one point to each stratum and the point lands uniformly inside it.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    unit = np.empty((n, box.dim))
    for j in range(box.dim):
        strata = rng.permutation(n)
        unit[:, j] = (strata + rng.random(n)) / n
    return box.from_unit(unit)


def sobol(n: int, box: DesignBox, skip: int = 0) -> np.ndarray:
    """Points skip, ..., skip + n - 1 of the unscrambled Sobol sequence, scaled
    into the box. Deterministic and platform-independent; the skip=0 point is
    the box's lower corner.

    Point k is the XOR of the direction numbers picked by the set bits of its
    Gray code k ^ (k >> 1), times 2^-SOBOL_BITS.
    """
    if box.dim > SOBOL_MAX_DIM:
        raise ValueError(f"Sobol direction numbers go up to d={SOBOL_MAX_DIM}, got d={box.dim}")
    if n < 1:
        raise ValueError("need at least one point")
    if skip < 0 or skip + n > 2**SOBOL_BITS:
        raise ValueError(f"Sobol points must have indices in [0, 2^{SOBOL_BITS})")
    k = np.arange(skip, skip + n, dtype=np.int64)
    gray = k ^ (k >> 1)
    unit = np.zeros((n, box.dim), dtype=np.int64)
    for bit in range(int(gray.max()).bit_length()):
        unit ^= ((gray >> bit) & 1)[:, None] * _SOBOL_V[bit, :box.dim]
    return box.from_unit(unit * 2.0**-SOBOL_BITS)
