"""Level constants for the genus-zero primes 2, 3, 5, 7."""
from __future__ import annotations

from dataclasses import dataclass

GENUS_ZERO_PRIMES = (2, 3, 5, 7)

# p -> extra power of p gained by one U_p application on the phi-lattice
_DELTA = {2: 3, 3: 2, 5: 1, 7: 1}


@dataclass(frozen=True)
class PrimeContext:
    """A genus-zero level together with its derived constants.

    ``p = 13`` is constructible behind ``exploratory=True`` (the level is
    still genus zero and the eta-quotient Hauptmodul exists), but the
    divisibility machinery (``delta``, ``gamma``) is undefined there.
    """

    p: int
    exploratory: bool = False

    def __post_init__(self) -> None:
        if type(self.p) is not int:  # 2.0 == 2 would share its store keys, bool is an int
            raise TypeError(f"the level p must be an int, got {type(self.p).__name__}")
        if self.p in GENUS_ZERO_PRIMES:
            return
        if self.p == 13 and self.exploratory:
            return
        raise ValueError(
            f"unsupported level p={self.p}; expected one of {GENUS_ZERO_PRIMES} "
            "(or 13 with exploratory=True)"
        )

    @property
    def lam(self) -> int:
        """24/(p-1): the eta-quotient exponent."""
        return 24 // (self.p - 1)

    @property
    def delta(self) -> int:
        if self.p not in _DELTA:
            raise ValueError(f"delta is not defined for p={self.p}")
        return _DELTA[self.p]

    def gamma(self, k: int) -> int:
        """Required valuation of the degree-k coefficient in the phi-lattice."""
        if k < 1:
            raise ValueError("gamma is defined for degrees k >= 1")
        if k == 1:
            return 0
        if self.p == 2:
            return 8 * (k - 1)
        if self.p == 3:
            return 4 * (k - 1)
        if self.p in (5, 7):
            return k
        raise ValueError(f"gamma is not defined for p={self.p}")
