"""Rates of the qubit's noise processes and the scan's pixel time and size.

The config loader reads these without loading the parity simulator;
:mod:`qpgap.parity` re-exports them.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError

DEFAULT_TLS_RATE = 1.0 / 180.0
DEFAULT_PIXEL_SECONDS = 0.2
# The most scan samples one input may ask for: pixels x n_freq, 8 bytes
# each in the amplitude array, about 12 bytes each in scan.csv.  The
# shipped configs stay far below it (a 1000 s scan at 161 frequencies is
# 805k samples).
MAX_SCAN_SAMPLES = 20_000_000


class NoiseModel(Record):
    """Rates of the two noise processes acting on the qubit.

    ``gamma_parity_per_s`` is the charge-parity switching rate and
    ``tls_rate_per_s`` the offset-charge reconfiguration rate; each jump
    shifts ng by a uniform amount reduced modulo one Cooper pair.
    """

    __slots__ = ("gamma_parity_per_s", "tls_rate_per_s")

    def __init__(
        self, gamma_parity_per_s: float, tls_rate_per_s: float = DEFAULT_TLS_RATE
    ):
        self._assign(gamma_parity_per_s, tls_rate_per_s)
        if not 0 <= self.gamma_parity_per_s < math.inf:
            raise DomainError(
                "parity rate must be non-negative and finite, got "
                f"{self.gamma_parity_per_s}"
            )
        if not 0 <= self.tls_rate_per_s < math.inf:
            raise DomainError(
                "TLS rate must be non-negative and finite, got "
                f"{self.tls_rate_per_s}"
            )
