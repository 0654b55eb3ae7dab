"""Residual of one mode against its completed deformation operator.

The gauge stages form these residuals internally for the modes below the
annihilating window; the tests also read them at the window and above,
where they must vanish.
"""

from __future__ import annotations

from virasoro_irregular.gauge import ScalarCompletion, _engine_state, _residual
from virasoro_irregular.ring import TruncatedSeries
from virasoro_irregular.solver import IrregularSeries


def mode_residual(series: IrregularSeries, n: int,
                  completion: ScalarCompletion | None = None) -> TruncatedSeries:
    """Residual of mode ``n`` against its completed deformation operator.

    Below the annihilating window the operator combines the mode scalar,
    the deformation field (acting on coefficients and prefactor alike) and
    the grading; at the window and above only the scalar remains, so the
    residual restates the canonical relations and must vanish.
    """
    if n < 0:
        raise ValueError("modes are indexed by nonnegative integers")
    return _residual(_engine_state(series, completion), n)
