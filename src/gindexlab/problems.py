"""Bundles a group realization with principal-symbol data so that the same
G-operator can be instantiated on any Fourier window (window sweeps need
consistent rebuilds, not a single fixed matrix)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .circle import FrequencyWindow, PeriodicGrid, grid_for_window
from .groups import Element
from .quantize import K_MIN, LabeledOperator, quantize_crossed
from .symbols import CrossedSymbol, PrincipalSymbol, invert_principal
from .transforms import Realization, RealizationFamily

CoeffPair = tuple[dict[int, complex], dict[int, complex]]


@dataclass
class GOperatorProblem:
    """A G-operator described by sheet Fourier coefficients per group element.

    ``symbol_coeffs[g] = (plus_coeffs, minus_coeffs)`` with integer keyed
    Fourier coefficient dicts; quantization places the sheet data outside the
    zero-section cut ``|k| < k_min``.
    """

    family: RealizationFamily
    symbol_coeffs: dict[Element, CoeffPair]
    k_min: int = K_MIN
    unit_fill: bool = False
    name: str = ""
    _realizations: dict[int, Realization] = field(default_factory=dict, repr=False)
    _inverses: dict[int, CrossedSymbol] = field(default_factory=dict, repr=False)
    _trace_cache: dict[tuple, object] = field(default_factory=dict, repr=False)
    _index_cache: dict[tuple, object] = field(default_factory=dict, repr=False)

    @property
    def group(self):
        return self.family.group

    def realization(self, cutoff: int) -> Realization:
        if cutoff not in self._realizations:
            self._realizations[cutoff] = self.family.at(FrequencyWindow(cutoff))
        return self._realizations[cutoff]

    def symbol(self, grid: PeriodicGrid) -> CrossedSymbol:
        coeffs = {}
        for g, (plus, minus) in self.symbol_coeffs.items():
            coeffs[g] = PrincipalSymbol.from_coeffs(grid, plus, minus)
        return CrossedSymbol(self.family, coeffs, grid)

    def operator(self, cutoff: int) -> LabeledOperator:
        real = self.realization(cutoff)
        return quantize_crossed(real, self.symbol(grid_for_window(real.window)),
                                self.k_min, self.unit_fill)

    def inverse_operator(self, cutoff: int) -> LabeledOperator:
        """E0: the principal inverse quantized with the operator's cut and fill."""
        real = self.realization(cutoff)
        return quantize_crossed(real, self.principal_inverse(grid_for_window(real.window)),
                                self.k_min, self.unit_fill)

    def principal_inverse(self, grid: PeriodicGrid) -> CrossedSymbol:
        if grid.size not in self._inverses:
            self._inverses[grid.size] = invert_principal(self.symbol(grid))
        return self._inverses[grid.size]
