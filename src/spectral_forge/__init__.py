"""Certified spectra of head-coupled cyclic shift systems.

Two constructions share one coupling pattern: a stochastic operator on a
weighted l1 sum of cyclic blocks whose peripheral spectrum is exactly a
prescribed finite union of root-of-unity groups, and a stochastic
C0-semigroup on a sum of circle spaces whose generator meets the
imaginary axis exactly in {0} and i(R \\ (-1, 1)).  The library builds
both, certifies their resolvent sets through the rank-one update
denominator with certified truncation radii, and cross-checks them
against matrix-free finite sections, residual certificates and the closed
form of the sections' characteristic polynomial.  The dense and cofactor
oracles live with the tests, not in the package.
"""

from .errors import (BlockIndexOverflow, ExponentialUnresolved, NoSamples,
                     NotInTargetSet, RootCountMismatch, SpectralForgeError)
from .model import (GroupUnionSpec, apply_operator, dyadic_weights,
                    union_points, union_values)
from .resolvent import (CERTIFIED, SINGULAR, TAIL_INVALID, Certificate,
                        coupling_series_batch)
from .scanner import ScanChunk, ScanReport, residual_certificate, \
    scan_unit_circle
from .finite import (FiniteSection, SpectrumResult, convergence_table,
                     finite_spectrum)
from .semigroup import (SemigroupState, apply_generator, chain_generator,
                        evolve, mode_certificate, scan_imaginary_axis)
from .verify import run_suite, run_suites

__version__ = "0.1.0"
