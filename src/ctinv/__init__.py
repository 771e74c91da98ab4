"""ctinv: fixed-energy quantum inverse scattering with a separable kernel.

Reconstructs a spherically symmetric potential from a finite set of phase
shifts at one energy, checks the admissibility of the reconstruction
through the Fredholm determinant of the underlying integral equation, and
validates the result by solving the forward radial problem.  The library
lives in the submodules (`ctinv.ctcore`, `ctinv.glm`, `ctinv.consistency`,
`ctinv.forward`, `ctinv.specfun`, `ctinv.errors`); the package root holds
only the version.
"""

__version__ = "0.1.0"
