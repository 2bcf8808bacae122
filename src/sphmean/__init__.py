"""Spherical mean transforms of radial and single-harmonic functions in odd
dimensions: exact range identities, forward evaluation, range tests, spectral
cross-checks, inversion, and unique-continuation counterexamples."""

__version__ = "0.1.0"
