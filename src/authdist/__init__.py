"""Distortion-constrained authentication toolkit.

Achievable distortion regions (binary-Hamming, Gaussian-quadratic,
two-layer broadcast), quantize-and-embed baselines, and Monte Carlo
simulators for the secret-key random-codebook scheme and its public-key
adaptation.
"""

__version__ = "0.1.0"
