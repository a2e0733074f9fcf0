"""Shaped PAM-6 signalling over peak-power-limited intensity links.

Subpackages cover the three candidate formats (two 32-point QAM labelings
of the 6x6 PAM grid and a sign-bit shaped PAM-6), matched-distribution
encoding, LDPC coding, equalization and trellis detection, achievable
rate estimation, and a sweep CLI.
"""
__version__ = "0.1.0"
