"""Thresholding dynamics for interface motion on periodic grids."""

__version__ = "0.1.0"
