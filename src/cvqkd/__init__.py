"""Wavelength attack on homodyne-detection CV-QKD: simulator and countermeasure."""

__version__ = "0.1.0"
