"""Reaction-law recovery for semilinear heat equations from boundary flux data."""

__version__ = "0.1.0"
