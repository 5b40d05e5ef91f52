"""Counting LTL valuations over omega-regular models."""

__version__ = "0.1.0"
