"""Exact counting and classification of distinct triangles in finite planar
point sets and lattices."""

__version__ = "0.1.0"
