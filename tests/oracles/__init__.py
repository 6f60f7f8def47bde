"""Scalar reference implementations the fast solver paths are tested against."""
