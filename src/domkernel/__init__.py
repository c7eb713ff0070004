"""Kernelization for black/white dominating set on sparse graphs."""
