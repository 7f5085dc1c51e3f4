"""Setuptools shim.

The canonical metadata lives in pyproject.toml; this file exists so
that ``pip install -e .`` works on environments without the ``wheel``
package (pip falls back to the legacy ``setup.py develop`` path).
"""

from setuptools import setup

setup()
