"""Setuptools shim.

The canonical metadata lives in pyproject.toml; this file exists so
that ``pip install -e .`` works on environments without the ``wheel``
package (pip falls back to the legacy ``setup.py develop`` path).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Unified framework and simulator for seven distributed DNN training "
        "algorithms (reproduction of Ko et al., IPDPS 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23", "networkx>=2.8"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
