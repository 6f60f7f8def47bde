"""Setuptools entry point.

``pip install -e .`` works in any normal environment.  In fully offline
environments that lack the ``wheel`` package (so PEP 517 editable installs
cannot build), ``python setup.py develop`` performs an equivalent editable
install using only setuptools.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """Single-source the version from ``repro/__init__.py``."""
    text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("could not find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-gsino",
    version=read_version(),
    description=(
        "Reproduction of Ma & He (DAC 2002), 'Towards Global Routing With "
        "RLC Crosstalk Constraints': the three-phase GSINO flow, its "
        "baselines, and a pluggable parallel execution engine"
    ),
    long_description=Path(__file__).parent.joinpath("DESIGN.md").read_text(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # PEP 561: the distribution ships inline types (the repro.flow package
    # is fully annotated; the rest is typed opportunistically).
    package_data={"repro": ["py.typed"]},
    install_requires=[
        "numpy",
        "scipy",
    ],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "pytest-cov",
            "hypothesis",
        ],
        "dev": [
            "ruff",
        ],
        # The `repro watch` dashboard only; the core package stays
        # dependency-light and never imports textual at module scope.
        "tui": [
            "textual",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
    ],
)
