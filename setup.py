"""Legacy setup shim.

All metadata lives in pyproject.toml; this file exists so that
``pip install -e .`` works in offline environments whose setuptools
lacks the PEP 517 editable hooks (no `wheel` package available).
"""

from setuptools import setup

setup()
