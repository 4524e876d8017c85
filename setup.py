"""Placeholder build script: the package declares no install metadata.

Everything runs from a checkout with ``PYTHONPATH=src``; nothing is
installed.  The CI setup action keys its pip cache on this file.
"""

from setuptools import setup

setup()
