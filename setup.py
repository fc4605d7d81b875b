"""Package metadata for ``pip install -e .``.

The library lives under ``src/repro`` and needs nothing outside the
standard library; the version is read from ``repro.__version__``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Distributed minimum cut in the CONGEST model (Nanongkai, PODC 2013)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
