"""Packaging metadata (kept in ``setup.py`` -- no pyproject in this repo).

The library itself is pure Python with no dependencies; the one
accelerated analysis backend is a deliberately *optional* extra:

* ``pip install repro[native]`` -- the compiled fix-point kernels and
  curve-fit scorer (``AnalysisOptions.backend="native"``), built from
  ``src/repro/_native/nativemodule.c`` when a C toolchain is present.
  The extra pulls in no package: the extension speaks the buffer
  protocol to stdlib ``array('q')`` buffers.

The extension is marked ``optional``: on a machine without a C
compiler the build degrades gracefully -- the wheel installs without
``repro._native``, the package imports and analyses normally on the
Python backend, native tests skip, and selecting an unavailable backend
raises an actionable ``RuntimeError`` naming its extra (see
:mod:`repro.analysis.backend`).
"""

from setuptools import Extension, find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Bus Access Optimisation for FlexRay-based "
        "Distributed Embedded Systems' (DATE 2007): holistic timing "
        "analysis and bus configuration optimisers"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[],
    entry_points={
        # `repro ...` == `python -m repro ...`; both go through
        # repro.cli:main (tested by tests/test_cli.py).
        "console_scripts": ["repro=repro.cli:main"],
    },
    ext_modules=[
        Extension(
            "repro._native",
            sources=["src/repro/_native/nativemodule.c"],
            # The curve-fit scorer must round every multiply and add on
            # its own, as Python does: no fused multiply-add.
            extra_compile_args=["-ffp-contract=off"],
            optional=True,  # no toolchain -> no extension, never a failure
        ),
    ],
    extras_require={
        # The compiled kernel backend (AnalysisOptions.backend="native"):
        # nothing to install beyond the extension built above.
        "native": [],
    },
)
