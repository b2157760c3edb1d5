"""Session setup: the compiled backend is tested wherever it can build.

``repro._native`` is the only accelerated analysis backend, and a
checkout that never ran ``python setup.py build_ext --inplace`` would
otherwise skip its whole bit-identity battery.  When the extension is
not importable, :func:`pytest_configure` compiles
``src/repro/_native/nativemodule.c`` into a temporary directory (the
source tree stays clean) and registers the result as ``repro._native``.
Without a working C compiler -- or with ``CC=false`` in the
environment -- the build fails, the session header says why, and the
``native``-marked tests skip.
"""

import importlib.util
import pathlib
import shutil
import sys
import tempfile

_SOURCE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src" / "repro" / "_native" / "nativemodule.c"
)
_build_dir = None
_build_note = None


def _build_native(build_dir: str):
    """Compile the extension into *build_dir*; the module, or ``None``."""
    global _build_note
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import BaseError, CCompilerError

    cmd = build_ext(
        Distribution(
            {
                "ext_modules": [
                    Extension(
                        "repro._native",
                        [str(_SOURCE)],
                        # As setup.py: no fused multiply-add in the scorer.
                        extra_compile_args=["-ffp-contract=off"],
                    )
                ]
            }
        )
    )
    cmd.build_lib = cmd.build_temp = build_dir
    try:
        cmd.ensure_finalized()
        cmd.run()
    except (BaseError, CCompilerError) as exc:  # no usable toolchain
        _build_note = f"not built ({exc}); native tests skip"
        return None
    _build_note = "built into a temporary directory for this session"
    spec = importlib.util.spec_from_file_location(
        "repro._native", cmd.get_outputs()[0]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["repro._native"] = module
    return module


def pytest_configure(config):
    global _build_dir
    from repro.analysis import backend

    if backend.native_or_none() is None and _SOURCE.exists():
        _build_dir = tempfile.mkdtemp(prefix="repro-native-")
        backend._native_module = _build_native(_build_dir)


def pytest_report_header(config):
    if _build_note is not None:
        return f"repro._native: {_build_note}"


def pytest_unconfigure(config):
    if _build_dir is not None:
        shutil.rmtree(_build_dir, ignore_errors=True)
