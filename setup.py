"""Build shim: packaging metadata plus the optional compiled engine kernel.

``python setup.py build_ext --inplace`` (or an editable install) compiles
``repro.net.kernel._ckernel`` — the C fast path for the packet engine's
enqueue/serialize/dispatch hot trio (see ``src/repro/net/kernel``). The
extension is declared *optional*: when no C compiler is available the
build degrades to the pure-Python engine instead of failing, and the
runtime seam (``REPRO_KERNEL``) falls back with a warning rather than an
error; ``REPRO_KERNEL=py`` selects the pure-Python engine at run time.

The kernel is a hand-written CPython extension rather than a mypyc
build: mypyc (and Cython) are not part of the pinned offline toolchain,
and the hot methods manipulate the engine's ``__slots__`` layout and
heap entries directly, which a hand-written extension can do with zero
per-event allocation.

The build bakes the sha256 of ``_ckernel.c`` into the module as
``SOURCE_SHA256``; ``repro.net.kernel`` compares it with the source beside
the module and refuses a stale build (see its docstring).
"""

import hashlib
import os

from setuptools import Extension, setup

CKERNEL_SOURCE = "src/repro/net/kernel/_ckernel.c"

here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, CKERNEL_SOURCE), "rb") as fh:
    source_sha256 = hashlib.sha256(fh.read()).hexdigest()

setup(
    name="repro-opera",
    version="0.6.0",
    package_dir={"": "src"},
    packages=[
        "repro",
        "repro.analysis",
        "repro.core",
        "repro.distrib",
        "repro.experiments",
        "repro.fluid",
        "repro.net",
        "repro.net.kernel",
        "repro.scenarios",
        "repro.topologies",
        "repro.workloads",
    ],
    ext_modules=[
        Extension(
            "repro.net.kernel._ckernel",
            sources=[CKERNEL_SOURCE],
            define_macros=[("CKERNEL_SOURCE_SHA256", f'"{source_sha256}"')],
            optional=True,  # build failure -> pure-Python engine, not error
        )
    ],
)
