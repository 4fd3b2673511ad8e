"""C provider of the compiled slice/boundary core.

The C source is generated from the kernel bodies of ``_fastcore_kernels``
and ``repro.core._kernels`` by :mod:`repro.gpu._fastcore_c`, compiled once
with the system C compiler (``$CC``, ``gcc`` or ``cc``) into a shared
library, and bound through :mod:`ctypes`.  This is the compiled tier for environments without Numba
(the repo's own CI container, for one): same data layout, same return-code
protocol, and -- because the build pins ``-fno-fast-math
-ffp-contract=off`` -- the same IEEE-754 doubles as the Python bodies (libm
``pow``/``exp`` are exactly what CPython floats use; contraction off keeps
the compiler from fusing the multiply-adds Python evaluates separately).
The fastcore self-check verifies the bit-for-bit contract against the Python
kernel bodies before the provider is ever selected.

The compiled library is cached under ``$REPRO_FASTCORE_CACHE`` (default: a
``repro-fastcore`` directory in the system temp dir), keyed by the bytes of
both body modules and the translator, the compiler path and the flags.  A
cached library is loaded without translating anything, and concurrent
processes -- e.g. a sweep worker pool -- land on the same file via an atomic
rename.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

#: Compile flags that keep the C core bit-identical to the Python engines:
#: no fast-math value substitutions, no FMA contraction of separate ops.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

_HERE = Path(__file__).resolve().parent
#: The kernel body modules, in translation order.
_BODIES = (_HERE / "_fastcore_kernels.py", _HERE.parent / "core" / "_kernels.py")
_TRANSLATOR = _HERE / "_fastcore_c.py"

#: ctypes argument type of each C parameter type the translator emits.
_ARGTYPES = {
    "double *": ctypes.c_void_p,
    "int64_t *": ctypes.c_void_p,
    "long": ctypes.c_long,
    "double": ctypes.c_double,
}


def find_compiler() -> str | None:
    """Locate a C compiler (``$CC``, then ``gcc``, then ``cc``)."""
    for candidate in (os.environ.get("CC"), "gcc", "cc"):
        if candidate:
            path = shutil.which(candidate)
            if path:
                return path
    return None


def cache_dir() -> Path:
    configured = os.environ.get("REPRO_FASTCORE_CACHE")
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / "repro-fastcore"


def library_path(compiler: str) -> Path:
    """Where the library ``compiler`` builds from the current sources lives."""
    digest = hashlib.sha256()
    parts = (*(body.read_bytes() for body in _BODIES), _TRANSLATOR.read_bytes(), compiler, *_CFLAGS)
    for part in parts:
        part = part.encode() if isinstance(part, str) else part
        digest.update(len(part).to_bytes(8, "little") + part)
    return cache_dir() / f"fastcore-{digest.hexdigest()[:16]}.so"


def build_library(compiler: str | None = None) -> Path:
    """Translate and compile (or reuse) the shared library; returns its path.

    The library lands at its key's path via an atomic rename, so concurrent
    builders (sweep worker pools) race benignly.
    """
    compiler = compiler or find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (set $CC, or install gcc/cc)")
    lib_path = library_path(compiler)
    if lib_path.exists():
        return lib_path
    from . import _fastcore_c

    source = _fastcore_c.translate(*(body.read_text() for body in _BODIES))
    lib_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=lib_path.parent)
    tmp_lib = tmp_src[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        result = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_lib, tmp_src],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"fastcore C build failed ({compiler}): {result.stderr.strip()}"
            )
        os.replace(tmp_lib, lib_path)
    finally:
        for leftover in (tmp_src, tmp_lib):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return lib_path


def parse_signatures(text: str) -> dict[str, list[tuple[str, str]]]:
    """``{kernel: [(c_type, parameter), ...]}`` of the exported prototypes."""
    parsed = {}
    for prototype in text.splitlines():
        head, _, params = prototype.rstrip(")").partition("(")
        pairs = []
        for param in params.split(", "):
            ctype, _, name = param.rpartition(" ")
            if name.startswith("*"):
                ctype, name = f"{ctype} *", name[1:]
            pairs.append((ctype, name))
        parsed[head.split()[-1]] = pairs
    return parsed


def _address(arr: np.ndarray) -> int:
    """The data address of a C-contiguous array the kernels read or write.

    A ``c_char`` over the array's buffer yields it several times faster
    than ``arr.ctypes.data``.  NumPy lends that buffer only for a writable,
    C-contiguous, non-empty array; an empty array has no buffer to cover,
    and a read-only one (an input the kernels only read) cannot lend it.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except (TypeError, ValueError):
        if not arr.flags.c_contiguous:
            raise ValueError("fastcore kernel arrays must be C-contiguous") from None
        return arr.ctypes.data


class CcKernels:
    """ctypes binding presenting the uniform fastcore kernel API.

    Every exported ``k_<name>`` of the library becomes the method ``<name>``
    (``idle`` / ``execute`` / ``sequence`` / ``run`` / ``window`` /
    ``match``), taking the same numpy-array arguments as the body module's
    entry point.  The
    argument types come from the library's own ``fastcore_signatures``;
    each ``X_cap`` parameter is filled with ``X.shape[0]``.

    Arrays are passed as raw data pointers cached per array identity: the
    device reuses the same state/param/scratch buffers for the lifetime of a
    run, and ``ndpointer`` (or even ``arr.ctypes.data``) conversion on every
    call costs an order of magnitude more than the short-span kernels
    themselves.  The cache pins each array it has seen, so a recycled ``id``
    can never alias a stale pointer; it is cleared when it outgrows the
    handful of long-lived buffers it exists for.
    """

    name = "cc"

    def __init__(self, lib_path: Path) -> None:
        self.lib_path = lib_path
        self._lib = ctypes.CDLL(str(lib_path))
        self._ptrs: dict[int, tuple] = {}
        text = ctypes.c_char_p.in_dll(self._lib, "fastcore_signatures").value
        self._signatures = parse_signatures(text.decode())
        for name, params in self._signatures.items():
            setattr(self, name.removeprefix("k_"), self._bind(name, params))

    def _bind(self, name: str, params: list[tuple[str, str]]):
        func = getattr(self._lib, name)
        func.restype = ctypes.c_long
        func.argtypes = [_ARGTYPES[ctype] for ctype, _ in params]
        args, spelled = [], []
        for ctype, param in params:
            if param.endswith("_cap"):
                spelled.append(f"{param.removesuffix('_cap')}.shape[0]")
            else:
                args.append(param)
                spelled.append(f"ptr({param})" if ctype.endswith("*") else param)
        # A generated wrapper: marshalling the arguments in a generic loop
        # would cost as much as a short kernel.
        namespace = {"func": func, "ptr": self._ptr}
        exec(
            f"def {name}({', '.join(args)}):\n"
            f"    return func({', '.join(spelled)})\n",
            namespace,
        )
        return namespace[name]

    def bind_run(
        self, st, pp, rp, descs, seqs, caches, variates, seg, ev, lens, exec_rows, smp, out
    ):
        """``k_run`` with every argument but the run's times marshalled once.

        Each call allocates the run's ``cpu_starts``/``cpu_ends`` as the two
        halves of one ctypes block -- its address is free, where a numpy
        array's costs more than the rest of the call's marshalling -- and
        returns ``(rc, times)`` with ``times`` a float64 array over the block.
        """
        arrays = dict(
            st=st, pp=pp, rp=rp, descs=descs, seqs=seqs, caches=caches,
            variates=variates, seg=seg, ev=ev, lens=lens, exec_rows=exec_rows,
            smp=smp, out=out,
        )
        params = [param for _, param in self._signatures["k_run"]]
        args = [
            arrays[param.removesuffix("_cap")].shape[0] if param.endswith("_cap")
            else None if param in ("cpu_starts", "cpu_ends")
            else _address(arrays[param])
            for param in params
        ]
        head = tuple(args[: params.index("cpu_starts")])
        tail = tuple(args[params.index("cpu_ends") + 1 :])
        total = exec_rows.shape[0]
        block = ctypes.c_double * (2 * total)
        func = self._lib.k_run

        def call():
            times = block()
            start = ctypes.addressof(times)
            rc = func(*head, start, start + 8 * total, *tail)
            return rc, np.frombuffer(times)

        # The call holds the arrays whose addresses it passes (the returned
        # array holds its block).
        call.arrays = arrays
        return call

    def _ptr(self, arr) -> int:
        cached = self._ptrs.get(id(arr))  # statics: allow[identity-hash] -- pointer cache; the pinned array reference keeps the id stable
        if cached is not None and cached[0] is arr:
            return cached[1]
        if len(self._ptrs) > 64:  # scratch arrays from tests/self-checks
            self._ptrs.clear()
        address = _address(arr)
        self._ptrs[id(arr)] = (arr, address)  # statics: allow[identity-hash] -- cached address is per-process by nature and never persisted
        return address


def load(compiler: str | None = None) -> CcKernels:
    """Build (if needed) and bind the C core."""
    return CcKernels(build_library(compiler))


__all__ = ["CcKernels", "load", "build_library", "find_compiler", "library_path"]
