"""Optional compiled core for the cycle tier, its trace decoder and the
CASH runtime's lower hull.

Two hot loops in the cycle tier are pure interpreter overhead: the
struct-of-arrays batch kernel (:mod:`repro.sim.batchpipe`), one event
epoch per cell per step, and the trace decoder
(:meth:`repro.sim.trace.TraceGenerator.generate_arrays`), a handful of
Mersenne Twister draws per micro-op.  This module compiles
``sim/_batchcore.c`` on demand with the host C compiler and loads it
through :mod:`ctypes`; :class:`NativeBatchCore` binds its three entry
points, ``repro_run_batch``, ``repro_decode_trace`` and
``repro_lower_hull``.  It follows the
shape ROADMAP cites from ``subhft``'s ``rust_core``: an *optional*
accelerated core behind a pure-Python contract, with the Python paths
(the object pipeline, the scalar trace generator, the Python monotone
chain) retained as the
always-runnable twins and bit-identity asserted in tests.  Nothing is
installed: if no compiler is present (or ``REPRO_NATIVE`` disables the
core) every caller falls back to the pure-Python path.

The host-level switches are read from the environment here, once, at
the top of the package — the engine directories themselves are
forbidden from touching ``os.environ`` by the ``env-read`` determinism
rule:

* ``REPRO_NATIVE=0|off|none|disabled`` keeps the compiled core off;
* ``REPRO_NATIVE_DIR=<path>`` overrides where the shared object is
  built (default: a per-user directory under the system temp root).

The switch can never change a result — every entry point is
bit-identical to its Python twin (enforced by the `fast-parity`
twin tests) — it only selects how fast the cycle tier runs.  Build
artifacts are keyed by a content hash of the C source, compiler
identity and flags, written via temp-file + atomic rename, so
concurrent processes and stale sources are both safe.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from array import array
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

#: Environment values (case-insensitive) that mean "compiled core off".
_OFF_VALUES = frozenset({"0", "off", "none", "disabled"})

#: Compile command prefix; the source and output paths are appended.
#: ``-ffp-contract=off`` keeps ``a*b+c`` from fusing into an FMA, so the
#: trace decoder's float comparisons see exactly CPython's doubles.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_SOURCE_PATH = Path(__file__).parent / "sim" / "_batchcore.c"

_NATIVE_LOCK = threading.Lock()


def _resolve_dir(text: Union[str, Path, None]) -> Path:
    if isinstance(text, Path):
        return text.expanduser()
    if text is not None and text.strip():
        return Path(text).expanduser()
    uid = getattr(os, "getuid", lambda: 0)()
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


_ENABLED: bool = (
    os.environ.get("REPRO_NATIVE", "1").strip().lower() not in _OFF_VALUES
)
_BUILD_DIR: Path = _resolve_dir(os.environ.get("REPRO_NATIVE_DIR"))
_CORE: Optional["NativeBatchCore"] = None
_CORE_TRIED: bool = False
_CORE_ERROR: Optional[str] = None

#: Buffer arguments of the kernel's entry points, in C order, with the
#: dtype each must have (the kernel reads raw memory).
_RUN_BATCH_BUFFERS = (
    ("params", np.int64),
    ("cell_conf", np.int64),
    ("kinds", np.int8),
    ("is_mem", np.int8),
    ("mispredicted", np.int8),
    ("addresses", np.int64),
    ("code_addresses", np.int64),
    ("producers", np.int64),
    ("warm", np.int64),
    ("out_cell", np.int64),
    ("out_slice", np.int64),
)
_DECODE_TRACE_BUFFERS = (
    ("words", np.uint64),
    ("fparams", np.float64),
    ("iparams", np.int64),
    ("state", np.int64),
    ("hot_set", np.int64),
    ("sweep", np.int64),
    ("bias", np.int8),
    ("target", np.int64),
    ("first_seen", np.int64),
    ("kinds", np.int8),
    ("sources", np.int64),
    ("dests", np.int64),
    ("addresses", np.int64),
    ("mispredicted", np.bool_),
    ("code_addresses", np.int64),
    ("taken", np.int8),
    ("branch_targets", np.int64),
)


def _addresses(
    signature: Tuple[Tuple[str, type], ...], arrays: Tuple[np.ndarray, ...]
) -> List[int]:
    """Data addresses of ``arrays``, each checked against its
    ``signature`` entry: C-contiguous and of the declared dtype."""
    if len(arrays) != len(signature):
        raise TypeError(f"need {len(signature)} buffers, got {len(arrays)}")
    addresses = []
    for (name, dtype), array in zip(signature, arrays):
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ValueError(
                f"{name}: need C-contiguous {np.dtype(dtype).name}, "
                f"got {array.dtype}"
            )
        addresses.append(array.ctypes.data)
    return addresses


class NativeBatchCore:
    """ctypes wrapper around the compiled kernel's entry points:
    ``repro_run_batch`` (the lockstep cycle tier),
    ``repro_decode_trace`` (the trace decoder) and
    ``repro_lower_hull`` (the runtime's monotone chain)."""

    def __init__(self, library: ctypes.CDLL, path: Path) -> None:
        self.path = path
        self._run = library.repro_run_batch
        self._run.restype = ctypes.c_int64
        self._run.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * len(
            _RUN_BATCH_BUFFERS
        )
        self._decode = library.repro_decode_trace
        self._decode.restype = ctypes.c_int64
        self._decode.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * len(
            _DECODE_TRACE_BUFFERS
        )
        self._hull = library.repro_lower_hull
        self._hull.restype = ctypes.c_int64
        self._hull.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]

    def run_batch(
        self, n_cells: int, max_slices: int, prod_width: int, *buffers: np.ndarray
    ) -> int:
        """Invoke the compiled lockstep kernel on ``buffers`` (in
        ``_RUN_BATCH_BUFFERS`` order); returns its status code (0 = ok,
        negative = allocation failure)."""
        addresses = _addresses(_RUN_BATCH_BUFFERS, buffers)
        return int(self._run(n_cells, max_slices, prod_width, *addresses))

    def decode_trace(self, count: int, *buffers: np.ndarray) -> int:
        """Decode ``count`` micro-ops from the raw MT19937 words in
        ``buffers[0]`` (``_DECODE_TRACE_BUFFERS`` order; see
        :mod:`repro.sim.trace`).  Returns the words consumed, or ``-1``
        when they ran out."""
        addresses = _addresses(_DECODE_TRACE_BUFFERS, buffers)
        return int(self._decode(count, buffers[0].shape[0], *addresses))

    def lower_hull(self, xy: "array[float]") -> "array[int]":
        """Indices of the lower-hull points of the sorted, distinct
        points ``xy`` (flat x, y pairs in an ``array('d')``), exactly as
        :func:`repro.runtime.optimizer._lower_hull_presorted` keeps
        them."""
        count = len(xy) // 2
        out = array("q", bytes(8 * count))
        kept = self._hull(count, xy.buffer_info()[0], out.buffer_info()[0])
        del out[kept:]
        return out


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_and_load_locked() -> NativeBatchCore:
    """Compile (if needed) and load the core.  Caller holds the lock."""
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler on PATH (tried cc, gcc, clang)")
    source = _SOURCE_PATH.read_bytes()
    digest = hashlib.sha256(
        source + compiler.encode() + " ".join(_CFLAGS).encode()
    ).hexdigest()[:16]
    build_dir = _BUILD_DIR
    artifact = build_dir / f"_batchcore-{digest}.so"
    if not artifact.exists():
        build_dir.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            suffix=".so.tmp", dir=str(build_dir)
        )
        os.close(handle)
        try:
            result = subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_name, str(_SOURCE_PATH)],
                capture_output=True,
                text=True,
            )
            if result.returncode != 0:
                raise RuntimeError(
                    f"{compiler} failed ({result.returncode}): "
                    f"{result.stderr.strip()[:500]}"
                )
            # Atomic publish: concurrent builders race benignly — both
            # produce identical artifacts keyed by the same digest.
            os.replace(tmp_name, artifact)
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
    library = ctypes.CDLL(str(artifact))
    return NativeBatchCore(library, artifact)


def batch_core() -> Optional[NativeBatchCore]:
    """The compiled batch core, or ``None`` when unavailable.

    Builds and loads at most once per process; a failed build is
    remembered (see :func:`batch_core_error`) and not retried until
    :func:`set_native_enabled` resets the state.
    """
    global _CORE, _CORE_TRIED, _CORE_ERROR
    with _NATIVE_LOCK:
        if not _ENABLED:
            return None
        if _CORE_TRIED:
            return _CORE
        _CORE_TRIED = True
        try:
            _CORE = _build_and_load_locked()
        except (OSError, RuntimeError) as exc:
            _CORE = None
            _CORE_ERROR = str(exc)
        return _CORE


def batch_core_error() -> Optional[str]:
    """Why the last build attempt failed, or None."""
    with _NATIVE_LOCK:
        return _CORE_ERROR


def native_enabled() -> bool:
    with _NATIVE_LOCK:
        return _ENABLED


def set_native_enabled(flag: bool) -> None:
    """Override the ``REPRO_NATIVE`` switch (tests, CLI).

    Re-enabling also clears the memoized build attempt so the next
    :func:`batch_core` call retries.
    """
    global _ENABLED, _CORE, _CORE_TRIED, _CORE_ERROR
    with _NATIVE_LOCK:
        _ENABLED = bool(flag)
        _CORE = None
        _CORE_TRIED = False
        _CORE_ERROR = None


def set_build_dir(target: Union[str, Path, None]) -> Path:
    """Override the build directory (``REPRO_NATIVE_DIR``); resets the
    memoized core so the next load uses the new location."""
    global _BUILD_DIR, _CORE, _CORE_TRIED, _CORE_ERROR
    resolved = _resolve_dir(target)
    with _NATIVE_LOCK:
        _BUILD_DIR = resolved
        _CORE = None
        _CORE_TRIED = False
        _CORE_ERROR = None
    return resolved
