"""Process-based distributed runtime with a pluggable transport layer.

The Section 4.3 protocol logic lives in
:class:`~repro.distributed.coordinator.Cluster`; *where its site workers
run* is this package's concern:

* ``backend="inproc"`` — serial in-process workers (the reference);
* ``backend="processes"`` — one OS process per site over
  ``multiprocessing`` pipes, evaluating off-GIL on real cores.

Both produce byte-identical protocol observations; the process backend
additionally needs every payload in explicit wire form
(:mod:`repro.distributed.runtime.wire`) because graphs, patterns and
result subgraphs are deliberately not picklable.
"""

from repro.distributed.runtime.transport import (
    BACKENDS,
    InProcTransport,
    ProcessTransport,
    Transport,
    make_transport,
    process_backend_available,
    resolve_backend,
)
from repro.distributed.runtime.wire import (
    WIRE_VERSION,
    decode_bus_log,
    decode_deltas,
    decode_fragment,
    decode_partials,
    decode_pattern,
    encode_bus_log,
    encode_deltas,
    encode_fragment,
    encode_partials,
    encode_pattern,
)

__all__ = [
    "BACKENDS",
    "InProcTransport",
    "ProcessTransport",
    "Transport",
    "WIRE_VERSION",
    "decode_bus_log",
    "decode_deltas",
    "decode_fragment",
    "decode_partials",
    "decode_pattern",
    "encode_bus_log",
    "encode_deltas",
    "encode_fragment",
    "encode_partials",
    "encode_pattern",
    "make_transport",
    "process_backend_available",
    "resolve_backend",
]
