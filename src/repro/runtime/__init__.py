"""Protocol-runtime kernel shared by every replica implementation.

The :mod:`repro.runtime` package is the common substrate the five protocols
(CAESAR, EPaxos, M2Paxos, Mencius, Multi-Paxos) run on:

* :mod:`repro.runtime.codec` — composable field codecs producing a compact,
  deterministic byte encoding for every wire value;
* :mod:`repro.runtime.registry` — the declarative message registry: each
  slotted message type is registered once with per-field codecs, which gives
  every protocol exact-type dispatch and byte-accurate wire accounting;
* :mod:`repro.runtime.fields` — shared field codecs for the consensus value
  types (commands, ballots, logical timestamps);
* :mod:`repro.runtime.kernel` — :class:`~repro.runtime.kernel.ProtocolKernel`,
  the replica base class providing declarative message dispatch
  (:func:`~repro.runtime.kernel.handles`), quorum trackers, ballot registers
  and failure-detector scaffolding;
* :mod:`repro.runtime.transport` — the :class:`~repro.runtime.transport.Transport`
  interface replicas send through, with the simulator-backed transport
  (including transport-level batching) as one backend and
  :class:`~repro.net.transport.AsyncioTransport` as the other;
* :mod:`repro.runtime.stats` — the unified per-replica
  :class:`~repro.runtime.stats.ProtocolStats` record.

Adding a new protocol means: declare its messages with
:func:`~repro.runtime.registry.register_message`, subclass ``ProtocolKernel``,
mark handlers with ``@handles(MessageType)``, and register a builder with the
harness — the kernel supplies dispatch, stats, quorum tracking, timers,
transport and failure detection.  See README.md for a worked example.
"""

from repro.runtime.registry import WIRE, MessageRegistry, register_message
from repro.runtime.stats import ProtocolStats
from repro.runtime.transport import SimulatorTransport, Transport

#: Kernel names are re-exported lazily: the kernel depends on the replica
#: interface, which imports the ``repro.sim`` package, whose failure detector
#: registers its messages through this package — an eager import here would
#: close that loop.
_KERNEL_EXPORTS = ("BallotRegister", "ProtocolKernel", "QuorumTracker", "handles")


def __getattr__(name: str):
    if name in _KERNEL_EXPORTS:
        from repro.runtime import kernel

        return getattr(kernel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BallotRegister",
    "MessageRegistry",
    "ProtocolKernel",
    "ProtocolStats",
    "QuorumTracker",
    "SimulatorTransport",
    "Transport",
    "WIRE",
    "handles",
    "register_message",
]
