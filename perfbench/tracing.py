"""Traced pass: spans recorded from outside the program, plus a profiler.

Nothing in ``src/`` knows about tracing.  :class:`Tracer` wraps the public
entry points of each layer on their classes (and ``encode_frame`` in the
modules that import it by name) for the duration of one traced repetition,
and restores the originals afterwards.  The wrappers must be installed
before the cluster is built: the simulated transport binds ``Network.send``
once at construction, so a wrapper installed later would never be called.

Each span is ``(name, start, end, parent, command)``.  The command field is
an integer id (``client * 2**20 + sequence``) where the boundary can see
one and -1 elsewhere.  Spans live in flat in-memory arrays and are written
to disk once, when the benchmark ends.  A span's self time is its duration
minus the time covered by its direct children.

Layers entered only through private handlers (the CAESAR core's ``_on_*``
methods, the baseline protocols, the runtime kernel's dispatch table) have
no public boundary to wrap; their self time comes from a ``cProfile`` pass
running in the same repetition, bucketed by source package.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.kvstore.store import KeyValueStore
from repro.metrics.collector import MetricsCollector
from repro.net import client as net_client
from repro.net import replica as net_replica
from repro.net import transport as net_transport
from repro.net.framing import FrameDecoder
from repro.net.transport import AsyncioTransport
from repro.runtime.kernel import ProtocolKernel
from repro.runtime.registry import MessageRegistry
from repro.runtime.transport import SimulatorTransport
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from repro.workload.generator import ConflictWorkload

#: Span names, in the order they are reported.
SPAN_NAMES = (
    "harness.run",             # the benchmark's own run-phase span (root)
    "sim.Simulator.run",
    "sim.Network.send",
    "sim.Node.receive",
    "runtime.ProtocolKernel.handle_message",
    "runtime.SimulatorTransport.send",
    "runtime.AsyncioTransport.send",
    "runtime.MessageRegistry.encode",
    "runtime.MessageRegistry.decode_one",
    "net.FrameDecoder.feed",
    "net.encode_frame",
    "kvstore.KeyValueStore.apply",
    "metrics.MetricsCollector.record_command",
    "workload.ConflictWorkload.next_command",
)
_CODE = {name: index for index, name in enumerate(SPAN_NAMES)}

#: Source-package buckets for profiler self time, matched on the path of the
#: function's file; builtins are matched on their name.
_PACKAGE_BUCKETS = (
    ("core", f"{os.sep}repro{os.sep}core{os.sep}"),
    ("baselines", f"{os.sep}repro{os.sep}baselines{os.sep}"),
    ("consensus", f"{os.sep}repro{os.sep}consensus{os.sep}"),
    ("runtime.codec", f"{os.sep}repro{os.sep}runtime{os.sep}codec.py"),
    ("runtime.codec", f"{os.sep}repro{os.sep}runtime{os.sep}registry.py"),
    ("runtime.codec", f"{os.sep}repro{os.sep}runtime{os.sep}fields.py"),
    ("runtime", f"{os.sep}repro{os.sep}runtime{os.sep}"),
    ("sim", f"{os.sep}repro{os.sep}sim{os.sep}"),
    ("net", f"{os.sep}repro{os.sep}net{os.sep}"),
    ("kvstore", f"{os.sep}repro{os.sep}kvstore{os.sep}"),
    ("metrics", f"{os.sep}repro{os.sep}metrics{os.sep}"),
    ("workload", f"{os.sep}repro{os.sep}workload{os.sep}"),
    ("harness", f"{os.sep}repro{os.sep}harness{os.sep}"),
    ("benchmark", f"{os.sep}perfbench{os.sep}"),
    ("asyncio", f"{os.sep}asyncio{os.sep}"),
    ("asyncio", f"{os.sep}selectors.py"),
    ("asyncio", f"{os.sep}socket.py"),
)
_ASYNCIO_BUILTINS = ("select.epoll", "_socket.", "_asyncio.", "socket.socket", "_overlapped")


def command_code(command_id) -> int:
    """Integer span id for a ``(client, sequence)`` command id."""
    client, sequence = command_id
    return (client << 20) | sequence


def _message_command(message) -> int:
    """Command id a message (or command) carries, as a span id (-1 if none)."""
    command_id = getattr(message, "command_id", None)
    if command_id is None:
        command = getattr(message, "command", None)
        command_id = getattr(command, "command_id", None)
    return command_code(command_id) if isinstance(command_id, tuple) else -1


def _command_at(position: int) -> Callable:
    """Extract the command id from the wrapped call's argument ``position``."""
    return lambda args: _message_command(args[position])


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.commands = array("l")
        self._child = array("d")
        self._stack: List[int] = []
        #: bytes produced by ``MessageRegistry.encode`` / ``encode_frame``.
        self.codec_bytes = 0
        self.frame_bytes = 0
        self._restore: List[Tuple[object, str, object]] = []
        self.profile: Optional[cProfile.Profile] = None
        #: per-package profiler self time at each run-phase split point.
        self.quarters: List[Dict[str, float]] = []

    # ------------------------------------------------------------ recording

    def open(self, code: int, command: int = -1) -> int:
        """Open a span and make it the current parent; returns its index."""
        index = len(self.starts)
        stack = self._stack
        self.names.append(code)
        self.parents.append(stack[-1] if stack else -1)
        self.commands.append(command)
        self.ends.append(0.0)
        self._child.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """Close the span opened as ``index``."""
        end = time.perf_counter()
        self.ends[index] = end
        self._stack.pop()
        parent = self.parents[index]
        if parent >= 0:
            self._child[parent] += end - self.starts[index]

    def _wrap(self, fn: Callable, name: str, command_of: Optional[Callable] = None,
              bytes_attr: Optional[str] = None) -> Callable:
        code = _CODE[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            command = command_of(args) if command_of is not None else -1
            index = tracer.open(code, command)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if bytes_attr is not None:
                setattr(tracer, bytes_attr, getattr(tracer, bytes_attr) + len(result))
            return result

        return wrapper

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function, consuming it inside the span."""
        code = _CODE[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(code)
            try:
                items = list(fn(*args, **kwargs))
            finally:
                tracer.close(index)
            return iter(items)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced entry point (call before building the cluster)."""
        plain = [
            (Simulator, "run", "sim.Simulator.run", None, None),
            (Network, "send", "sim.Network.send", _command_at(3), None),
            (Node, "receive", "sim.Node.receive", _command_at(2), None),
            (ProtocolKernel, "handle_message", "runtime.ProtocolKernel.handle_message",
             _command_at(2), None),
            (SimulatorTransport, "send", "runtime.SimulatorTransport.send",
             _command_at(2), None),
            (AsyncioTransport, "send", "runtime.AsyncioTransport.send", _command_at(2), None),
            (MessageRegistry, "encode", "runtime.MessageRegistry.encode",
             _command_at(1), "codec_bytes"),
            (MessageRegistry, "decode_one", "runtime.MessageRegistry.decode_one", None, None),
            (KeyValueStore, "apply", "kvstore.KeyValueStore.apply", _command_at(1), None),
            (MetricsCollector, "record_command", "metrics.MetricsCollector.record_command",
             None, None),
            (ConflictWorkload, "next_command", "workload.ConflictWorkload.next_command",
             None, None),
        ]
        for owner, attr, name, command_of, bytes_attr in plain:
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, command_of,
                                                bytes_attr))
        self._patch(FrameDecoder, "feed",
                    self._wrap_generator(FrameDecoder.__dict__["feed"], "net.FrameDecoder.feed"))
        # encode_frame is imported by name, so it is replaced where it is used.
        for module in (net_client, net_transport, net_replica):
            self._patch(module, "encode_frame",
                        self._wrap(module.__dict__["encode_frame"], "net.encode_frame",
                                   None, "frame_bytes"))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------- aggregation

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and self seconds within the run phase.

        Span 0 is the run-phase root; spans opened after it closed (teardown
        traffic) are left out.
        """
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        names, starts, ends, child = self.names, self.starts, self.ends, self._child
        run_end = ends[0]
        for index in range(len(starts)):
            if starts[index] > run_end:
                continue
            row = out[SPAN_NAMES[names[index]]]
            row["calls"] += 1
            row["self_s"] += ends[index] - starts[index] - child[index]
        return out

    def write(self, path: str) -> None:
        """Write the recorded spans as a tab-separated file (one span a line)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        names, starts, ends, parents, commands = (self.names, self.starts, self.ends,
                                                  self.parents, self.commands)
        origin = starts[0] if len(starts) else 0.0
        with open(path, "w", encoding="ascii") as out:
            out.write("index\tname\tstart_us\tend_us\tparent\tcommand\n")
            out.writelines(
                f"{i}\t{SPAN_NAMES[names[i]]}\t{(starts[i] - origin) * 1e6:.1f}\t"
                f"{(ends[i] - origin) * 1e6:.1f}\t{parents[i]}\t{commands[i]}\n"
                for i in range(len(starts)))

    # ------------------------------------------------------------ run phase

    def begin_run(self) -> None:
        """Start the run phase: drop set-up spans, open the root, start profiling."""
        for column in (self.names, self.starts, self.ends, self.parents, self.commands,
                       self._child):
            del column[:]
        self.codec_bytes = self.frame_bytes = 0
        self.quarters = []
        self._root = self.open(_CODE["harness.run"])
        self.profile = cProfile.Profile()
        self.profile.enable()

    def mark(self) -> None:
        """Snapshot the per-package profile at a run-phase split point."""
        self.profile.disable()
        self.quarters.append(package_self_seconds(self.profile))
        self.profile.enable()

    def end_run(self) -> None:
        """Stop profiling and close the root span (checks run after this)."""
        self.profile.disable()
        self.close(self._root)


def package_self_seconds(profile: cProfile.Profile) -> Dict[str, float]:
    """Bucket a profile's self time by the package that defines each function."""
    stats = pstats.Stats(profile).stats
    buckets: Dict[str, float] = {}
    for (filename, _line, function), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        bucket = "other"
        if filename == "~":
            if any(marker in function for marker in _ASYNCIO_BUILTINS):
                bucket = "asyncio"
            else:
                bucket = "builtins"
        else:
            for name, marker in _PACKAGE_BUCKETS:
                if marker in filename:
                    bucket = name
                    break
        buckets[bucket] = buckets.get(bucket, 0.0) + tottime
    return buckets
