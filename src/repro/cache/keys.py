"""Cache-key layer: structural keys and stable digests.

Every compile-cache tier keys on the same request description — circuit
structure plus placement (partition, EFS, crosstalk pairs), the device,
and the transpiler hook — in one of two forms:

- the **exact key** is the structural tuple (label-exact circuit
  structure, ``id()``-based device/hook identity) used by the in-memory
  L1 and the in-flight coalescing map — cheap, process-local.  Its
  circuit part is the circuit's :func:`fingerprint`, built once per
  circuit and read by every layer that keys on structure;
- the **persistent digest** is a stable SHA-256 over the same
  structural key with *value* fingerprints in place of ``id()``s
  (device coupling/calibration fingerprints, a declared hook token),
  valid across processes and process restarts — the on-disk L2 key.

:func:`transpile_key` computes the exact key and returns it as a
:class:`TranspileKey` whose hash/equality is the exact tuple; the
digest is computed on first read, since only a persistent store reads
it.  A circuit submitted over a permuted qubit register is a different
structure: it gets its own keys and its own artifact.

Index-sensitive hooks (see :func:`index_sensitive_transpiler`) never get
a digest: their artifacts depend on the queue position, so
cross-process reuse would silently change behavior (CNA's precompiled
lookup is the canonical example).
"""

from __future__ import annotations

import hashlib
import numbers
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import (ControlFlowOp, ForLoopOp, IfElseOp,
                                    WhileLoopOp)
from ..circuits.gates import DIRECTIVES
from ..transpiler.context import (
    calibration_fingerprint,
    coupling_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.qucp import ProgramAllocation
    from ..hardware.devices import Device

__all__ = [
    "Fingerprint",
    "TranspileKey",
    "circuit_key",
    "device_digest",
    "fingerprint",
    "index_sensitive_transpiler",
    "key_digest",
    "persistent_cache_token",
    "persistent_token",
    "transpile_key",
]

#: Attribute marking a transpiler hook whose output depends on
#: ``ProgramAllocation.index`` (see :func:`index_sensitive_transpiler`).
_INDEX_SENSITIVE_ATTR = "_observes_allocation_index"

#: Attribute carrying a hook's stable cross-process cache token
#: (see :func:`persistent_cache_token`).
_PERSISTENT_TOKEN_ATTR = "_persistent_cache_token"

#: Bump when the persistent key or payload format changes — old store
#: entries then simply miss instead of deserializing garbage.
_DIGEST_SCHEMA = 1


def index_sensitive_transpiler(fn):
    """Mark *fn* as observing ``ProgramAllocation.index``.

    The default transpile key is *structural*: it covers the circuit,
    partition, EFS, and crosstalk pairs but not the queue index, so
    identical programs submitted at different queue positions dedup into
    one cache entry.  A hook whose result genuinely depends on the index
    (e.g. CNA's precompiled-lookup adapter) must be wrapped with this
    decorator; its entries are then keyed index-sensitively, never alias
    across queue positions, and are excluded from persistent reuse.
    """
    setattr(fn, _INDEX_SENSITIVE_ATTR, True)
    return fn


def persistent_cache_token(token: str):
    """Decorator declaring a hook's stable cross-process cache identity.

    In-memory tiers key hooks by ``id()``, which means nothing across
    processes — so only hooks carrying a declared token participate in
    the persistent store.  The token must change whenever the hook's
    output would (it plays the role a version string plays in any
    on-disk cache)::

        @persistent_cache_token("my-pipeline-v2")
        def my_hook(circuit, device, allocation): ...
    """

    def mark(fn):
        setattr(fn, _PERSISTENT_TOKEN_ATTR, str(token))
        return fn

    return mark


def persistent_token(fn) -> Optional[str]:
    """The hook's declared persistent token, or ``None`` (not persistable)."""
    token = getattr(fn, _PERSISTENT_TOKEN_ATTR, None)
    return None if token is None else str(token)


def _condition_key(condition) -> Tuple:
    return (tuple(condition.clbits), condition.value)


def _control_flow_payload(op: ControlFlowOp) -> Tuple:
    """Recursive structural payload of a control-flow op.

    Body instruction sequences are encoded in order; declared body
    widths are deliberately excluded — they are a labeling artifact
    (``max touched qubit + 1``), not structure.
    """
    bodies = tuple(
        tuple(_entry(inst) for inst in body.instructions)
        for body in op.bodies)
    if isinstance(op, IfElseOp):
        extra: Tuple = ("if", _condition_key(op.condition), len(op.bodies))
    elif isinstance(op, ForLoopOp):
        # The ``None`` stands where loops once named a loop parameter:
        # keeping it leaves every persistent digest unchanged.
        extra = ("for", tuple(op.indexset), None)
    elif isinstance(op, WhileLoopOp):
        extra = ("while", _condition_key(op.condition), op.max_iterations)
    else:  # pragma: no cover - future op kinds fall back to the name
        extra = (op.name,)
    return extra + (bodies,)


def _entry(inst) -> Tuple:
    """One instruction's key entry: static instructions by name, params
    and bits; control-flow ops by their recursive payload."""
    if isinstance(inst.gate, ControlFlowOp):
        return (inst.name, _control_flow_payload(inst.gate),
                inst.qubits, inst.clbits)
    return (inst.name, inst.params, inst.qubits, inst.clbits)


class _Key:
    """A tuple key that hashes once.

    Python does not cache tuple hashes, so a nested key would be
    re-hashed on every dict operation; memos key on these instead.
    Equality is the wrapped tuple's.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: Tuple) -> None:
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Key):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key


class Fingerprint(_Key):
    """One circuit's exact structural key (``(num_qubits, num_clbits,
    entries)``, what :func:`circuit_key` returns) hashed once, with its
    ``size()``, ``num_twoq_gates()`` (``twoq``) and whether it holds
    control flow (``dynamic``)."""

    __slots__ = ("size", "twoq", "dynamic", "__weakref__")

    def __init__(self, key: _Key, size: int, twoq: int,
                 dynamic: bool) -> None:
        # Adopts *key*'s tuple and hash: the tuple is hashed only once.
        self.key, self._hash = key.key, key._hash
        self.size = size
        self.twoq = twoq
        self.dynamic = dynamic


#: key -> its live fingerprint, so equal circuits share one object.
_FINGERPRINTS: "weakref.WeakValueDictionary[_Key, Fingerprint]" = \
    weakref.WeakValueDictionary()
_fingerprint_lock = threading.Lock()


def fingerprint(circuit: QuantumCircuit) -> Fingerprint:
    """The circuit's interned :class:`Fingerprint`.

    Cached on the circuit and reused while its instruction count and
    register sizes are unchanged, which is sound because instructions
    are only ever appended.  A circuit holding control flow is
    fingerprinted afresh on every call: an op's bodies are the caller's
    circuits and may change after the op was appended.  Control-flow
    ops contribute a recursive payload (nested bodies, condition,
    indexset/max-iterations), so two dynamic programs with the same
    block structure share cache entries.
    """
    instructions = circuit._instructions  # noqa: SLF001
    fp = circuit._fingerprint  # noqa: SLF001
    if (fp is not None and len(fp.key[2]) == len(instructions)
            and fp.key[0] == circuit.num_qubits
            and fp.key[1] == circuit.num_clbits):
        return fp
    entries = []
    size = twoq = 0
    dynamic = False
    for inst in instructions:  # _entry inlined: halves a cold fingerprint
        g = inst.gate
        if isinstance(g, ControlFlowOp):
            dynamic = True
            entries.append(_entry(inst))
        else:
            entries.append((g.name, g.params, inst.qubits, inst.clbits))
        if g.name not in DIRECTIVES:
            size += 1
            if len(inst.qubits) >= 2:
                twoq += 1
    key = _Key((circuit.num_qubits, circuit.num_clbits, tuple(entries)))
    with _fingerprint_lock:
        fp = _FINGERPRINTS.get(key)
        if fp is None:
            fp = _FINGERPRINTS[key] = Fingerprint(key, size, twoq, dynamic)
    if not dynamic:
        circuit._fingerprint = fp  # noqa: SLF001
    return fp


def circuit_key(circuit: QuantumCircuit) -> Tuple:
    """Structural key of a circuit (its :func:`fingerprint`'s key)."""
    return fingerprint(circuit).key


# ----------------------------------------------------------------------
# stable digests
# ----------------------------------------------------------------------

def _normalize(obj):
    """Coerce numpy scalars to plain Python so ``repr`` is stable."""
    if isinstance(obj, (tuple, list)):
        return tuple(_normalize(o) for o in obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    return obj


def key_digest(parts) -> str:
    """Stable SHA-256 hex digest of a (nested) tuple of plain values."""
    return hashlib.sha256(repr(_normalize(parts)).encode()).hexdigest()


#: id-keyed device-digest memo.  Entries pin the device object so a
#: recycled id() can never alias a different device (same convention as
#: the in-memory cache values); bounded because benchmarks mint
#: short-lived devices.  Like the ``id()``-keyed in-memory tiers, the
#: memo treats a device's calibration as frozen — mutate it in place and
#: stale entries may be served; build a fresh Device instead.
_DEVICE_DIGESTS: "OrderedDict[int, Tuple[object, str]]" = OrderedDict()
_DEVICE_DIGESTS_MAX = 64
_device_digest_lock = threading.Lock()


def device_digest(device: "Device") -> str:
    """Stable value digest of what compilation observes of a device.

    It covers the coupling map and the calibration tables, not the
    device's name or crosstalk model, so two devices that differ only
    there share it.  It keys compile artifacts; it does not identify a
    stored device (the job store keys those by a digest of the whole
    device's pickle).
    """
    with _device_digest_lock:
        entry = _DEVICE_DIGESTS.get(id(device))
        if entry is not None and entry[0] is device:
            _DEVICE_DIGESTS.move_to_end(id(device))
            return entry[1]
    digest = key_digest((
        "device",
        coupling_fingerprint(device.coupling),
        calibration_fingerprint(device.calibration),
    ))
    with _device_digest_lock:
        _DEVICE_DIGESTS[id(device)] = (device, digest)
        while len(_DEVICE_DIGESTS) > _DEVICE_DIGESTS_MAX:
            _DEVICE_DIGESTS.popitem(last=False)
    return digest


# ----------------------------------------------------------------------
# the compound transpile key
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TranspileKey:
    """Both key forms of one transpile request.

    Hash/equality delegate to :attr:`exact`, so in-flight coalescing and
    the exact L1 behave exactly as the plain tuple key did.  Only the
    exact key is built up front: an L1 hit reads nothing else.  The
    persistent :attr:`digest` is computed on first read.
    """

    #: Label-exact structural tuple with id-based device/hook identity:
    #: ``(circuit fingerprint, index) + placement + (id(device),
    #: id(hook))``.
    exact: Tuple
    #: What the digest reads besides :attr:`exact`: the device and the
    #: hook; ``None`` for index-sensitive hooks, which get no digest.
    sources: Optional[Tuple] = field(default=None, repr=False)

    @cached_property
    def digest(self) -> Optional[str]:
        """Stable cross-process store key: SHA-256 over the exact
        structural key, the placement, the device's value digest and the
        hook's token; ``None`` = not persistable."""
        if self.sources is None:
            return None
        device, transpiler_fn = self.sources
        token = persistent_token(transpiler_fn)
        if token is None:
            return None
        return key_digest(("transpile", _DIGEST_SCHEMA, self.exact[0].key)
                          + self.exact[2:5]
                          + (device_digest(device), token))

    def __hash__(self) -> int:
        return hash(self.exact)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TranspileKey):
            return self.exact == other.exact
        return NotImplemented


def transpile_key(circuit: QuantumCircuit, device: "Device",
                  allocation: "ProgramAllocation",
                  transpiler_fn) -> TranspileKey:
    """Key one request.

    The exact key is *structural*: circuit structure, placement
    (partition, EFS, crosstalk pairs), the device, and the hook — but
    **not** ``allocation.index``, so identical programs admitted at
    different queue positions share one entry across submissions.  Hooks
    that actually observe the index (marked via
    :func:`index_sensitive_transpiler`) get the index folded back in and
    no persistent digest.  The digest is computed on first read (see
    :class:`TranspileKey`).
    """
    circuit_exact = fingerprint(circuit)
    index_sensitive = getattr(transpiler_fn, _INDEX_SENSITIVE_ATTR, False)
    index = allocation.index if index_sensitive else None
    placement = (allocation.partition, allocation.efs,
                 allocation.crosstalk_pairs)
    exact = (circuit_exact, index) + placement + (
        id(device), id(transpiler_fn))
    if index_sensitive:
        return TranspileKey(exact)
    return TranspileKey(exact, (device, transpiler_fn))
