"""Cache-key layer: structural keys, equivalence classes, stable digests.

Every compile-cache tier keys on the same request description — circuit
structure plus placement (partition, EFS, crosstalk pairs), the device,
and the transpiler hook — but each tier needs a different *form* of it:

- the **exact key** is the PR-4 structural tuple (label-exact circuit
  structure, ``id()``-based device/hook identity) used by the in-memory
  L1 and the in-flight coalescing map — cheap, process-local.  Its
  circuit part is the circuit's :func:`fingerprint`, built once per
  circuit and read by every layer that keys on structure;
- the **canonical key** adds equivalence-class dedup: a cheap
  qubit-relabel canonicalization (first-appearance order over the gate
  sequence) maps equivalent-but-not-identical circuits to one
  representative, so a circuit submitted over a permuted qubit register
  reuses the representative's compiled artifact (layouts remapped
  through the relabeling — the physical circuit is label-invariant);
- the **persistent digest** is a stable SHA-256 over the canonical key
  with *value* fingerprints in place of ``id()``s (device
  coupling/calibration fingerprints, a declared hook token), valid
  across processes and process restarts — the on-disk L2 key.

:func:`transpile_key` computes the exact key and returns it as a
:class:`TranspileKey` whose hash/equality is the exact tuple, so the
existing L1/coalescing semantics are unchanged; the canonical key and
the digests are computed on first read, since only an exact-L1 miss
reads the one and only a persistent store the other.

The equivalence model mirrors sat_revsynth's ``database/equivalence.py``:
cheap invariants hash -> equivalence class -> canonical representative.
Canonicalization is *sound* but not complete: two circuits mapping to
the same canonical form are always related by a qubit relabeling (hence
execution-identical — same clbit distribution), while some genuinely
equivalent pairs (e.g. commuting gate reorderings) land in different
classes and simply miss the dedup.

Index-sensitive hooks (see :func:`index_sensitive_transpiler`) never get
a canonical key or a digest: their artifacts depend on the queue
position, so equivalence-class or cross-process reuse would silently
change behavior (CNA's precompiled lookup is the canonical example).
"""

from __future__ import annotations

import hashlib
import numbers
import threading
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import (ControlFlowOp, ForLoopOp, IfElseOp,
                                    WhileLoopOp)
from ..circuits.gates import DIRECTIVES
from ..circuits.parameters import Parameter, ParameterExpression
from ..transpiler.context import (
    calibration_fingerprint,
    coupling_fingerprint,
)
from ..transpiler.layout import Layout
from ..transpiler.transpile import TranspileResult

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.qucp import ProgramAllocation
    from ..hardware.devices import Device

__all__ = [
    "CanonicalForm",
    "Fingerprint",
    "TranspileKey",
    "canonical_form",
    "circuit_key",
    "device_digest",
    "fingerprint",
    "index_sensitive_transpiler",
    "invert_relabel",
    "key_digest",
    "persistent_cache_token",
    "persistent_token",
    "remap_layout",
    "remap_result",
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
    across queue positions, and are excluded from equivalence-class and
    persistent reuse.
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


def _cf_param(p):
    """Value-encode a body parameter so loop-parameterized bodies hash.

    A for-loop body's instructions carry the symbolic loop parameter; two
    freshly-built copies of the same workload hold *different* Parameter
    objects (identity-hashed), which would defeat dedup.  Inside a
    control-flow payload the parameter is op-local — the op itself
    records the binding (indexset + parameter name) — so encoding by
    name is sound there.
    """
    if isinstance(p, Parameter):
        return ("param", p.name)
    if isinstance(p, ParameterExpression):
        terms = tuple(sorted(
            (t.name, float(c)) for t, c in p._terms.items()))  # noqa: SLF001
        return ("expr", terms, float(p._constant))  # noqa: SLF001
    return p


def _condition_key(condition) -> Tuple:
    return (tuple(condition.clbits), condition.value)


def _control_flow_payload(op: ControlFlowOp,
                          relabel: Optional[Dict[int, int]]) -> Tuple:
    """Recursive structural payload of a control-flow op.

    Body instruction sequences are encoded in order (with qubits pushed
    through *relabel* when canonicalizing); declared body widths are
    deliberately excluded — they are a labeling artifact (``max touched
    qubit + 1``), and including them would split relabel-equivalent
    dynamic circuits into different classes.
    """
    bodies = tuple(
        tuple(_body_entry(inst, relabel) for inst in body.instructions)
        for body in op.bodies)
    if isinstance(op, IfElseOp):
        extra: Tuple = ("if", _condition_key(op.condition), len(op.bodies))
    elif isinstance(op, ForLoopOp):
        extra = ("for", tuple(op.indexset),
                 None if op.loop_parameter is None
                 else op.loop_parameter.name)
    elif isinstance(op, WhileLoopOp):
        extra = ("while", _condition_key(op.condition), op.max_iterations)
    else:  # pragma: no cover - future op kinds fall back to the name
        extra = (op.name,)
    return extra + (bodies,)


def _body_entry(inst, relabel: Optional[Dict[int, int]]) -> Tuple:
    qubits = inst.qubits if relabel is None \
        else tuple(relabel[q] for q in inst.qubits)
    if isinstance(inst.gate, ControlFlowOp):
        return (inst.name, _control_flow_payload(inst.gate, relabel),
                qubits, inst.clbits)
    return (inst.name, tuple(_cf_param(p) for p in inst.params),
            qubits, inst.clbits)


def _entry(inst, relabel: Optional[Dict[int, int]] = None) -> Tuple:
    """One top-level instruction's key entry.

    Static instructions keep the historical raw-params form (so existing
    keys are unchanged); control-flow ops get the recursive payload.
    """
    qubits = inst.qubits if relabel is None \
        else tuple(relabel[q] for q in inst.qubits)
    if isinstance(inst.gate, ControlFlowOp):
        return (inst.name, _control_flow_payload(inst.gate, relabel),
                qubits, inst.clbits)
    return (inst.name, inst.params, qubits, inst.clbits)


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


def fingerprint(circuit: QuantumCircuit) -> Optional[Fingerprint]:
    """The circuit's interned :class:`Fingerprint`, or ``None`` when
    unhashable (unbound symbolic parameters may be).

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
    try:
        key = _Key((circuit.num_qubits, circuit.num_clbits, tuple(entries)))
    except TypeError:
        return None
    with _fingerprint_lock:
        fp = _FINGERPRINTS.get(key)
        if fp is None:
            fp = _FINGERPRINTS[key] = Fingerprint(key, size, twoq, dynamic)
    if not dynamic:
        circuit._fingerprint = fp  # noqa: SLF001
    return fp


def circuit_key(circuit: QuantumCircuit) -> Optional[Tuple]:
    """Structural key of a circuit (its :func:`fingerprint`'s key), or
    ``None`` when unhashable."""
    fp = fingerprint(circuit)
    return None if fp is None else fp.key


# ----------------------------------------------------------------------
# equivalence-class canonicalization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    """One circuit's place in the equivalence-class model.

    ``exact_key`` is the label-exact structural key; ``key`` is the
    canonical representative's structural key (qubits relabeled by first
    appearance in the gate sequence); ``relabel`` maps each original
    logical qubit to its canonical label (``None`` when the circuit
    already is its own representative); ``invariants`` are the cheap
    label-free invariants sharding the persistent store's class index.
    """

    exact_key: Tuple
    key: Tuple
    relabel: Optional[Tuple[int, ...]]
    invariants: Tuple


def _record_appearance(instructions, order: Dict[int, int]) -> None:
    """First-appearance qubit order, descending into control-flow bodies.

    A control-flow op's own ``inst.qubits`` is a *sorted* footprint —
    walking it directly would make the relabeling depend on the original
    labels and break relabel-equivalence.  Walking the body instruction
    sequences in program order keeps the canonical form invariant under
    qubit permutation.
    """
    for inst in instructions:
        if isinstance(inst.gate, ControlFlowOp):
            for body in inst.gate.bodies:
                _record_appearance(body.instructions, order)
        else:
            for q in inst.qubits:
                if q not in order:
                    order[q] = len(order)


def canonical_form(circuit: QuantumCircuit,
                   exact: Optional[Tuple] = None) -> Optional[CanonicalForm]:
    """Canonicalize *circuit*, or ``None`` when unhashable.

    Qubits are relabeled in order of first appearance in the instruction
    sequence (unused qubits keep their relative order after the used
    ones), so any two circuits differing only by a qubit-register
    permutation share one canonical form.  Clbits are untouched — the
    measured distribution is therefore invariant across a class, which
    is what makes representative-artifact reuse execution-identical.

    *exact* is the circuit's :func:`circuit_key` when the caller already
    has it; an identity relabeling then returns that very tuple as the
    canonical key, so no second copy of it is built.
    """
    if exact is None:
        exact = circuit_key(circuit)
        if exact is None:
            return None
    order: Dict[int, int] = {}
    _record_appearance(circuit.instructions, order)
    nxt = len(order)
    relabel = [0] * circuit.num_qubits
    identity = True
    for q in range(circuit.num_qubits):
        label = order.get(q)
        if label is None:
            label = nxt
            nxt += 1
        relabel[q] = label
        if label != q:
            identity = False
    names = Counter(inst.name for inst in circuit)
    invariants = (
        circuit.num_qubits,
        circuit.num_clbits,
        len(circuit),
        tuple(sorted(names.items())),
        sum(1 for inst in circuit if len(inst.qubits) == 2),
    )
    if identity:
        return CanonicalForm(exact, exact, None, invariants)
    relabel_map = {q: label for q, label in enumerate(relabel)}
    canon = (
        circuit.num_qubits,
        circuit.num_clbits,
        tuple(_entry(inst, relabel_map) for inst in circuit),
    )
    return CanonicalForm(exact, canon, tuple(relabel), invariants)


def invert_relabel(relabel: Tuple[int, ...]) -> Tuple[int, ...]:
    """Inverse permutation: canonical label -> original logical qubit."""
    inverse = [0] * len(relabel)
    for orig, canon in enumerate(relabel):
        inverse[canon] = orig
    return tuple(inverse)


def remap_layout(layout: Layout,
                 relabel: Optional[Tuple[int, ...]]) -> Layout:
    """*layout* with each logical qubit ``q`` renamed to ``relabel[q]``.

    ``None`` means the identity relabeling and returns *layout* as is.
    """
    if relabel is None:
        return layout
    return Layout({relabel[q]: p for q, p in layout.as_dict().items()})


def remap_result(result: TranspileResult,
                 relabel: Optional[Tuple[int, ...]]) -> TranspileResult:
    """*result* with its layouts' logical labels renamed via *relabel*.

    The transpiled circuit is expressed over *physical* indices and is
    untouched — relabeling logical qubits only moves which logical name
    each layout entry carries.  ``None`` (identity) returns *result*
    itself.
    """
    if relabel is None:
        return result
    return replace(
        result,
        initial_layout=remap_layout(result.initial_layout, relabel),
        final_layout=remap_layout(result.final_layout, relabel),
    )


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
    """Stable value digest of what compilation observes of a device."""
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
    """All three key forms of one transpile request.

    Hash/equality delegate to :attr:`exact`, so in-flight coalescing and
    the exact L1 behave exactly as the plain tuple key did — two
    same-class requests with different labelings are distinct keys and
    never share a future (each gets artifacts in its own labeling).

    Only the exact key is built up front: an exact-L1 hit reads nothing
    else.  The canonical form (and with it :attr:`canonical`,
    :attr:`relabel` and the two persistent digests, SHA-256 over the
    whole canonical key) is computed on first read, from inputs captured
    when the key was made.
    """

    #: Label-exact structural tuple with id-based device/hook identity:
    #: ``(circuit fingerprint, index) + placement + (id(device),
    #: id(hook))``.
    exact: Tuple
    #: What the lazy forms read besides :attr:`exact`: a snapshot of the
    #: circuit as keyed, the device and the hook; ``None`` for
    #: index-sensitive hooks, which get no other form.
    sources: Optional[Tuple] = field(default=None, repr=False)

    @cached_property
    def _form(self) -> Optional[CanonicalForm]:
        if self.sources is None:
            return None
        return canonical_form(self.sources[0], self.exact[0].key)

    @cached_property
    def canonical(self) -> Optional[Tuple]:
        """In-memory equivalence-class key; ``None`` for index-sensitive
        hooks."""
        if self._form is None:
            return None
        return (self._form.key,) + self.exact[2:]

    @property
    def relabel(self) -> Optional[Tuple[int, ...]]:
        """Original logical qubit -> canonical label (``None`` =
        identity)."""
        return None if self._form is None else self._form.relabel

    @cached_property
    def digest_parts(self) -> Optional[Tuple[Tuple, Tuple]]:
        """``(digest parts, invariants parts)``, the inputs of
        :attr:`digest` and :attr:`invariants`; ``None`` = not
        persistable."""
        if self._form is None:
            return None
        _, device, transpiler_fn = self.sources
        token = persistent_token(transpiler_fn)
        if token is None:
            return None
        placement = self.exact[2:5]
        return (("transpile", _DIGEST_SCHEMA, self._form.key) + placement
                + (device_digest(device), token),
                ("invariants", _DIGEST_SCHEMA) + self._form.invariants)

    @cached_property
    def digest(self) -> Optional[str]:
        """Stable cross-process store key; ``None`` = not persistable."""
        if self.digest_parts is None:
            return None
        return key_digest(self.digest_parts[0])

    @cached_property
    def invariants(self) -> Optional[str]:
        """Class-invariants digest, the store's equivalence-class index."""
        if self.digest_parts is None:
            return None
        return key_digest(self.digest_parts[1])

    def __hash__(self) -> int:
        return hash(self.exact)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TranspileKey):
            return self.exact == other.exact
        return NotImplemented


def transpile_key(circuit: QuantumCircuit, device: "Device",
                  allocation: "ProgramAllocation",
                  transpiler_fn) -> Optional[TranspileKey]:
    """Key one request, or ``None`` (unhashable).

    The exact key is *structural*: circuit structure, placement
    (partition, EFS, crosstalk pairs), the device, and the hook — but
    **not** ``allocation.index``, so identical programs admitted at
    different queue positions share one entry across submissions.  Hooks
    that actually observe the index (marked via
    :func:`index_sensitive_transpiler`) get the index folded back in and
    no canonical/persistent keys at all.  The other forms are computed
    on first read (see :class:`TranspileKey`).
    """
    circuit_exact = fingerprint(circuit)
    if circuit_exact is None:
        return None
    index_sensitive = getattr(transpiler_fn, _INDEX_SENSITIVE_ATTR, False)
    index = allocation.index if index_sensitive else None
    placement = (allocation.partition, allocation.efs,
                 allocation.crosstalk_pairs)
    exact = (circuit_exact, index) + placement + (
        id(device), id(transpiler_fn))
    if index_sensitive:
        return TranspileKey(exact)
    return TranspileKey(exact, (circuit.copy(), device, transpiler_fn))
