"""Gate definitions for the circuit IR.

Every gate used by the transpiler, the simulators, and the benchmark suite is
defined here.  A :class:`Gate` is an immutable description (name, number of
qubits, parameters); its unitary matrix is produced on demand by
:meth:`Gate.matrix`.

The device basis used throughout the project is the IBM basis
``{rz, sx, x, cx}`` plus ``measure``/``barrier``/``delay`` directives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "Gate",
    "GateError",
    "gate",
    "standard_gate_names",
    "is_directive",
    "DIRECTIVES",
    "BASIS_GATES",
]

#: Names that are scheduling/measurement directives, not unitary gates.
DIRECTIVES = frozenset({"measure", "barrier", "reset", "delay"})

#: The hardware basis targeted by the transpiler (IBM's basis).
BASIS_GATES = ("rz", "sx", "x", "cx")


class GateError(ValueError):
    """Raised for malformed gate construction or unknown gate names."""


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """Return the general single-qubit rotation U(theta, phi, lambda)."""
    ct = math.cos(theta / 2.0)
    st = math.sin(theta / 2.0)
    return np.array(
        [
            [ct, -cmath.exp(1j * lam) * st],
            [cmath.exp(1j * phi) * st, cmath.exp(1j * (phi + lam)) * ct],
        ],
        dtype=complex,
    )


_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q: Dict[str, np.ndarray] = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
}

# Two-qubit convention: qubit index 0 in the instruction's qubit list is the
# *first* (most significant) tensor factor.  CX below is control=qubit0,
# target=qubit1 in that big-endian convention.
_FIXED_2Q: Dict[str, np.ndarray] = {
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "iswap": np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "cy": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], dtype=complex
    ),
    "ch": np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, _SQ2, _SQ2],
            [0, 0, _SQ2, -_SQ2],
        ],
        dtype=complex,
    ),
}

_FIXED_3Q: Dict[str, np.ndarray] = {}


def _ccx_matrix() -> np.ndarray:
    mat = np.eye(8, dtype=complex)
    mat[[6, 7], :] = mat[[7, 6], :]
    return mat


def _cswap_matrix() -> np.ndarray:
    mat = np.eye(8, dtype=complex)
    mat[[5, 6], :] = mat[[6, 5], :]
    return mat


_FIXED_3Q["ccx"] = _ccx_matrix()
_FIXED_3Q["cswap"] = _cswap_matrix()


def _rx(theta: float) -> np.ndarray:
    return _u3(theta, -math.pi / 2, math.pi / 2)


def _ry(theta: float) -> np.ndarray:
    return _u3(theta, 0.0, 0.0)


def _rz(phi: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * phi / 2), 0], [0, cmath.exp(1j * phi / 2)]], dtype=complex
    )


def _p(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _u(theta: float, phi: float, lam: float) -> np.ndarray:
    return _u3(theta, phi, lam)


def _controlled(mat: np.ndarray) -> np.ndarray:
    dim = mat.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = mat
    return out


def _cp(lam: float) -> np.ndarray:
    return _controlled(_p(lam))


def _crx(theta: float) -> np.ndarray:
    return _controlled(_rx(theta))


def _cry(theta: float) -> np.ndarray:
    return _controlled(_ry(theta))


def _crz(theta: float) -> np.ndarray:
    return _controlled(_rz(theta))


def _rzz(theta: float) -> np.ndarray:
    e_m = cmath.exp(-1j * theta / 2)
    e_p = cmath.exp(1j * theta / 2)
    return np.diag([e_m, e_p, e_p, e_m]).astype(complex)


def _rxx(theta: float) -> np.ndarray:
    c = math.cos(theta / 2)
    s = -1j * math.sin(theta / 2)
    return np.array(
        [[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]], dtype=complex
    )


def _ryy(theta: float) -> np.ndarray:
    c = math.cos(theta / 2)
    s = 1j * math.sin(theta / 2)
    return np.array(
        [[c, 0, 0, s], [0, c, -s, 0], [0, -s, c, 0], [s, 0, 0, c]], dtype=complex
    )


_PARAMETRIC: Dict[str, Tuple[int, int, Callable[..., np.ndarray]]] = {
    # name: (num_qubits, num_params, matrix builder)
    "rx": (1, 1, _rx),
    "ry": (1, 1, _ry),
    "rz": (1, 1, _rz),
    "p": (1, 1, _p),
    "u1": (1, 1, _p),
    "u": (1, 3, _u),
    "u3": (1, 3, _u),
    "u2": (1, 2, lambda phi, lam: _u3(math.pi / 2, phi, lam)),
    "cp": (2, 1, _cp),
    "cu1": (2, 1, _cp),
    "crx": (2, 1, _crx),
    "cry": (2, 1, _cry),
    "crz": (2, 1, _crz),
    "rzz": (2, 1, _rzz),
    "rxx": (2, 1, _rxx),
    "ryy": (2, 1, _ryy),
}

_FIXED: Dict[str, np.ndarray] = {}
_FIXED.update(_FIXED_1Q)
_FIXED.update(_FIXED_2Q)
_FIXED.update(_FIXED_3Q)


def standard_gate_names() -> Tuple[str, ...]:
    """Return every gate name known to the IR (directives excluded)."""
    return tuple(sorted(set(_FIXED) | set(_PARAMETRIC)))


def is_directive(name: str) -> bool:
    """Return True if *name* is a non-unitary directive (measure etc.)."""
    return name in DIRECTIVES


@dataclass(frozen=True)
class Gate:
    """An immutable gate description.

    Parameters
    ----------
    name:
        Lower-case gate name (``"cx"``, ``"rz"``, ...).
    num_qubits:
        Number of qubits the gate acts on.
    params:
        Tuple of float parameters (empty for fixed gates).
    """

    name: str
    num_qubits: int
    params: Tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.name in _FIXED:
            if self.params:
                raise GateError(f"gate {self.name!r} takes no parameters")
            expected = int(math.log2(_FIXED[self.name].shape[0]))
            if self.num_qubits != expected:
                raise GateError(
                    f"gate {self.name!r} acts on {expected} qubits, "
                    f"got {self.num_qubits}"
                )
        elif self.name in _PARAMETRIC:
            nq, np_, _ = _PARAMETRIC[self.name]
            if self.num_qubits != nq:
                raise GateError(
                    f"gate {self.name!r} acts on {nq} qubits, got {self.num_qubits}"
                )
            if len(self.params) != np_:
                raise GateError(
                    f"gate {self.name!r} takes {np_} parameters, "
                    f"got {len(self.params)}"
                )
        elif self.name in DIRECTIVES:
            pass
        else:
            raise GateError(f"unknown gate {self.name!r}")

    @property
    def is_directive(self) -> bool:
        """True for measure/barrier/reset/delay pseudo-gates."""
        return self.name in DIRECTIVES

    def matrix(self) -> np.ndarray:
        """Return the unitary matrix of the gate (big-endian qubit order)."""
        if self.name in _FIXED:
            return _FIXED[self.name].copy()
        if self.name in _PARAMETRIC:
            _, _, builder = _PARAMETRIC[self.name]
            return builder(*self.params)
        raise GateError(f"directive {self.name!r} has no matrix")

    def inverse(self) -> "Gate":
        """Return the gate implementing the inverse unitary."""
        inverses = {
            "s": "sdg",
            "sdg": "s",
            "t": "tdg",
            "tdg": "t",
            "sx": "sxdg",
            "sxdg": "sx",
        }
        if self.name in inverses:
            return Gate(inverses[self.name], 1)
        if self.name in _FIXED:
            # Remaining fixed gates are self-inverse (X, Y, Z, H, CX, CZ,
            # SWAP, CCX, CSWAP, CY, CH) except iSWAP.
            if self.name == "iswap":
                raise GateError("iswap inverse is not in the gate set")
            return self
        if self.name in _PARAMETRIC:
            if self.name in ("u", "u3"):
                theta, phi, lam = self.params
                return Gate(self.name, 1, (-theta, -lam, -phi))
            if self.name == "u2":
                phi, lam = self.params
                return Gate("u3", 1, (-math.pi / 2, -lam, -phi))
            return Gate(self.name, self.num_qubits,
                        tuple(-p for p in self.params))
        raise GateError(f"directive {self.name!r} has no inverse")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.params:
            pstr = ", ".join(f"{p:.6g}" for p in self.params)
            return f"Gate({self.name}({pstr}))"
        return f"Gate({self.name})"


def gate(name: str, *params: float) -> Gate:
    """Construct a :class:`Gate` by name, inferring its qubit count.

    Each parameter is coerced with ``float``.

    >>> gate("cx").num_qubits
    2
    >>> gate("rz", 0.5).params
    (0.5,)
    """
    name = name.lower()
    if name in _FIXED:
        nq = int(math.log2(_FIXED[name].shape[0]))
        return Gate(name, nq, tuple(float(p) for p in params))
    if name in _PARAMETRIC:
        nq, _, _ = _PARAMETRIC[name]
        return Gate(name, nq, tuple(float(p) for p in params))
    raise GateError(f"unknown gate {name!r}")
