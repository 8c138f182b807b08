"""Gate-level circuit representation shared by every benchmark.

The native gate set is the transmon-style set {X, X90, Y90, RZ, CZ}: three
physical pulses, a virtual (zero-duration) Z rotation, and one two-qubit
gate.  WAIT inserts explicit idle time; MEASURE_ALL terminates a circuit.

Scheduling is greedy and in-order: a gate joins the current layer when its
qubits are free there, otherwise it opens a new layer.  A layer's duration
is the longest gate in it, so gates on disjoint qubits in one layer count
once.  Circuits are immutable after construction and safe to share across
threads; build them single-threaded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

GATE_KINDS = ("X", "X90", "Y90", "RZ", "CZ", "WAIT", "MEASURE_ALL")
PULSE_KINDS = ("X", "X90", "Y90")  # physical single-qubit pulses

_TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Map an angle to (-pi, pi]."""
    theta = math.fmod(theta, _TWO_PI)
    if theta > math.pi:
        theta -= _TWO_PI
    elif theta <= -math.pi:
        theta += _TWO_PI
    return theta


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    qubits: tuple[int, ...] = ()
    angle_rad: float | None = None
    duration_ns: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "RZ":
            if self.angle_rad is None or not math.isfinite(self.angle_rad):
                raise ValueError("RZ requires a finite angle")
        if self.kind == "WAIT":
            if self.duration_ns is None or self.duration_ns < 0:
                raise ValueError("WAIT requires a duration >= 0")
        if self.kind == "CZ":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("CZ acts on two distinct qubits")
        elif self.kind == "MEASURE_ALL":
            if self.qubits:
                raise ValueError("MEASURE_ALL takes no qubit arguments")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")


def x(q: int) -> Gate:
    return Gate("X", (q,))


def x90(q: int) -> Gate:
    return Gate("X90", (q,))


def y90(q: int) -> Gate:
    return Gate("Y90", (q,))


def rz(q: int, angle_rad: float) -> Gate:
    return Gate("RZ", (q,), angle_rad=angle_rad)


def cz(a: int, b: int) -> Gate:
    return Gate("CZ", (min(a, b), max(a, b)))


def wait(q: int, duration_ns: float) -> Gate:
    return Gate("WAIT", (q,), duration_ns=duration_ns)


def measure_all() -> Gate:
    return Gate("MEASURE_ALL")


@dataclass(frozen=True)
class TimingModel:
    """Gate durations in nanoseconds.  RZ is a virtual frame change.

    ``kind_ns`` maps every gate kind but WAIT, which carries its own
    duration, to its duration; it is built once, from the four fields.
    """

    single_qubit_gate_ns: float = 20.0
    two_qubit_gate_ns: float = 40.0
    rz_ns: float = 0.0
    measure_ns: float = 1000.0
    kind_ns: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("single_qubit_gate_ns", "two_qubit_gate_ns", "rz_ns", "measure_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        kind_ns = dict.fromkeys(PULSE_KINDS, self.single_qubit_gate_ns)
        kind_ns.update(CZ=self.two_qubit_gate_ns, RZ=self.rz_ns, MEASURE_ALL=self.measure_ns)
        object.__setattr__(self, "kind_ns", kind_ns)

    def gate_duration_ns(self, gate: Gate) -> float:
        return float(gate.duration_ns) if gate.kind == "WAIT" else self.kind_ns[gate.kind]


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[Gate, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "ops", tuple(self.ops))
        for i, g in enumerate(self.ops):
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit {q} out of range for {self.n_qubits}-qubit circuit")
            if g.kind == "MEASURE_ALL" and i != len(self.ops) - 1:
                raise ValueError("MEASURE_ALL must be the final op")

    @property
    def has_measurement(self) -> bool:
        return bool(self.ops) and self.ops[-1].kind == "MEASURE_ALL"

    def body(self) -> tuple[Gate, ...]:
        """Ops without the trailing measurement."""
        return self.ops[:-1] if self.has_measurement else self.ops

    def layers(self) -> list[list[Gate]]:
        """Greedy in-order layering; MEASURE_ALL occupies every qubit."""
        out: list[list[Gate]] = []
        used: set[int] = set()  # qubits occupied in the open layer
        for g in self.ops:
            qs = g.qubits if g.kind != "MEASURE_ALL" else range(self.n_qubits)
            if not out or not used.isdisjoint(qs):
                out.append([g])
                used = set(qs)
            else:
                out[-1].append(g)
                used.update(qs)
        return out

    def duration_ns(self, timing: TimingModel) -> float:
        """Total duration in ns under layered scheduling."""
        return sum(
            max(timing.gate_duration_ns(g) for g in layer) for layer in self.layers()
        )

    def depth(self) -> int:
        """Number of layers containing at least one physical operation (RZ excluded)."""
        return sum(
            1 for layer in self.layers() if any(g.kind != "RZ" for g in layer)
        )

    def count(self, kind: str) -> int:
        return sum(1 for g in self.ops if g.kind == kind)


def unconnected_cz(ops: tuple[Gate, ...],
                   edges: frozenset[tuple[int, int]] | None) -> Gate | None:
    """The first CZ in ``ops`` on a pair outside ``edges``, or None.

    ``edges`` holds canonical (low, high) pairs; None means all-to-all, so
    nothing is scanned.
    """
    if edges is None:
        return None
    for g in ops:
        if g.kind == "CZ" and (min(g.qubits), max(g.qubits)) not in edges:
            return g
    return None


def remap(circuit: Circuit, mapping: list[int], n_qubits: int,
          label: str | None = None) -> Circuit:
    """Relabel circuit qubits onto a wider register.

    ``mapping[i]`` is the physical index of logical qubit ``i``; it must be
    injective.
    """
    if len(set(mapping)) != len(mapping):
        raise ValueError("qubit mapping must be injective")
    ops = []
    for g in circuit.ops:
        qs = tuple(mapping[q] for q in g.qubits)
        if g.kind == "CZ":
            qs = tuple(sorted(qs))  # symmetric gate, keep canonical order
        ops.append(Gate(g.kind, qs, angle_rad=g.angle_rad, duration_ns=g.duration_ns))
    return Circuit(n_qubits, tuple(ops), label=circuit.label if label is None else label)


@dataclass(frozen=True)
class ParamRZ:
    """Placeholder for a symbolic RZ angle in a parameterized circuit."""

    qubit: int
    index: int


@dataclass(frozen=True)
class ParamCircuit:
    """Circuit template whose RZ angles may be symbolic parameters."""

    n_qubits: int
    ops: tuple[Gate | ParamRZ, ...]
    n_params: int
    label: str = ""

    def __post_init__(self) -> None:
        # validate the template once so bind() can skip per-call checks
        slots = []
        static: list[Gate | None] = []
        for pos, op in enumerate(self.ops):
            if isinstance(op, ParamRZ):
                if not 0 <= op.index < self.n_params:
                    raise ValueError(f"parameter index {op.index} out of range")
                if not 0 <= op.qubit < self.n_qubits:
                    raise ValueError(f"qubit {op.qubit} out of range")
                slots.append((pos, op.qubit, op.index))
                static.append(None)
            else:
                static.append(op)
        probe = [
            op if op is not None else rz(self.ops[pos].qubit, 0.0)
            for pos, op in enumerate(static)
        ]
        Circuit(self.n_qubits, tuple(probe), label=self.label)  # structural check
        object.__setattr__(self, "_slots", tuple(slots))
        object.__setattr__(self, "_static", tuple(static))

    def bind(self, values: list[float] | tuple[float, ...]) -> Circuit:
        """Concrete circuit with every parameter slot filled.

        The template was validated at construction, so the hot path avoids
        re-running structural checks (binding sits inside timed throughput
        loops).
        """
        if len(values) != self.n_params:
            raise ValueError(
                f"expected {self.n_params} parameter values, got {len(values)}"
            )
        values = [float(v) for v in values]
        if not all(map(math.isfinite, values)):
            raise ValueError("RZ angles must be finite")
        ops: list[Gate] = list(self._static)
        new = object.__new__
        setattr_ = object.__setattr__
        for pos, qubit, index in self._slots:
            g = new(Gate)
            setattr_(g, "kind", "RZ")
            setattr_(g, "qubits", (qubit,))
            setattr_(g, "angle_rad", values[index])
            setattr_(g, "duration_ns", None)
            ops[pos] = g
        circuit = new(Circuit)
        setattr_(circuit, "n_qubits", self.n_qubits)
        setattr_(circuit, "ops", tuple(ops))
        setattr_(circuit, "label", self.label)
        return circuit


def parameterize_rz(circuit: Circuit, label: str | None = None) -> ParamCircuit:
    """Turn every RZ angle of a circuit into a free parameter."""
    ops: list[Gate | ParamRZ] = []
    k = 0
    for g in circuit.ops:
        if g.kind == "RZ":
            ops.append(ParamRZ(g.qubits[0], k))
            k += 1
        else:
            ops.append(g)
    return ParamCircuit(circuit.n_qubits, tuple(ops), k,
                        label=circuit.label if label is None else label)
