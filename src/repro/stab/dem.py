"""Detector error model (DEM) extraction.

A DEM is the list of independent error mechanisms of a noisy stabilizer
circuit, each with a probability, the set of detectors it flips, and the set
of logical observables it flips.  It is the interface between circuits and
decoders, exactly as in Stim.

Extraction strategy (Stim's, Gidney 2021, arXiv:2103.02202): one *backward*
pass over the circuit keeps, per qubit, two bit-packed ``uint64`` sensitivity
rows ``sx[q]``/``sz[q]`` over the detectors and observables — a set bit means
a Pauli X (Z) on ``q`` at this point flips that detector or observable.
Measurements seed the rows, gates transform them by the inverse frame rule
and resets clear them.  At each noise instruction, every Pauli component's
signature is the XOR of its qubits' rows, so the cost is
O(instructions x (detectors + observables) / 64) instead of
O(instructions x components).  Components with identical signatures are
merged with XOR-probability combination, in enumeration order, so the
result is bit-identical to propagating every component forward.
"""


from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import combine_flip_probabilities
from .circuit import Circuit
from .frame import compile_instruction
from .gates import GateKind, ONE_QUBIT_PAULIS, TWO_QUBIT_PAULIS

__all__ = ["DemError", "DetectorErrorModel", "circuit_to_dem"]


@dataclass(frozen=True)
class DemError:
    """One independent error mechanism."""

    probability: float
    detectors: tuple[int, ...]
    observables: tuple[int, ...]


@dataclass
class DetectorErrorModel:
    """Full error model of one circuit."""

    errors: list[DemError]
    num_detectors: int
    num_observables: int
    detector_coords: list[tuple[float, ...]]
    detector_basis: list[str | None]

    def filtered(self, basis: str) -> "DetectorErrorModel":
        """Restrict to detectors tagged with ``basis`` (indices are remapped).

        Errors whose projected signature is empty *and* which flip no
        observable are dropped; others keep their observable flips.
        """
        keep = [i for i, b in enumerate(self.detector_basis) if b == basis]
        remap = {old: new for new, old in enumerate(keep)}
        merged: dict[tuple[tuple[int, ...], tuple[int, ...]], list[float]] = {}
        for err in self.errors:
            dets = tuple(sorted(remap[d] for d in err.detectors if d in remap))
            if not dets and not err.observables:
                continue
            merged.setdefault((dets, err.observables), []).append(err.probability)
        errors = [
            DemError(combine_flip_probabilities(ps), dets, obs)
            for (dets, obs), ps in sorted(merged.items())
        ]
        return DetectorErrorModel(
            errors=errors,
            num_detectors=len(keep),
            num_observables=self.num_observables,
            detector_coords=[self.detector_coords[i] for i in keep],
            detector_basis=[basis] * len(keep),
        )

    @property
    def total_error_probability(self) -> float:
        return float(sum(e.probability for e in self.errors))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DetectorErrorModel({len(self.errors)} errors, {self.num_detectors} detectors, "
            f"{self.num_observables} observables)"
        )


def circuit_to_dem(
    circuit: Circuit,
    *,
    min_probability: float = 0.0,
) -> DetectorErrorModel:
    """Extract the detector error model of ``circuit``.

    Args:
        circuit: the noisy circuit.
        min_probability: mechanisms with probability at or below this value
            are dropped after merging.
    """
    ndet, nobs = circuit.num_detectors, circuit.num_observables
    words = max(1, -(-(ndet + nobs) // 64))
    records = _record_rows(circuit, words)
    sx = np.zeros((circuit.num_qubits, words), dtype=np.uint64)
    sz = np.zeros_like(sx)
    noise, x_snaps, z_snaps = [], [], []
    cursor = circuit.num_measurements
    for inst in reversed(circuit.instructions):
        if inst.gate.kind in (GateKind.NOISE_1, GateKind.NOISE_2):
            # the rows right after the channel: its targets' sensitivities
            t = np.asarray(inst.targets, dtype=np.intp)
            noise.append(inst)
            x_snaps.append(sx[t])
            z_snaps.append(sz[t])
            continue
        for op in reversed(compile_instruction(inst)):
            a, b = op.a, op.b
            if op.kind in ("m", "mx", "mr"):
                cursor -= a.size
                if op.kind == "mr":
                    sx[a] = 0
                    sz[a] = 0
                # ufunc.at: a qubit measured twice in one layer gets both rows
                rows = records[cursor : cursor + a.size]
                np.bitwise_xor.at(sz if op.kind == "mx" else sx, a, rows)
            elif op.kind == "r":
                sx[a] = 0
                sz[a] = 0
            elif op.kind == "h":
                sx[a], sz[a] = sz[a], sx[a]
            elif op.kind == "s":
                sx[a] ^= sz[a]
            elif op.kind == "sqrt_x":
                sz[a] ^= sx[a]
            elif op.kind == "cx":
                sx[a] ^= sx[b]
                sz[b] ^= sz[a]
            elif op.kind == "cz":
                sx[a] ^= sz[b]
                sx[b] ^= sz[a]
            elif op.kind == "swap":
                sx[a], sx[b] = sx[b], sx[a]
                sz[a], sz[b] = sz[b], sz[a]
            elif op.kind != "skip":  # pragma: no cover
                raise AssertionError(f"unhandled kind {op.kind}")

    sigs, probs, ranks = _component_signatures(noise[::-1], x_snaps[::-1], z_snaps[::-1], words)
    sigs, probs = _merge(sigs, probs, ranks)
    bits = np.unpackbits(sigs.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    dets = _bit_rows_to_tuples(bits[:, :ndet])
    obs = _bit_rows_to_tuples(bits[:, ndet : ndet + nobs])
    errors = sorted(
        (DemError(p, d, o) for p, d, o in zip(probs.tolist(), dets, obs) if p > min_probability),
        key=lambda e: (e.detectors, e.observables),
    )
    return DetectorErrorModel(
        errors=errors,
        num_detectors=ndet,
        num_observables=nobs,
        detector_coords=[info.coords for info in circuit.detectors],
        detector_basis=[info.basis for info in circuit.detectors],
    )


#: Pauli -> row offset in the ``(I, X, Y, Z)`` signature table of one target
_PAULI_ROW = {(False, False): 0, (True, False): 1, (True, True): 2, (False, True): 3}


def _cases(inst) -> tuple[tuple[int, int, float], ...]:
    """``(row of first qubit, row of second qubit, probability)`` per component.

    One-qubit channels use the identity row for the (absent) second qubit;
    zero-probability ``PAULI_CHANNEL_1`` cases are skipped.
    """
    args = inst.args
    if inst.gate.kind == GateKind.NOISE_2:
        p15 = args[0] / 15.0
        return tuple((_PAULI_ROW[p1], _PAULI_ROW[p2], p15) for p1, p2 in TWO_QUBIT_PAULIS)
    if inst.name == "DEPOLARIZE1":
        paulis = [(k, args[0] / 3.0) for k in "XYZ"]
    elif inst.name == "PAULI_CHANNEL_1":
        paulis = [(k, p) for k, p in zip("XYZ", args) if p > 0]
    else:  # X_ERROR / Y_ERROR / Z_ERROR
        paulis = [(inst.name[0], args[0])]
    return tuple((_PAULI_ROW[ONE_QUBIT_PAULIS[k]], 0, p) for k, p in paulis)


def _component_signatures(noise, x_snaps, z_snaps, words):
    """Signature, probability and enumeration rank of every noise component.

    ``noise`` lists the channels in circuit order, each with its targets'
    sensitivity rows.  Components are enumerated per target (or pair), then
    per case; the rank records that order for the merge.
    """
    if not noise:
        return np.zeros((0, words), np.uint64), np.zeros(0), np.zeros(0, np.int64)
    x = np.concatenate(x_snaps)
    z = np.concatenate(z_snaps)
    # row 4*i + pauli: signature of that Pauli on the i-th noise target
    table = np.stack((np.zeros_like(x), x, x ^ z, z), axis=1).reshape(-1, words)
    # channels sharing a case list (and arity) are expanded together
    families: dict[tuple, list[int]] = {}
    pos = 0
    for inst in noise:
        stride = inst.gate.targets_per_op
        families.setdefault((_cases(inst), stride), []).extend(
            range(pos, pos + len(inst.targets), stride)
        )
        pos += len(inst.targets)
    sigs, probs, ranks = [], [], []
    for (cases, stride), first in families.items():
        first = np.asarray(first, dtype=np.int64)[:, None]
        row_a, row_b, p = (np.asarray(col) for col in zip(*cases))
        second = first + stride - 1  # the same target for one-qubit channels
        sigs.append(table[(4 * first + row_a).ravel()] ^ table[(4 * second + row_b).ravel()])
        probs.append(np.broadcast_to(p, (first.size, p.size)).ravel())
        ranks.append((first * 16 + np.arange(p.size)).ravel())  # <= 15 cases per unit
    return np.concatenate(sigs), np.concatenate(probs), np.concatenate(ranks)


def _record_rows(circuit: Circuit, words: int) -> np.ndarray:
    """``(num_measurements, words)`` packed detector/observable row of each record."""
    pairs = [(r, j) for j, info in enumerate(circuit.detectors) for r in info.rec]
    pairs += [
        (r, circuit.num_detectors + inst.obs_index)
        for inst in circuit.instructions
        if inst.name == "OBSERVABLE_INCLUDE"
        for r in inst.rec
    ]
    rows = np.zeros((circuit.num_measurements, words), dtype=np.uint64)
    if pairs:
        rec, bit = np.array(pairs, dtype=np.int64).T
        np.bitwise_xor.at(rows, (rec, bit >> 6), np.uint64(1) << (bit & 63).astype(np.uint64))
    return rows


def _merge(sigs: np.ndarray, probs: np.ndarray, ranks: np.ndarray):
    """Merge identical visible signatures into one probability each.

    Invisible components (all-zero signature) are dropped.  The lexsort
    orders each group by enumeration rank, so the grouped
    ``multiply.reduceat`` is the same sequential product as
    :func:`combine_flip_probabilities` and the result is bit-identical.
    """
    visible = sigs.any(axis=1)
    sigs, probs, ranks = sigs[visible], probs[visible], ranks[visible]
    if sigs.shape[0] == 0:
        return sigs, probs
    order = np.lexsort((ranks, *sigs.T))
    sigs, probs = sigs[order], probs[order]
    starts = np.flatnonzero(np.r_[True, (sigs[1:] != sigs[:-1]).any(axis=1)])
    acc = np.multiply.reduceat(1.0 - 2.0 * probs, starts)
    return sigs[starts], (1.0 - acc) / 2.0


def _bit_rows_to_tuples(bits: np.ndarray) -> list[tuple[int, ...]]:
    """Set-bit column indices of each row, as ascending tuples."""
    rows, cols = np.nonzero(bits)
    bounds = np.searchsorted(rows, np.arange(bits.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [tuple(cols[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]
