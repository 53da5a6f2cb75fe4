"""Detector-error-model extraction tests.

The backward extractor is held to exact equality with the forward
propagation oracle in ``dem_oracle.py`` (same errors, same order, the same
probabilities bit for bit) on random Clifford circuits and on the
lattice-surgery circuits of every policy.
"""

import numpy as np
import pytest

from dem_oracle import circuit_to_dem as oracle_dem
from repro._util import combine_flip_probabilities
from repro.core.policies import POLICIES, make_policy
from repro.experiments import ler as ler_module
from repro.experiments.ler import SurgeryLerConfig
from repro.noise import GOOGLE
from repro.stab import Circuit, DemSampler, FrameSimulator, circuit_to_dem


def _rep_code_circuit(p=0.01, rounds=2, n=3):
    c = Circuit()
    data = list(range(n))
    anc = list(range(n, 2 * n - 1))
    c.append("R", data + anc)
    prev = []
    for r in range(rounds):
        c.append("X_ERROR", data, [p])
        c.append("CX", [q for i in range(n - 1) for q in (data[i], anc[i])])
        c.append("CX", [q for i in range(n - 1) for q in (data[i + 1], anc[i])])
        m = c.append("MR", anc)
        for k in range(n - 1):
            c.detector([m[k]] if r == 0 else [prev[k], m[k]], basis="Z")
        prev = m
    finals = c.append("M", data)
    for k in range(n - 1):
        c.detector([prev[k], finals[k], finals[k + 1]], basis="Z")
    c.observable_include(0, [finals[0]])
    return c


def test_repetition_code_dem_structure():
    dem = circuit_to_dem(_rep_code_circuit())
    # 3 data qubits x 2 rounds of X_ERROR -> 6 distinct mechanisms
    assert len(dem.errors) == 6
    sigs = {e.detectors for e in dem.errors}
    assert (0,) in sigs  # boundary-adjacent error, round 0
    assert (0, 1) in sigs  # middle qubit error
    obs_flips = [e for e in dem.errors if e.observables == (0,)]
    assert len(obs_flips) == 2  # qubit 0 in each round


def test_dem_probabilities_match_channel():
    dem = circuit_to_dem(_rep_code_circuit(p=0.02))
    for err in dem.errors:
        assert err.probability == pytest.approx(0.02, rel=1e-9)


def test_identical_signatures_merge():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [0.1])
    c.append("X_ERROR", [0], [0.2])
    m = c.append("M", [0])
    c.detector(m)
    dem = circuit_to_dem(c)
    assert len(dem.errors) == 1
    assert dem.errors[0].probability == pytest.approx(
        combine_flip_probabilities([0.1, 0.2])
    )


def test_invisible_errors_dropped():
    c = Circuit()
    c.append("R", [0])
    c.append("Z_ERROR", [0], [0.5])  # never affects a Z measurement
    m = c.append("M", [0])
    c.detector(m)
    dem = circuit_to_dem(c)
    assert len(dem.errors) == 0


def _random_clifford_circuit(seed, n=6, layers=40):
    """Seeded random noisy Clifford circuit over every gate kind and channel.

    Detectors and observables are random record parities: the DEM extractor
    does not require them to be deterministic, so this exercises the full
    propagation rules rather than only the surface-code ones.
    """
    rng = np.random.default_rng(seed)
    c = Circuit()
    c.append("R", list(range(n)))
    one_qubit = ["H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG", "X", "R", "RX"]
    noise_1 = [
        ("X_ERROR", [0.01]),
        ("X_ERROR", [0.0]),
        ("Y_ERROR", [0.02]),
        ("Z_ERROR", [0.03]),
        ("DEPOLARIZE1", [0.015]),
        ("PAULI_CHANNEL_1", [0.01, 0.0, 0.02]),
        ("PAULI_CHANNEL_1", [0.0, 0.005, 0.0]),
    ]
    records = []
    for _ in range(layers):
        qubits = rng.permutation(n).tolist()
        roll = rng.integers(6)
        if roll == 0:
            c.append(one_qubit[rng.integers(len(one_qubit))], qubits[: rng.integers(1, n)])
        elif roll == 1:
            gate = ["CX", "CZ", "SWAP"][rng.integers(3)]
            c.append(gate, qubits[:4])
        elif roll == 2:
            name, args = noise_1[rng.integers(len(noise_1))]
            c.append(name, qubits[: rng.integers(1, n)], args)
        elif roll == 3:
            c.append("DEPOLARIZE2", qubits[:4], [0.02])
        elif roll == 4:
            gate = ["M", "MX", "MR"][rng.integers(3)]
            records += c.append(gate, qubits[: rng.integers(1, 3)])
        else:
            # sequential CX pairs sharing qubits: split into ordered groups
            a, b, d = qubits[:3]
            c.append("CX", [a, b, b, d, d, a])
    records += c.append("M", [0, 0])  # one qubit read twice in one layer
    records += c.append("MX", list(range(1, n)))
    for _ in range(12):
        picks = rng.choice(records, size=rng.integers(1, 4), replace=False)
        c.detector(sorted(int(r) for r in picks), basis="ZX"[rng.integers(2)])
    for k in range(2):
        c.observable_include(k, [int(r) for r in rng.choice(records, size=3, replace=False)])
    return c


@pytest.mark.parametrize("seed", range(12))
def test_backward_extraction_matches_forward_oracle_on_random_circuits(seed):
    circuit = _random_clifford_circuit(seed)
    dem = circuit_to_dem(circuit)
    # exact: same order, same tuples, probabilities equal with ==
    assert dem.errors == oracle_dem(circuit).errors
    assert dem.errors  # the circuits do have visible errors


def test_random_circuits_cover_every_gate_kind_and_channel():
    names = set()
    for seed in range(12):
        names |= {inst.name for inst in _random_clifford_circuit(seed).instructions}
    assert names >= {
        "H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG", "CX", "CZ", "SWAP", "R", "RX",
        "M", "MX", "MR", "X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1",
        "PAULI_CHANNEL_1", "DEPOLARIZE2",
    }


def _surgery_circuit(distance, policy, **overrides):
    cfg = SurgeryLerConfig(
        distance=distance,
        hardware=GOOGLE,
        policy_name=policy,
        tau_ns=700.0,
        t_pp_ns=1150.0 if policy in ("extra_rounds", "hybrid") else None,
        **overrides,
    )
    return ler_module._synthesize(cfg, make_policy(policy))[1].circuit


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_backward_extraction_matches_forward_oracle_on_surgery_d3(policy):
    circuit = _surgery_circuit(3, policy)
    assert circuit_to_dem(circuit).errors == oracle_dem(circuit).errors


def test_backward_extraction_matches_forward_oracle_on_surgery_d5():
    circuit = _surgery_circuit(5, "active", ls_basis="X")
    assert circuit_to_dem(circuit).errors == oracle_dem(circuit).errors


def test_noise_without_detectors_or_observables_gives_empty_dem():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("DEPOLARIZE2", [0, 1], [0.1])
    c.append("M", [0, 1])
    dem = circuit_to_dem(c)
    assert dem.errors == oracle_dem(c).errors == []


def test_min_probability_filter():
    c = Circuit()
    c.append("R", [0])
    c.append("X_ERROR", [0], [1e-7])
    m = c.append("M", [0])
    c.detector(m)
    assert len(circuit_to_dem(c, min_probability=1e-6).errors) == 0
    assert len(circuit_to_dem(c).errors) == 1


def test_filtered_restricts_and_remaps():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("X_ERROR", [0], [0.1])
    c.append("X_ERROR", [1], [0.1])
    m = c.append("M", [0, 1])
    c.detector([m[0]], basis="Z")
    c.detector([m[1]], basis="X")  # artificial tag for the test
    dem = circuit_to_dem(c)
    z_only = dem.filtered("Z")
    assert z_only.num_detectors == 1
    assert all(e.detectors in ((), (0,)) for e in z_only.errors)


def test_dem_sampling_matches_frame_sampling():
    circuit = _rep_code_circuit(p=0.03, rounds=2)
    det_f, obs_f = FrameSimulator(circuit).sample(60000, rng=5)
    dem = circuit_to_dem(circuit)
    det_d, obs_d = DemSampler(dem).sample(60000, rng=6)
    assert np.allclose(det_f.mean(axis=0), det_d.mean(axis=0), atol=0.005)
    assert np.allclose(obs_f.mean(axis=0), obs_d.mean(axis=0), atol=0.005)


def test_depolarize2_components_visible():
    c = Circuit()
    c.append("R", [0, 1])
    c.append("DEPOLARIZE2", [0, 1], [0.15])
    m = c.append("M", [0, 1])
    c.detector([m[0]])
    c.detector([m[1]])
    dem = circuit_to_dem(c)
    sigs = {e.detectors for e in dem.errors}
    assert sigs == {(0,), (1,), (0, 1)}
    both = next(e for e in dem.errors if e.detectors == (0, 1))
    # 4 of 15 two-qubit Paulis flip both Z-measurements (XX, XY, YX, YY)
    assert both.probability == pytest.approx(
        combine_flip_probabilities([0.01] * 4), rel=1e-6
    )
