import math
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

from entswap.errors import DomainError, InputError, TruncationError
from entswap.fock_sim import (
    BELL_LABELS,
    bell_fidelity,
    bell_state,
    dfg_spurious_amplitude,
    dump_state,
    herald_amplitude,
    product_state,
    sfg_evolve,
    sfg_projection_vectors,
    swap_condition_on_sfg,
    tri_mode_state,
)


def chain_evolution_amplitude(occupations, gt, target):
    """Independent oracle: evolve only the conserved-quantity chain.

    Builds the coupled chain (n_a - j, n_b - j, n_c + j) by hand, exponentiates
    the tridiagonal coupling matrix, and reads off one amplitude.
    """
    na, nb, nc = occupations
    j_values = list(range(-nc, min(na, nb) + 1))
    states = [(na - j, nb - j, nc + j) for j in j_values]
    dim = len(states)
    matrix = np.zeros((dim, dim))
    for idx in range(dim - 1):
        a, b, c = states[idx]
        # coupling between chain neighbors: lowering a and b, raising c
        matrix[idx + 1, idx] = matrix[idx, idx + 1] = math.sqrt(a * b * (c + 1))
    w, v = np.linalg.eigh(matrix)
    start = np.zeros(dim)
    start[states.index(occupations)] = 1.0
    final = v @ (np.exp(-1j * gt * w) * (v.T @ start))
    return complex(final[states.index(target)])


def dense_generator(cutoff):
    """Independent reference: a b c+ + a+ b+ c as a matrix on the whole cube,
    rows and columns in the order of the flattened [na, nb, nc] array."""
    side = cutoff + 1
    gen = np.zeros((side,) * 6)
    for na, nb, nc in product(range(1, side), range(1, side), range(cutoff)):
        coupling = math.sqrt(na * nb * (nc + 1))
        gen[na, nb, nc, na - 1, nb - 1, nc + 1] = coupling
        gen[na - 1, nb - 1, nc + 1, na, nb, nc] = coupling
    return gen.reshape(side**3, side**3)


def random_closed_state(rng, cutoff):
    """Random normalized superposition of the kets whose chains fit the cutoff."""
    na, nb, nc = np.indices((cutoff + 1,) * 3)
    closed = np.maximum(na + nc, nb + nc) <= cutoff
    count = int(closed.sum())
    values = rng.normal(size=count) + 1j * rng.normal(size=count)
    state = np.zeros(closed.shape, dtype=complex)
    state[closed] = values / np.linalg.norm(values)
    return state


class TestStateVector:
    """Time-bin states are plain arrays of shape (2,)*n, one axis per photon."""

    def test_basis_labels_must_be_unique(self):
        # dump_state spells each ket from its bins, so the labels are the 16
        # distinct bin strings in index order.
        state = product_state(bell_state("phi+"), bell_state("psi-"))
        labels = [line.split()[0] for line in dump_state(state).splitlines()]
        assert labels == ["".join(bins) for bins in product("el", repeat=4)]
        assert dump_state(state).splitlines()[labels.index("eell")] == (
            f"eell {state[0, 0, 1, 1].real:.17e} {state[0, 0, 1, 1].imag:.17e}"
        )

    def test_length_mismatch_rejected(self):
        for pair in (np.ones(4), np.ones((2, 2, 2)), np.ones((3, 3))):
            with pytest.raises(InputError, match="shape"):
                product_state(pair, bell_state("phi+"))
            with pytest.raises(InputError, match="shape"):
                bell_fidelity(pair, "phi+")
        with pytest.raises(InputError, match="shape"):
            dump_state(np.ones((2, 3)))

    def test_amplitudes_are_frozen(self):
        # bell_state hands out a writable copy; the stored vectors stay as they are.
        state = bell_state("phi+")
        state[0, 0] = 0.0
        assert bell_state("phi+")[0, 0] == 2.0**-0.5
        assert bell_fidelity(bell_state("phi+"), "phi+") == pytest.approx(1.0, abs=1e-15)

    def test_dump_is_deterministic(self):
        state = bell_state("psi-")
        assert dump_state(state) == dump_state(state)
        lines = dump_state(state).splitlines()
        assert len(lines) == 4
        label, re_part, im_part = lines[0].split()
        assert label == "ee"
        float(re_part), float(im_part)


class TestSfgEvolve:
    def test_single_pair_herald_amplitude(self):
        evolved = sfg_evolve(tri_mode_state(1, 1, 0, 2), 0.01, 2)
        assert evolved[0, 0, 1] == pytest.approx(-1j * math.sin(0.01), abs=1e-14)
        assert evolved[1, 1, 0] == pytest.approx(math.cos(0.01), abs=1e-14)

    def test_herald_probability_is_p_sfg(self):
        gt = 0.01
        evolved = sfg_evolve(tri_mode_state(1, 1, 0, 2), gt, 2)
        assert abs(evolved[0, 0, 1]) ** 2 == pytest.approx(gt * gt, rel=1e-3)

    def test_empty_b_mode_is_stationary(self):
        for n_a in (1, 3):
            state = tri_mode_state(n_a, 0, 0, 4)
            evolved = sfg_evolve(state, 0.3, 4)
            assert evolved[n_a, 0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_two_pair_amplitude(self):
        amp = herald_amplitude(2, 2, 0.01)
        assert amp == pytest.approx(-0.02j, rel=2e-3)
        oracle = chain_evolution_amplitude((2, 2, 0), 0.01, (1, 1, 1))
        assert amp == pytest.approx(oracle, abs=1e-13)

    def test_matches_chain_oracle_generally(self):
        for occupations, target in (
            ((3, 2, 0), (2, 1, 1)),
            ((2, 2, 1), (0, 0, 3)),
            ((1, 3, 2), (3, 5, 0)),
        ):
            cutoff = 6
            evolved = sfg_evolve(tri_mode_state(*occupations, cutoff), 0.2, cutoff)
            oracle = chain_evolution_amplitude(occupations, 0.2, target)
            assert evolved[target] == pytest.approx(oracle, abs=1e-12)

    def test_unitarity_on_random_superpositions(self):
        rng = np.random.default_rng(4)
        for gt in (1e-3, 0.1, 1.0, 0.0):
            state = random_closed_state(rng, 3)
            before = state.copy()
            evolved = sfg_evolve(state, gt, 3)
            assert np.linalg.norm(evolved) == pytest.approx(1.0, abs=1e-12)
            # The result is a new array; the input is left as it was.
            assert not np.shares_memory(evolved, state)
            np.testing.assert_array_equal(state, before)

    @pytest.mark.parametrize("cutoff", [3, 5])
    def test_matches_dense_exponential(self, cutoff):
        gen = dense_generator(cutoff)
        rng = np.random.default_rng(cutoff)
        for gt in (1e-3, 0.1, 1.0, 3.0):
            state = random_closed_state(rng, cutoff)
            reference = expm(-1j * gt * gen) @ state.ravel()
            evolved = sfg_evolve(state, gt, cutoff)
            np.testing.assert_allclose(evolved.ravel(), reference, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("gt", [0.0, 0.05, 1.3])
    def test_amplitude_is_sfg_evolve_at_any_cutoff(self, gt):
        # The chain |3-j, 2-j, j> is the same block at every cutoff that holds it,
        # and herald_amplitude reads its element from the same propagator.
        for cutoff in (4, 7, 12):
            evolved = sfg_evolve(tri_mode_state(3, 2, 0, cutoff), gt, cutoff)
            assert herald_amplitude(3, 2, gt) == complex(evolved[2, 1, 1])

    def test_amplitude_needs_no_tri_mode_array(self):
        # A (10**6 + 2)**3 array would not fit in memory; the chain has three kets.
        amp = herald_amplitude(10**6, 2, 1e-4)
        assert amp == pytest.approx(
            chain_evolution_amplitude((10**6, 2, 0), 1e-4, (10**6 - 1, 1, 1)), abs=1e-12
        )

    def test_leading_order_amplitude_law(self):
        for gt in (1e-3, 1e-2, 5e-2):
            for n_a in (1, 2, 3):
                for n_b in (1, 2, 3):
                    amp = herald_amplitude(n_a, n_b, gt)
                    target = -1j * gt * math.sqrt(n_a * n_b)
                    bound = gt * gt * n_a * n_b
                    assert abs(amp - target) <= bound * abs(target)

    @pytest.mark.parametrize("gt", [0.0, 0.1])
    def test_cutoff_leakage_detected(self, gt):
        state = tri_mode_state(2, 2, 2, 3)  # chain reaches occupation 4
        with pytest.raises(TruncationError):
            sfg_evolve(state, gt, 3)

    @pytest.mark.parametrize("gt", [-0.1, math.nan, math.inf])
    def test_negative_time_rejected(self, gt):
        with pytest.raises(DomainError):
            sfg_evolve(tri_mode_state(1, 1, 0, 2), gt, 2)
        with pytest.raises(DomainError):
            herald_amplitude(1, 1, gt)
        with pytest.raises(DomainError):
            dfg_spurious_amplitude(gt)

    def test_wrong_basis_rejected(self):
        state = tri_mode_state(1, 1, 0, 2)
        with pytest.raises(InputError):
            sfg_evolve(state, 0.1, 3)
        with pytest.raises(InputError):
            sfg_evolve(state.ravel(), 0.1, 2)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: tri_mode_state(1.5, 1, 0, 3), r"n_a must be an integer in \[0, 3\], got 1.5"),
            (lambda: tri_mode_state(1, 1, 0, 2.5), "cutoff must be an integer >= 0, got 2.5"),
            (lambda: herald_amplitude(1.5, 1, 0.1), "n_a must be an integer >= 1, got 1.5"),
        ],
        ids=["occupation-1.5", "cutoff-2.5", "herald-1.5"],
    )
    def test_fractional_counts_rejected(self, call, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()


class TestDfgCounterexample:
    def test_no_interaction_no_amplitudes(self):
        dfg, spdc = dfg_spurious_amplitude(0.0)
        assert dfg == 0.0
        assert spdc == 0.0
        assert herald_amplitude(2, 3, 0.0) == 0.0

    def test_spontaneous_amplitude_scale(self):
        _, spdc = dfg_spurious_amplitude(0.01)
        assert abs(spdc) == pytest.approx(0.01, rel=1e-3)

    def test_exact_two_level_values(self):
        gt = 0.02
        dfg, spdc = dfg_spurious_amplitude(gt)
        assert dfg == pytest.approx(-1j * math.sin(math.sqrt(2) * gt), abs=1e-13)
        assert spdc == pytest.approx(-1j * math.sin(gt), abs=1e-13)

    @pytest.mark.parametrize("gt", [1e-3, 1e-2, 5e-2])
    def test_spurious_process_is_comparable(self, gt):
        dfg, spdc = dfg_spurious_amplitude(gt)
        assert 0.5 <= abs(spdc) / abs(dfg) <= 2.0


class TestBellStates:
    def test_orthonormality(self):
        for i, a in enumerate(BELL_LABELS):
            for j, b in enumerate(BELL_LABELS):
                overlap = bell_fidelity(bell_state(a), b)
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    def test_fidelity_of_even_mixture(self):
        mixed = (bell_state("phi+") + bell_state("phi-")) / math.sqrt(2)
        assert bell_fidelity(mixed, "phi+") == pytest.approx(0.5, abs=1e-14)

    def test_unknown_label(self):
        with pytest.raises(InputError):
            bell_state("sigma+")

    def test_dimension_mismatch(self):
        state = product_state(bell_state("phi+"), bell_state("phi+"))
        with pytest.raises(InputError):
            bell_fidelity(state, "phi+")


class TestSwapMeasurement:
    def test_single_element_resolves_two_outcomes(self):
        state = product_state(bell_state("phi+"), bell_state("phi+"))
        outcomes = swap_condition_on_sfg(state)[:2]
        assert [o.projector for o in outcomes] == ["S1+", "S1-"]
        assert [o.label for o in outcomes] == ["phi+", "phi-"]
        for outcome in outcomes:
            assert outcome.probability == pytest.approx(0.25, abs=1e-12)
            assert np.linalg.norm(outcome.conditioned_state) == pytest.approx(1.0, abs=1e-12)
            assert bell_fidelity(outcome.conditioned_state, outcome.label) == pytest.approx(
                1.0, abs=1e-12
            )
        # One element only heralds half of the input weight.
        assert sum(o.probability for o in outcomes) == pytest.approx(0.5, abs=1e-12)

    def test_two_elements_resolve_all_four(self):
        state = product_state(bell_state("phi+"), bell_state("phi+"))
        outcomes = swap_condition_on_sfg(state)
        assert [o.label for o in outcomes] == ["phi+", "phi-", "psi+", "psi-"]
        for outcome in outcomes:
            assert outcome.probability == pytest.approx(0.25, abs=1e-12)
            assert bell_fidelity(outcome.conditioned_state, outcome.label) == pytest.approx(
                1.0, abs=1e-12
            )
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_other_bell_inputs_permute_the_labels(self):
        state = product_state(bell_state("psi+"), bell_state("phi+"))
        outcomes = swap_condition_on_sfg(state)
        mapping = {o.projector: o.label for o in outcomes}
        assert mapping == {"S1+": "psi+", "S1-": "psi-", "S2+": "phi+", "S2-": "phi-"}
        for outcome in outcomes:
            assert bell_fidelity(outcome.conditioned_state, outcome.label) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_every_bell_product_input(self):
        for first in BELL_LABELS:
            for second in BELL_LABELS:
                state = product_state(bell_state(first), bell_state(second))
                outcomes = swap_condition_on_sfg(state)
                assert sorted(o.label for o in outcomes) == sorted(BELL_LABELS)
                for outcome in outcomes:
                    assert bell_fidelity(
                        outcome.conditioned_state, outcome.label
                    ) == pytest.approx(1.0, abs=1e-12)

    def test_projector_completeness(self):
        vectors = sfg_projection_vectors()
        total = np.zeros((4, 4), dtype=complex)
        names = list(vectors)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                overlap = np.vdot(vectors[a], vectors[b])
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-14
            total += np.outer(vectors[a], vectors[a].conj())
        assert np.max(np.abs(total - np.eye(4))) < 1e-14

    def test_zero_probability_outcomes_have_no_label(self):
        early, late = np.zeros((2, 2)), np.zeros((2, 2))
        early[0, 0] = late[1, 1] = 1.0
        outcomes = swap_condition_on_sfg(product_state(early, late))
        # Photons 2 and 3 in bins e and l feed only the second element.
        assert [o.probability for o in outcomes] == pytest.approx([0.0, 0.0, 0.5, 0.5])
        for outcome in outcomes[:2]:
            assert outcome.label is None and outcome.conditioned_state is None
        for outcome in outcomes[2:]:
            assert outcome.conditioned_state.shape == (2, 2)

    def test_tied_outcomes_have_no_label(self):
        # Each S2 outcome leaves |e_1 l_4>, as close to psi+ as to psi-: no Bell
        # state is the best match, so none is named, and the state is kept.
        early, late = np.zeros((2, 2)), np.zeros((2, 2))
        early[0, 0] = late[1, 1] = 1.0
        for outcome in swap_condition_on_sfg(product_state(early, late))[2:]:
            assert outcome.label is None
            fidelities = [bell_fidelity(outcome.conditioned_state, b) for b in BELL_LABELS]
            assert fidelities == pytest.approx([0.0, 0.0, 0.5, 0.5])
            assert abs(outcome.conditioned_state[0, 1]) == pytest.approx(1.0)

    def test_non_product_input_rejected(self):
        # A four-photon GHZ-style state does not factor over the (1,2)|(3,4) cut.
        state = np.zeros((2, 2, 2, 2), dtype=complex)
        state[0, 0, 0, 0] = state[1, 1, 1, 1] = 1 / math.sqrt(2)
        with pytest.raises(InputError):
            swap_condition_on_sfg(state)

    def test_malformed_inputs_rejected(self):
        state = bell_state("phi+")
        with pytest.raises(InputError):
            swap_condition_on_sfg(state)
        four = product_state(bell_state("phi+"), bell_state("phi+"))
        four[0, 0, 0, 0] = math.nan
        with pytest.raises(InputError, match="finite"):
            swap_condition_on_sfg(four)


def _with_amplitude(state, value):
    state = np.array(state, dtype=complex)
    state.flat[0] = value
    return state


class TestNonFiniteAmplitudes:
    # errors.py promises no NaN out of the package, so a NaN or infinite
    # amplitude is refused where each state space is read.
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: bell_fidelity(_with_amplitude(bell_state("phi+"), v), "phi+"),
            lambda v: product_state(bell_state("phi+"), _with_amplitude(bell_state("psi-"), v)),
            lambda v: dump_state(_with_amplitude(np.zeros((2, 2, 2)), v)),
            lambda v: sfg_evolve(_with_amplitude(tri_mode_state(1, 1, 0, 2), v), 0.1, 2),
        ],
        ids=["bell_fidelity", "product_state", "dump_state", "sfg_evolve"],
    )
    def test_rejected(self, call, value):
        with pytest.raises(InputError, match="finite amplitudes"):
            call(value)


class TestNonNumericAmplitudes:
    # A state of strings or None reaches no numpy arithmetic: it is refused
    # with the package's InputError, not a TypeError or ValueError from numpy.
    @pytest.mark.parametrize(
        "make",
        [lambda shape: np.full(shape, "x"), lambda shape: np.full(shape, None)],
        ids=["str", "none"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda make: bell_fidelity(make((2, 2)), "phi+"),
            lambda make: product_state(bell_state("phi+"), make((2, 2))),
            lambda make: dump_state(make((2, 2, 2))),
            lambda make: sfg_evolve(make((3, 3, 3)), 0.1, 2),
        ],
        ids=["bell_fidelity", "product_state", "dump_state", "sfg_evolve"],
    )
    def test_rejected(self, call, make):
        with pytest.raises(InputError, match="numeric amplitudes"):
            call(make)

    def test_nested_list_with_none_rejected(self):
        with pytest.raises(InputError, match="numeric amplitudes"):
            bell_fidelity([[None, 1], [0, 0]], "phi+")

    def test_real_and_integer_states_still_read(self):
        assert bell_fidelity([[1, 0], [0, 0]], "phi+") == pytest.approx(0.5)
        evolved = sfg_evolve(tri_mode_state(1, 1, 0, 2).real, 0.1, 2)
        np.testing.assert_array_equal(evolved, sfg_evolve(tri_mode_state(1, 1, 0, 2), 0.1, 2))


class TestRaggedStates:
    # A nested list whose rows differ in length is no array: numpy's own
    # ValueError ("inhomogeneous shape") is refused as the package's InputError.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: bell_fidelity([[1], [1, 2]], "phi+"),
            lambda: product_state(bell_state("phi+"), [[1], [1, 2]]),
            lambda: dump_state([[1], [1, 2]]),
            lambda: sfg_evolve([[[1]], [[1, 2]], [[0]]], 0.1, 2),
        ],
        ids=["bell_fidelity", "product_state", "dump_state", "sfg_evolve"],
    )
    def test_rejected(self, call):
        with pytest.raises(InputError, match="rectangular array"):
            call()
