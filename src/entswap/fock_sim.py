"""Exact small-Hilbert-space checks of the up-conversion heralding story.

Two state spaces live here:

* a truncated tri-mode Fock space (modes a, b and the sum-frequency mode c)
  evolved exactly under the generator a b c+ + a+ b+ c, used to verify the
  leading-order herald amplitude and the down-conversion counterexample;
* a four-photon time-bin space (photons 1..4, bins e/l) in which the
  heralding measurement on photons 2 and 3 is applied as a projection,
  used to verify the swapped Bell states for one and two nonlinear elements.

A tri-mode state is a complex array of shape ``(cutoff+1,)*3`` indexed
``state[n_a, n_b, n_c]``; it carries no labels.  Time-bin states carry basis
labels, single whitespace-free tokens, so they can be dumped as ``label re im``
lines, byte-comparable across runs: four-photon kets are strings like
``"eell"`` (photons 1..4, e before l), and the up-converted photon modes are
``e_S1, l_S1, e_S2, l_S2`` for the first and second nonlinear element.

``run_fock_checks`` is the invariant suite over both spaces (the
``fock-check`` subcommand), one pass/fail row per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from numbers import Integral

import numpy as np

from .errors import DomainError, EntswapError, InputError, TruncationError

_SQRT_HALF = 2.0**-0.5

TWO_PHOTON_BASIS: tuple[str, ...] = ("ee", "el", "le", "ll")
TIME_BIN_BASIS: tuple[str, ...] = tuple(
    "".join(bins) for bins in product("el", repeat=4)
)
SIGMA_MODES: tuple[str, ...] = ("e_S1", "l_S1", "e_S2", "l_S2")
BELL_LABELS: tuple[str, ...] = ("phi+", "phi-", "psi+", "psi-")

# The bins (e = 0, l = 1) of photons 2 and 3 that feed each up-converted mode,
# in SIGMA_MODES order: the first element interacts equal bins, the second
# interacts opposite bins.
_BINS_OF_SIGMA = ((0, 0), (1, 1), (0, 1), (1, 0))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over an ordered, uniquely labeled basis."""

    amplitudes: np.ndarray
    basis: tuple[str, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or len(amps) != len(self.basis):
            raise InputError(
                f"amplitude vector of length {amps.shape} does not match basis of "
                f"size {len(self.basis)}"
            )
        if len(set(self.basis)) != len(self.basis):
            raise InputError("basis labels must be unique")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def dump(self) -> str:
        """One line per ket, ``label re im``, in basis order."""
        lines = [
            f"{label} {amp.real:.17e} {amp.imag:.17e}"
            for label, amp in zip(self.basis, self.amplitudes)
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class BellOutcome:
    """One resolvable herald outcome of the swapping measurement.

    ``label`` names the Bell state of photons 1 and 4 the conditioned state
    matches best, ``projector`` the measured superposition of up-converted
    modes, ``probability`` the unconditional outcome probability, and
    ``conditioned_state`` the renormalized two-photon state (None when the
    outcome has zero probability).
    """

    label: str
    projector: str
    probability: float
    conditioned_state: StateVector | None


def tri_mode_state(n_a: int, n_b: int, n_c: int, cutoff: int) -> np.ndarray:
    """Fock basis state |n_a, n_b, n_c> as an array indexed [n_a, n_b, n_c]."""
    occupations = (n_a, n_b, n_c)
    if not all(isinstance(n, Integral) for n in (*occupations, cutoff)):
        raise DomainError(
            f"occupations and cutoff must be whole numbers, got {occupations} and {cutoff}"
        )
    if min(occupations) < 0 or max(occupations) > cutoff:
        raise DomainError(f"occupations {occupations} outside 0..{cutoff}")
    state = np.zeros((cutoff + 1,) * 3, dtype=complex)
    state[occupations] = 1.0
    return state


def _occupied_chains(state: np.ndarray, cutoff: int) -> set[tuple[int, int]]:
    """The conserved (n_a + n_c, n_b + n_c) of every occupied ket."""
    chains = set()
    for na, nb, nc in np.argwhere(state).tolist():
        if max(na + nc, nb + nc) > cutoff:
            raise TruncationError(
                f"ket |{na},{nb},{nc}> couples to occupations above the cutoff "
                f"{cutoff}; increase the cutoff"
            )
        chains.add((na + nc, nb + nc))
    return chains


def sfg_evolve(state: np.ndarray, gt: float, cutoff: int) -> np.ndarray:
    """Evolve a tri-mode state exactly under exp(-i gt (a b c+ + a+ b+ c)).

    ``state`` is indexed [n_a, n_b, n_c] with each mode in 0..cutoff; the
    evolved state is returned as a new array of the same shape.  The generator
    conserves A = n_a + n_c and B = n_b + n_c, so it splits into one real
    symmetric tridiagonal block per chain |A - j, B - j, j>, j = 0..min(A, B),
    with off-diagonal sqrt((A - j)(B - j)(j + 1)).  Each chain the state
    occupies is evolved through the eigendecomposition of its own block; a
    chain reaching past the cutoff raises TruncationError, so the truncated
    evolution is exact whenever it returns.
    """
    if not 0.0 <= gt < math.inf:
        raise DomainError(f"gt must be finite and >= 0, got {gt}")
    state = np.array(state, dtype=complex)  # a copy, evolved in place
    if state.shape != (cutoff + 1,) * 3:
        raise InputError(
            f"state of shape {state.shape} is not a tri-mode state for cutoff {cutoff}"
        )
    chains = _occupied_chains(state, cutoff)
    if gt == 0.0:
        return state
    before = np.linalg.norm(state)
    for a_total, b_total in chains:
        j = np.arange(min(a_total, b_total) + 1)
        chain = (a_total - j, b_total - j, j)
        lower = j[:-1]
        coupling = np.sqrt((a_total - lower) * (b_total - lower) * (lower + 1.0))
        w, v = np.linalg.eigh(np.diag(coupling, 1) + np.diag(coupling, -1))
        state[chain] = v @ (np.exp(-1j * gt * w) * (v.T @ state[chain]))
    after = np.linalg.norm(state)
    if not abs(after - before) <= 1e-9 * max(before, 1.0):
        raise EntswapError("unitarity lost during evolution; generator is inconsistent")
    return state


def herald_amplitude(n_a: int, n_b: int, gt: float, cutoff: int | None = None) -> complex:
    """Amplitude on |n_a-1, n_b-1, 1> after evolving |n_a, n_b, 0>.

    To leading order this is -i sqrt(p_sfg n_a n_b) with p_sfg = (gt)^2.
    """
    if n_a < 1 or n_b < 1:
        raise DomainError("need at least one photon in each input mode")
    if cutoff is None:
        cutoff = max(n_a, n_b) + 1
    evolved = sfg_evolve(tri_mode_state(n_a, n_b, 0, cutoff), gt, cutoff)
    return complex(evolved[n_a - 1, n_b - 1, 1])


def dfg_spurious_amplitude(gt: float) -> tuple[complex, complex]:
    """Compare reverse-direction (difference-frequency) conversion with the
    spontaneous splitting of a bare sum-frequency photon.

    Returns (dfg_amp, spdc_amp): the amplitude for |1,0,1> -> |2,1,0>, the
    intended down-conversion stimulated by the spectator a photon, and the
    amplitude for |0,0,1> -> |1,1,0>, the spontaneous pair that fires the
    herald with no input photon at all.  Both are first order in gt, which is
    why this direction cannot herald faithfully.
    """
    cutoff = 2
    dfg = sfg_evolve(tri_mode_state(1, 0, 1, cutoff), gt, cutoff)[2, 1, 0]
    spdc = sfg_evolve(tri_mode_state(0, 0, 1, cutoff), gt, cutoff)[1, 1, 0]
    return complex(dfg), complex(spdc)


def _bell_vector(label: str) -> np.ndarray:
    amps = np.zeros(4, dtype=complex)
    sign = 1.0 if label.endswith("+") else -1.0
    if label.startswith("phi"):
        amps[0], amps[3] = _SQRT_HALF, sign * _SQRT_HALF
    else:
        amps[1], amps[2] = _SQRT_HALF, sign * _SQRT_HALF
    amps.flags.writeable = False
    return amps


# Built once: swap_condition_on_sfg compares every outcome with all four.
_BELL_VECTORS = {label: _bell_vector(label) for label in BELL_LABELS}


def _bell_amplitudes(label: str) -> np.ndarray:
    if label not in BELL_LABELS:
        raise InputError(f"unknown Bell label {label!r}; expected one of {BELL_LABELS}")
    return _BELL_VECTORS[label]


def bell_state(label: str) -> StateVector:
    """Two-photon time-bin Bell state on the basis ('ee', 'el', 'le', 'll')."""
    return StateVector(_bell_amplitudes(label).copy(), TWO_PHOTON_BASIS)


def product_state(pair_12: StateVector, pair_34: StateVector) -> StateVector:
    """Four-photon state from two independent photon pairs."""
    for pair in (pair_12, pair_34):
        if pair.basis != TWO_PHOTON_BASIS:
            raise InputError("pair states must live on the two-photon time-bin basis")
    amps = np.kron(pair_12.amplitudes, pair_34.amplitudes)
    return StateVector(amps, TIME_BIN_BASIS)


def sfg_projection_vectors() -> dict[str, np.ndarray]:
    """Measurement vectors (e_Sx +/- l_Sx)/sqrt(2) on the mode order SIGMA_MODES."""
    vecs: dict[str, np.ndarray] = {}
    for element, (e_idx, l_idx) in (("S1", (0, 1)), ("S2", (2, 3))):
        for sign_label, sign in (("+", 1.0), ("-", -1.0)):
            vec = np.zeros(4, dtype=complex)
            vec[e_idx] = _SQRT_HALF
            vec[l_idx] = sign * _SQRT_HALF
            vecs[element + sign_label] = vec
    return vecs


def _heralded_amplitudes(state: StateVector) -> np.ndarray:
    """Map four-photon amplitudes to the (sigma mode, photon 1, photon 4) tensor.

    Photons 2 and 3 are consumed by the nonlinear element(s); each sigma mode
    takes the amplitudes whose photon-2 and photon-3 bins feed it.
    """
    bins = state.amplitudes.reshape(2, 2, 2, 2)
    return np.stack([bins[:, b2, b3, :] for b2, b3 in _BINS_OF_SIGMA])


def swap_condition_on_sfg(state: StateVector, elements: str = "one") -> list[BellOutcome]:
    """Herald outcomes of the swapping measurement on photons 2 and 3.

    ``elements`` selects one nonlinear element (equal-bin interaction only,
    two resolvable outcomes) or two (all four Bell states resolvable).  The
    input must be a normalized product of a photon-(1,2) pair state and a
    photon-(3,4) pair state; outcome probabilities sum to the weight of the
    heralded subspace.
    """
    if elements not in ("one", "two"):
        raise InputError(f"elements must be 'one' or 'two', got {elements!r}")
    if state.basis != TIME_BIN_BASIS:
        raise InputError("input must live on the four-photon time-bin basis")
    if abs(state.norm() - 1.0) > 1e-9:
        raise InputError("input state must be normalized")
    pair_matrix = state.amplitudes.reshape(4, 4)
    singular_values = np.linalg.svd(pair_matrix, compute_uv=False)
    if singular_values[1] > 1e-10:
        raise InputError("input is not a product of photon-(1,2) and photon-(3,4) states")

    herald = _heralded_amplitudes(state)
    projectors = sfg_projection_vectors()
    wanted = ("S1+", "S1-") if elements == "one" else ("S1+", "S1-", "S2+", "S2-")
    outcomes = []
    for name in wanted:
        vec = projectors[name]
        component = np.tensordot(vec.conj(), herald, axes=(0, 0)).reshape(4)
        probability = float(np.vdot(component, component).real)
        if probability > 0.0:
            conditioned = StateVector(component / probability**0.5, TWO_PHOTON_BASIS)
            label = max(BELL_LABELS, key=lambda b: bell_fidelity(conditioned, b))
        else:
            conditioned = None
            label = "phi+" if name.endswith("+") else "phi-"
        outcomes.append(
            BellOutcome(
                label=label,
                projector=name,
                probability=probability,
                conditioned_state=conditioned,
            )
        )
    return outcomes


def bell_fidelity(state: StateVector, target: str) -> float:
    """Squared overlap of a two-photon state with a Bell state."""
    if state.basis != TWO_PHOTON_BASIS:
        raise InputError("state must live on the two-photon time-bin basis")
    overlap = np.vdot(_bell_amplitudes(target), state.amplitudes)
    return float(abs(overlap) ** 2)


def run_fock_checks() -> list[dict]:
    """Invariant suite over the exact simulators; one row per check."""
    rows = []

    # Unitarity across a batch of states and interaction strengths.
    drift = 0.0
    for occupations in ((1, 1, 0), (2, 2, 0), (3, 1, 0), (2, 3, 1)):
        for gt in (1e-3, 1e-2, 5e-2, 0.5):
            state = tri_mode_state(*occupations, cutoff=6)
            drift = max(drift, abs(np.linalg.norm(sfg_evolve(state, gt, 6)) - 1.0))
    rows.append(_check_row("unitarity", "norm drift across evolutions", drift, 1e-12))

    # Leading-order herald amplitude -i sqrt(p n_a n_b), third-order remainder.
    for gt in (1e-3, 1e-2, 5e-2):
        worst = 0.0
        for n_a in (1, 2, 3):
            for n_b in (1, 2, 3):
                amp = herald_amplitude(n_a, n_b, gt, cutoff=7)
                target = -1j * gt * math.sqrt(n_a * n_b)
                rel = abs(amp - target) / abs(target)
                worst = max(worst, rel / (gt * gt * n_a * n_b))
        detail = "relative error over remainder bound"
        rows.append(_check_row(f"amplitude-law gt={gt:g}", detail, worst, 1.0))

    # The four herald projectors are orthonormal and complete.
    vectors = sfg_projection_vectors()
    gram_error = 0.0
    total = np.zeros((4, 4), dtype=complex)
    names = list(vectors)
    for i, name_i in enumerate(names):
        for j, name_j in enumerate(names):
            overlap = np.vdot(vectors[name_i], vectors[name_j])
            gram_error = max(gram_error, abs(overlap - (1.0 if i == j else 0.0)))
        total += np.outer(vectors[name_i], vectors[name_i].conj())
    completeness = float(np.max(np.abs(total - np.eye(4))))
    rows.append(_check_row("projector-orthonormality", "Gram matrix error", gram_error, 1e-12))
    rows.append(_check_row("projector-completeness", "sum vs identity", completeness, 1e-12))

    # Complete measurement resolves all four Bell states with unit fidelity.
    state = product_state(bell_state("phi+"), bell_state("phi+"))
    outcomes = swap_condition_on_sfg(state, elements="two")
    fid_error = 0.0
    weight_error = 0.0
    seen = []
    for outcome in outcomes:
        fidelity = bell_fidelity(outcome.conditioned_state, outcome.label)
        fid_error = max(fid_error, abs(1.0 - fidelity))
        weight_error = max(weight_error, abs(outcome.probability - 0.25))
        seen.append(outcome.label)
    rows.append(_check_row("complete-bsm fidelity", "1 - overlap with Bell state", fid_error, 1e-12))
    rows.append(_check_row("complete-bsm weights", "outcome probability vs 1/4", weight_error, 1e-12))
    covered = 0.0 if sorted(seen) == sorted(BELL_LABELS) else 1.0
    rows.append(_check_row("complete-bsm coverage", "all four Bell states resolved", covered, 0.5))

    # Reverse-direction conversion is no cleaner than spontaneous splitting.
    ratio_error = 0.0
    for gt in (1e-3, 1e-2, 5e-2):
        dfg, spdc = dfg_spurious_amplitude(gt)
        ratio = abs(spdc) / abs(dfg)
        if not 0.5 <= ratio <= 2.0:
            ratio_error = max(ratio_error, abs(ratio - 1.0))
    rows.append(
        _check_row("dfg-counterexample", "spurious/intended amplitude comparable", ratio_error, 0.5)
    )
    return rows


def _check_row(name: str, detail: str, value: float, bound: float) -> dict:
    return {"check": name, "detail": detail, "value": value, "bound": bound,
            "pass": bool(value <= bound)}


def dump_reference_states() -> str:
    """Byte-stable dumps of the conditioned states of the complete measurement."""
    state = product_state(bell_state("phi+"), bell_state("phi+"))
    blocks = []
    for outcome in swap_condition_on_sfg(state, elements="two"):
        blocks.append(f"# projector {outcome.projector} -> {outcome.label}")
        blocks.append(outcome.conditioned_state.dump())
    return "\n".join(blocks) + "\n"
