"""Exact small-Hilbert-space checks of the up-conversion heralding story.

Two state spaces live here:

* a truncated tri-mode Fock space (modes a, b and the sum-frequency mode c)
  evolved exactly under the generator a b c+ + a+ b+ c, used to verify the
  leading-order herald amplitude and the down-conversion counterexample;
* a four-photon time-bin space (photons 1..4, bins e/l) in which the
  heralding measurement on photons 2 and 3 is applied as a projection,
  used to verify the swapped Bell states: one nonlinear element resolves two
  of the four outcomes, two elements resolve all four.

Every state is a plain complex array.  A tri-mode state has shape
``(cutoff+1,)*3`` and is indexed ``state[n_a, n_b, n_c]``.  An n-photon
time-bin state has shape ``(2,)*n`` and is indexed by each photon's bin
(e = 0, l = 1); ``dump_state`` names each ket from its bins (``"eell"`` for
photons 1..4) in byte-comparable ``label re im`` lines.  The up-converted
photon modes are ``e_S1, l_S1, e_S2, l_S2`` for the first and second
nonlinear element.

``run_fock_checks`` is the invariant suite over both spaces (the
``fock-check`` subcommand), one pass/fail row per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EntswapError, InputError, TruncationError
from .photon_stats import check_count, check_nonnegative

_SQRT_HALF = 2.0**-0.5
# Largest tri-mode cutoff, and longest chain herald_amplitude builds (its
# smaller occupation): at the limit sfg_evolve peaks at about 46 MB resident,
# 27 MB of it the import, where tri_mode_state(0, 0, 0, 10**5) would ask for
# 14.2 PiB.
CUTOFF_LIMIT = 100

BELL_LABELS: tuple[str, ...] = ("phi+", "phi-", "psi+", "psi-")

# The bins (e = 0, l = 1) of photons 2 and 3 that feed each up-converted mode,
# in the order e_S1, l_S1, e_S2, l_S2: the first element interacts equal bins, the second
# interacts opposite bins.
_BINS_OF_SIGMA = ((0, 0), (1, 1), (0, 1), (1, 0))


@dataclass(frozen=True)
class BellOutcome:
    """One resolvable herald outcome of the swapping measurement.

    ``label`` names the Bell state of photons 1 and 4 with which the
    conditioned state has strictly the greatest fidelity, or is None on a tie
    (``|e l>`` is as close to psi+ as to psi-); ``projector`` is the measured
    superposition of up-converted modes, ``probability`` the unconditional
    outcome probability, and ``conditioned_state`` the renormalized two-photon
    state as a (2, 2) array.  An outcome of zero probability has no label and
    no state (both None).
    """

    label: str | None
    projector: str
    probability: float
    conditioned_state: np.ndarray | None


def tri_mode_state(n_a: int, n_b: int, n_c: int, cutoff: int) -> np.ndarray:
    """Fock basis state |n_a, n_b, n_c> as an array indexed [n_a, n_b, n_c]."""
    cutoff = check_count(cutoff, "cutoff", 0, CUTOFF_LIMIT)
    occupations = tuple(check_count(n, f"n_{m}", 0, cutoff) for n, m in zip((n_a, n_b, n_c), "abc"))
    state = np.zeros((cutoff + 1,) * 3, dtype=complex)
    state[occupations] = 1.0
    return state


def _chain_propagator(a_total: int, b_total: int, gt: float):
    """The chain kets (A - j, B - j, j), j = 0..min(A, B), as an index tuple, the
    eigenvectors ``v`` of its block and the phases exp(-i gt w), so that the
    propagator on the chain is v diag(phases) v^T.

    The generator a b c+ + a+ b+ c conserves A = n_a + n_c and B = n_b + n_c; on
    one chain it is the real symmetric tridiagonal block with off-diagonal
    sqrt((A - j)(B - j)(j + 1)).
    """
    j = np.arange(min(a_total, b_total) + 1)
    lower = j[:-1]
    coupling = np.sqrt((a_total - lower) * (b_total - lower) * (lower + 1.0))
    w, v = np.linalg.eigh(np.diag(coupling, 1) + np.diag(coupling, -1))
    # Python floats: a phase past the float range gives inf here, not numpy's nan.
    top = float(np.abs(w).max())
    if not float(gt) * top < math.inf:
        raise DomainError(f"gt * max|w| must be finite on chain ({a_total}, {b_total}), "
                          f"got gt = {gt!r} with max|w| = {top!r}")
    return (a_total - j, b_total - j, j), v, np.exp(-1j * gt * w)


def _chain_amplitude(start: tuple, target: tuple, gt: float) -> complex:
    """<target| exp(-i gt (a b c+ + a+ b+ c)) |start> for two kets (n_a, n_b, n_c)
    of one chain, from that chain's block alone.

    The start ket is evolved along the whole chain with sfg_evolve's arithmetic,
    so the two agree bit for bit; at gt = 0 the amplitude is exactly 1 or 0, as
    sfg_evolve returns its input then.
    """
    check_nonnegative(gt, "gt")
    if gt == 0.0:
        return complex(start == target)
    n_a, n_b, n_c = start
    _, v, phases = _chain_propagator(n_a + n_c, n_b + n_c, gt)
    return complex((v @ (phases * v[n_c]))[target[2]])


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
    evolved state is returned as a new array of the same shape.  Each chain
    the state occupies is evolved through its own block's propagator
    (``_chain_propagator``); a chain reaching past the cutoff raises
    TruncationError, so the truncated evolution is exact whenever it returns.
    """
    check_nonnegative(gt, "gt")
    cutoff = check_count(cutoff, "cutoff", 0, CUTOFF_LIMIT)
    state = _state_array(state, (cutoff + 1,) * 3, f"tri-mode state for cutoff {cutoff}")
    state = state.astype(complex)  # a copy, evolved in place
    chains = _occupied_chains(state, cutoff)
    if gt == 0.0:
        return state
    before = np.linalg.norm(state)
    for a_total, b_total in chains:
        chain, v, phases = _chain_propagator(a_total, b_total, gt)
        state[chain] = v @ (phases * (v.T @ state[chain]))
    after = np.linalg.norm(state)
    if not abs(after - before) <= 1e-9 * max(before, 1.0):
        raise EntswapError("unitarity lost during evolution; generator is inconsistent")
    return state


def herald_amplitude(n_a: int, n_b: int, gt: float) -> complex:
    """Amplitude on |n_a-1, n_b-1, 1> after evolving |n_a, n_b, 0>.

    To leading order this is -i sqrt(p_sfg n_a n_b) with p_sfg = (gt)^2.  The
    chain holds min(n_a, n_b) + 1 kets, so only the smaller occupation is capped.
    """
    n_a, n_b = check_count(n_a, "n_a", 1), check_count(n_b, "n_b", 1)
    check_count(min(n_a, n_b), "min(n_a, n_b)", 1, CUTOFF_LIMIT)
    return _chain_amplitude((n_a, n_b, 0), (n_a - 1, n_b - 1, 1), gt)


def dfg_spurious_amplitude(gt: float) -> tuple[complex, complex]:
    """Compare reverse-direction (difference-frequency) conversion with the
    spontaneous splitting of a bare sum-frequency photon.

    Returns (dfg_amp, spdc_amp): the amplitude for |1,0,1> -> |2,1,0>, the
    intended down-conversion stimulated by the spectator a photon, and the
    amplitude for |0,0,1> -> |1,1,0>, the spontaneous pair that fires the
    herald with no input photon at all.  Both are first order in gt, which is
    why this direction cannot herald faithfully.
    """
    return _chain_amplitude((1, 0, 1), (2, 1, 0), gt), _chain_amplitude((0, 0, 1), (1, 1, 0), gt)


def _bell_vector(label: str) -> np.ndarray:
    # phi pairs equal bins, psi opposite ones; the sign is on photon 1's late bin.
    amps = np.zeros((2, 2), dtype=complex)
    flip = int(label.startswith("psi"))
    sign = 1.0 if label.endswith("+") else -1.0
    amps[0, flip], amps[1, 1 - flip] = _SQRT_HALF, sign * _SQRT_HALF
    amps.flags.writeable = False
    return amps


# Built once: swap_condition_on_sfg compares every outcome with all four.
_BELL_VECTORS = {label: _bell_vector(label) for label in BELL_LABELS}


def _bell_amplitudes(label: str) -> np.ndarray:
    if label not in BELL_LABELS:
        raise InputError(f"unknown Bell label {label!r}; expected one of {BELL_LABELS}")
    return _BELL_VECTORS[label]


def _as_array(state, what: str) -> np.ndarray:
    """``np.asarray(state)``, refusing a ragged nested sequence with InputError."""
    try:
        return np.asarray(state)
    except ValueError as exc:
        raise InputError(f"{what} must be a rectangular array of amplitudes") from exc


def _state_array(state, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``state`` as an array, which must have ``shape`` and finite numeric
    amplitudes (not strings, None, NaN or inf)."""
    state = _as_array(state, what)
    if state.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {state.shape}")
    if state.dtype.kind not in "biufc":
        raise InputError(f"{what} must have numeric amplitudes, got dtype {state.dtype}")
    if not np.isfinite(state).all():
        raise InputError(f"{what} must have finite amplitudes")
    return state


def bell_state(label: str) -> np.ndarray:
    """Two-photon time-bin Bell state as a writable (2, 2) array."""
    return _bell_amplitudes(label).copy()


def product_state(pair_12: np.ndarray, pair_34: np.ndarray) -> np.ndarray:
    """Four-photon state from two independent photon pairs, indexed [b1, b2, b3, b4]."""
    return np.multiply.outer(
        _state_array(pair_12, (2, 2), "pair_12"), _state_array(pair_34, (2, 2), "pair_34")
    )


def dump_state(state: np.ndarray) -> str:
    """One line per ket, ``label re im``, the label naming each photon's bin."""
    state = _as_array(state, "state")
    return "\n".join(
        f"{''.join('el'[b] for b in bins)} {amp.real:.17e} {amp.imag:.17e}"
        for bins, amp in np.ndenumerate(_state_array(state, (2,) * state.ndim, "state"))
    )


def sfg_projection_vectors() -> dict[str, np.ndarray]:
    """Measurement vectors (e_Sx +/- l_Sx)/sqrt(2) on the mode order e_S1, l_S1, e_S2, l_S2."""
    vecs: dict[str, np.ndarray] = {}
    for element, (e_idx, l_idx) in (("S1", (0, 1)), ("S2", (2, 3))):
        for sign_label, sign in (("+", 1.0), ("-", -1.0)):
            vec = np.zeros(4, dtype=complex)
            vec[e_idx] = _SQRT_HALF
            vec[l_idx] = sign * _SQRT_HALF
            vecs[element + sign_label] = vec
    return vecs


def swap_condition_on_sfg(state: np.ndarray) -> list[BellOutcome]:
    """Herald outcomes of the swapping measurement on photons 2 and 3.

    The four outcomes S1+, S1-, S2+, S2- in that order: one nonlinear element
    (equal-bin interaction only) resolves the first two, two elements resolve
    all four Bell states.  The input must be a normalized product of a
    photon-(1,2) pair state and a photon-(3,4) pair state; outcome
    probabilities sum to the weight of the heralded subspace.
    """
    state = _state_array(state, (2,) * 4, "input")
    if not abs(np.linalg.norm(state) - 1.0) <= 1e-9:
        raise InputError("input state must be normalized")
    singular_values = np.linalg.svd(state.reshape(4, 4), compute_uv=False)
    if singular_values[1] > 1e-10:
        raise InputError("input is not a product of photon-(1,2) and photon-(3,4) states")

    # The (sigma mode, photon 1, photon 4) tensor: photons 2 and 3 are consumed by
    # the nonlinear element(s), and each sigma mode takes the bins that feed it.
    herald = np.stack([state[:, b2, b3, :] for b2, b3 in _BINS_OF_SIGMA])
    outcomes = []
    for name, projector in sfg_projection_vectors().items():
        component = np.tensordot(projector.conj(), herald, axes=(0, 0))
        probability = float(np.vdot(component, component).real)
        conditioned = label = None
        if probability > 0.0:
            conditioned = component / probability**0.5
            fidelity = {b: bell_fidelity(conditioned, b) for b in BELL_LABELS}
            best, runner_up = sorted(fidelity.values(), reverse=True)[:2]
            label = max(fidelity, key=fidelity.get) if best > runner_up else None
        outcomes.append(BellOutcome(label, name, probability, conditioned))
    return outcomes


def bell_fidelity(state: np.ndarray, target: str) -> float:
    """Squared overlap of a two-photon (2, 2) state with a Bell state."""
    overlap = np.vdot(_bell_amplitudes(target), _state_array(state, (2, 2), "state"))
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
                amp = herald_amplitude(n_a, n_b, gt)
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
    outcomes = swap_condition_on_sfg(state)
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
    for outcome in swap_condition_on_sfg(state):
        blocks.append(f"# projector {outcome.projector} -> {outcome.label}")
        blocks.append(dump_state(outcome.conditioned_state))
    return "\n".join(blocks) + "\n"
