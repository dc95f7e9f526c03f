"""JSON formats for states, Bloch vectors, spectra, and channels.

Formats
-------
Pure state::

    {"dims": [2, 2], "amps": [[re, im], ...]}

with ``prod(dims)`` amplitude pairs in row-major order, last party
fastest.

Bloch vector::

    {"bloch": [rx, ry, rz]}

Sorted spectrum::

    {"spectrum": [0.5, 0.3, 0.2]}

Channel::

    {"class": "SIO", "dim": 2,
     "kraus": [{"entries": [[target, source, re, im], ...]}, ...]}

Every float emitted by :func:`dumps` is rounded to 12 significant
digits; emitted objects re-parse equal to the originals within 1e-12.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math

import numpy as np

from .channels import IncoherentChannel
from .states import PureState, QubitBloch

__all__ = [
    "SIG_DIGITS",
    "round_floats",
    "dumps",
    "state_to_dict",
    "state_from_dict",
    "bloch_to_dict",
    "bloch_from_dict",
    "spectrum_from_dict",
    "channel_to_dict",
    "channel_from_dict",
    "subject_from_dict",
    "load_json",
]

SIG_DIGITS = 12

#: Largest ``n_kraus * dim**2`` stack a channel object may allocate.
KRAUS_ENTRY_CAP = 2**18


def round_floats(obj):
    """Recursively convert an object tree to JSON-ready form with all
    floats carrying 12 significant digits.

    Handles dataclasses, mappings, sequences, numpy scalars/arrays, and
    complex numbers (emitted as [re, im] pairs).  Non-finite floats are
    emitted as None so the output stays strict JSON.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return round_floats(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [round_floats(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [round_floats(obj.real), round_floats(obj.imag)]
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return None
        return float(f"{value:.{SIG_DIGITS}g}") + 0.0  # -0.0 + 0.0 is +0.0
    return obj


def dumps(obj) -> str:
    """Serialize through :func:`round_floats` to a newline-terminated
    JSON document."""
    return json.dumps(round_floats(obj), indent=2, allow_nan=False) + "\n"


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nests too deeply") from exc


# ---------------------------------------------------------------------------
# states


def state_to_dict(state: PureState) -> dict:
    return {
        "dims": list(state.dims),
        "amps": [[amp.real, amp.imag] for amp in state.amps],
    }


def _as_complex(pair):
    if isinstance(pair, (int, float)):
        return complex(pair)
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        return complex(float(pair[0]), float(pair[1]))
    raise ValueError(f"expected a number or [re, im] pair, got {pair!r}")


def _integer(value) -> int:
    """A JSON integer; not a float, bool or string, as ``int()`` allows."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def state_from_dict(obj: dict) -> PureState:
    try:
        dims = [_integer(d) for d in obj["dims"]]
        amps = [_as_complex(pair) for pair in obj["amps"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    return PureState(dims, amps)


def bloch_to_dict(r: QubitBloch) -> dict:
    return {"bloch": [r.r_x, r.r_y, r.r_z]}


def bloch_from_dict(obj: dict) -> QubitBloch:
    try:
        triple = [float(x) for x in obj["bloch"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed bloch object: {exc}") from exc
    if len(triple) != 3:
        raise ValueError("bloch vector must have three components")
    return QubitBloch(*triple)


def spectrum_from_dict(obj: dict) -> np.ndarray:
    try:
        values = np.asarray([float(x) for x in obj["spectrum"]], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed spectrum object: {exc}") from exc
    return values


def subject_from_dict(obj: dict):
    """Dispatch a JSON object to PureState, QubitBloch, or a bare
    spectrum array by its identifying key."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if "amps" in obj:
        return state_from_dict(obj)
    if "bloch" in obj:
        return bloch_from_dict(obj)
    if "spectrum" in obj:
        return spectrum_from_dict(obj)
    raise ValueError(
        "object must contain one of the keys 'amps', 'bloch', 'spectrum'")


# ---------------------------------------------------------------------------
# channels


def channel_to_dict(channel: IncoherentChannel) -> dict:
    """Each Kraus operator as its nonzero entries, one per source column,
    in source order."""
    kraus = []
    for mat in channel.matrices:
        sources, targets = np.nonzero(mat.T)
        kraus.append({"entries": [
            [target, source, coeff.real, coeff.imag] for target, source, coeff
            in zip(targets.tolist(), sources.tolist(),
                   mat[targets, sources].tolist())]})
    return {"class": channel.class_tag, "dim": channel.dim, "kraus": kraus}


def _dense_kraus(dim: int, ops: list) -> np.ndarray:
    """The ``(n_kraus, dim, dim)`` stack of per-operator lists of
    ``(target, source, coeff)`` entries, of at most ``KRAUS_ENTRY_CAP``
    entries.  Indices must lie in ``0..dim-1``, coefficients be finite,
    no operator may name a source column twice, and completeness needs a
    nonzero entry in every column."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if len(ops) * dim * dim > KRAUS_ENTRY_CAP:
        raise ValueError(f"{len(ops)} operators of dim {dim} need "
                         f"{len(ops) * dim * dim} entries, above the cap "
                         f"{KRAUS_ENTRY_CAP}")
    kraus = np.zeros((len(ops), dim, dim), dtype=complex)
    for n, entries in enumerate(ops):
        sources = set()
        for target, source, coeff in entries:
            if not (0 <= target < dim and 0 <= source < dim):
                raise ValueError(f"entry ({target},{source}) outside dim {dim}")
            if not cmath.isfinite(coeff):
                raise ValueError(f"entry ({target},{source}) is not finite")
            if source in sources:
                raise ValueError(f"two entries share source column {source}")
            sources.add(source)
            kraus[n, target, source] = coeff
    nonzero = np.count_nonzero(kraus)
    if nonzero < dim:
        raise ValueError(f"dim {dim} needs a nonzero entry in every column, "
                         f"got {nonzero} nonzero entries")
    return kraus


def channel_from_dict(obj: dict) -> IncoherentChannel:
    try:
        class_tag = str(obj["class"])
        dim = _integer(obj["dim"])
        kraus = _dense_kraus(dim, [
            [(_integer(t), _integer(s), complex(float(re), float(im)))
             for t, s, re, im in item["entries"]] for item in obj["kraus"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed channel object: {exc}") from exc
    return IncoherentChannel(class_tag, kraus)
