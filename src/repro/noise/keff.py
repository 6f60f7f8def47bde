"""The formula-based Keff inductive-coupling model.

The paper relies on the Keff model of He–Lepak (its reference [4]) to
characterise inductive coupling between signal wires placed on the parallel
tracks of a routing region:  ``K_ij`` is the coupling coefficient induced on
net ``i`` by a sensitive aggressor ``j`` and ``K_i = sum_j K_ij`` is the total
coupling of net ``i``.

The exact closed form is given only in the referenced work; what the GSINO
algorithm needs from it — and what this implementation preserves — are the
following properties:

* ``K_ij`` decreases with the track distance between ``i`` and ``j``
  (mutual inductance decays slowly, roughly inverse-distance);
* every shield placed strictly between ``i`` and ``j`` cuts the coupling by a
  large constant factor (a grounded return path close to the victim collapses
  the coupling loop);
* a shield immediately adjacent to the victim reduces all of its couplings;
* ``K_i`` is additive over sensitive aggressors.

The model is deliberately cheap: evaluating a full panel is O(n^2) integer
arithmetic, which is what makes full-chip crosstalk budgeting feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class PanelOccupant:
    """One occupied track in a routing panel.

    Attributes
    ----------
    track:
        Zero-based track index within the panel (track order = physical
        adjacency order).
    net_id:
        Identifier of the signal net occupying the track, or ``None`` for a
        shield wire.
    """

    track: int
    net_id: Optional[int]

    def __post_init__(self) -> None:
        if self.track < 0:
            raise ValueError(f"track index must be non-negative, got {self.track}")

    @property
    def is_shield(self) -> bool:
        """True when the track holds a shield wire."""
        return self.net_id is None


@dataclass(frozen=True)
class KeffModel:
    """Parameters of the formula-based Keff model.

    Attributes
    ----------
    shield_attenuation:
        Factor by which one shield strictly between aggressor and victim
        divides the coupling.  Physically this is large (the shield provides a
        nearby return path); the default of 4 matches the strong shielding
        benefit reported by the referenced SINO work.
    adjacent_shield_bonus:
        Additional division applied when the victim has a shield on an
        immediately adjacent track (its own return loop shrinks).
    distance_exponent:
        Exponent of the track-distance decay; 1.0 gives the slow, long-range
        decay characteristic of inductive coupling.
    """

    shield_attenuation: float = 4.0
    adjacent_shield_bonus: float = 1.5
    distance_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.shield_attenuation <= 1.0:
            raise ValueError(
                f"shield_attenuation must be > 1, got {self.shield_attenuation}"
            )
        if self.adjacent_shield_bonus < 1.0:
            raise ValueError(
                f"adjacent_shield_bonus must be >= 1, got {self.adjacent_shield_bonus}"
            )
        if self.distance_exponent <= 0.0:
            raise ValueError(
                f"distance_exponent must be positive, got {self.distance_exponent}"
            )


#: Model used everywhere unless a caller supplies its own.
DEFAULT_KEFF_MODEL = KeffModel()


def coupling_coefficient(
    distance: int,
    shields_between: int,
    victim_has_adjacent_shield: bool = False,
    model: KeffModel = DEFAULT_KEFF_MODEL,
) -> float:
    """Coupling coefficient ``K_ij`` between two signal wires.

    Parameters
    ----------
    distance:
        Track distance between the two wires (>= 1).
    shields_between:
        Number of shields on tracks strictly between them.
    victim_has_adjacent_shield:
        Whether the victim has a shield on a directly neighbouring track.
    model:
        Model parameters.
    """
    if distance < 1:
        raise ValueError(f"track distance must be >= 1, got {distance}")
    if shields_between < 0:
        raise ValueError(f"shields_between must be >= 0, got {shields_between}")
    value = 1.0 / float(distance) ** model.distance_exponent
    value /= model.shield_attenuation ** shields_between
    if victim_has_adjacent_shield:
        value /= model.adjacent_shield_bonus
    return value


def _occupants_by_track(occupants: Sequence[PanelOccupant]) -> List[PanelOccupant]:
    ordered = sorted(occupants, key=lambda occupant: occupant.track)
    seen: Set[int] = set()
    for occupant in ordered:
        if occupant.track in seen:
            raise ValueError(f"two occupants share track {occupant.track}")
        seen.add(occupant.track)
    return ordered


def _shield_tracks(occupants: Sequence[PanelOccupant]) -> List[int]:
    return sorted(occupant.track for occupant in occupants if occupant.is_shield)


def _shields_between(shield_tracks: Sequence[int], low: int, high: int) -> int:
    """Number of shield tracks strictly inside the open interval (low, high)."""
    return sum(1 for track in shield_tracks if low < track < high)


def _has_adjacent_shield(shield_tracks: Sequence[int], track: int) -> bool:
    return (track - 1) in shield_tracks or (track + 1) in shield_tracks


def total_coupling(
    victim: PanelOccupant,
    occupants: Sequence[PanelOccupant],
    aggressor_net_ids: Iterable[int],
    model: KeffModel = DEFAULT_KEFF_MODEL,
) -> float:
    """Total coupling ``K_i`` induced on ``victim`` by its sensitive aggressors.

    Parameters
    ----------
    victim:
        The occupant whose coupling is evaluated (must be a signal wire).
    occupants:
        Every occupant of the panel (the victim itself may be included).
    aggressor_net_ids:
        Net identifiers the victim is sensitive to; nets not present in the
        panel are ignored.
    model:
        Model parameters.
    """
    if victim.is_shield:
        raise ValueError("shields do not accumulate coupling; victim must be a signal wire")
    ordered = _occupants_by_track(occupants)
    shield_tracks = _shield_tracks(ordered)
    aggressors = set(aggressor_net_ids)
    adjacent_shield = _has_adjacent_shield(shield_tracks, victim.track)

    total = 0.0
    for occupant in ordered:
        if occupant.is_shield or occupant.net_id == victim.net_id:
            continue
        if occupant.net_id not in aggressors:
            continue
        low, high = sorted((victim.track, occupant.track))
        distance = high - low
        if distance == 0:
            continue
        shields = _shields_between(shield_tracks, low, high)
        total += coupling_coefficient(
            distance=distance,
            shields_between=shields,
            victim_has_adjacent_shield=adjacent_shield,
            model=model,
        )
    return total


def panel_couplings(
    occupants: Sequence[PanelOccupant],
    sensitivity: Mapping[int, Set[int]],
    model: KeffModel = DEFAULT_KEFF_MODEL,
) -> Dict[int, float]:
    """Total coupling ``K_i`` for every signal net in a panel.

    Parameters
    ----------
    occupants:
        Every occupant of the panel.
    sensitivity:
        Mapping from a net id to the set of net ids it is sensitive to
        (its aggressors).  Nets missing from the mapping are treated as not
        sensitive to anything.
    model:
        Model parameters.

    Returns
    -------
    dict
        ``{net_id: K_i}`` for every signal occupant.  If a net occupies
        several tracks of the same panel (rare, but possible for multi-track
        segments) the worst (largest) coupling is reported.
    """
    ordered = _occupants_by_track(occupants)
    couplings: Dict[int, float] = {}
    for occupant in ordered:
        if occupant.is_shield:
            continue
        aggressors = sensitivity.get(occupant.net_id, set())
        value = total_coupling(occupant, ordered, aggressors, model=model)
        existing = couplings.get(occupant.net_id)
        if existing is None or value > existing:
            couplings[occupant.net_id] = value
    return couplings


def capacitive_violations(
    occupants: Sequence[PanelOccupant],
    sensitivity: Mapping[int, Set[int]],
) -> List[Tuple[int, int]]:
    """Pairs of sensitive nets that sit on adjacent tracks.

    The SINO constraint for capacitive crosstalk is that no two mutually
    sensitive nets are adjacent; this helper reports every violating pair
    (each pair reported once, lower net id first).
    """
    ordered = _occupants_by_track(occupants)
    violations: List[Tuple[int, int]] = []
    for first, second in zip(ordered, ordered[1:]):
        if first.is_shield or second.is_shield:
            continue
        if second.track - first.track != 1:
            continue
        net_a, net_b = first.net_id, second.net_id
        if net_a == net_b:
            continue
        sensitive = net_b in sensitivity.get(net_a, set()) or net_a in sensitivity.get(net_b, set())
        if sensitive:
            violations.append((min(net_a, net_b), max(net_a, net_b)))
    return violations
