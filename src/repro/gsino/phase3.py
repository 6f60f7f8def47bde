"""Phase III: greedy local refinement (the LR algorithm, Figure 2).

Phase I budgets crosstalk with the Manhattan source-to-sink distance; detours
introduced by the router make that an under-estimate, so a small number of
nets can still violate their bound after Phase II.  Phase III fixes this with
two greedy passes that *redistribute* the crosstalk budget instead of using
the uniform split:

* **Pass 1 — eliminate crosstalk violations.**  The outer loop picks the net
  with the most severe violation; the inner loop picks the least congested
  region the net is routed through, tightens the net's regional ``Kth`` (so
  the re-run SINO must add shielding there), and repeats until the net meets
  its bound.
* **Pass 2 — reduce routing congestion.**  Starting from the most congested
  region, the slack of every net routed through it is converted into a
  relaxed regional ``Kth``; SINO is re-run under the relaxed bounds and the
  new solution is accepted only if it saves shields and introduces no new
  crosstalk violation.

Where the paper invokes Formula 3 to translate "one more / one fewer shield"
into a ``Kth`` change, this implementation applies a multiplicative tightening
factor (pass 1) and the exact per-net LSK slack (pass 2); both preserve the
greedy one-region-at-a-time structure of Figure 2 (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from repro.engine.panels import Engine
from repro.grid.nets import Netlist
from repro.grid.routes import PanelIndex, RoutingSolution
from repro.gsino.budgeting import NetBudget
from repro.gsino.config import UM_TO_M, GsinoConfig
from repro.gsino.metrics import PanelKey, SinkPathIndex
from repro.gsino.phase2 import Phase2Result
from repro.noise.lsk import LskModel
from repro.sino.panel import SinoSolution


@dataclass
class Phase3Report:
    """What local refinement did.

    Attributes
    ----------
    violations_before / violations_after:
        Number of crosstalk-violating nets entering / leaving Phase III.
    pass1_outer_iterations:
        Outer-loop iterations of pass 1 (one per violating net processed).
    pass1_sino_reruns:
        Number of per-region SINO re-runs triggered by pass 1.
    unfixable_nets:
        Nets whose violation pass 1 could not remove within its iteration cap.
    shields_before / shields_after_pass1 / shields_after:
        Total shields entering Phase III, after pass 1 (which may add shields
        to fix violations), and after pass 2 (which only removes them).
    pass2_regions_examined / pass2_regions_relaxed:
        Congested panels pass 2 looked at / successfully relaxed.
    pass1_capped:
        Pass 1 stopped at ``max_pass1_iterations`` while violating nets it
        had not given up on were left.
    pass2_capped:
        Pass 2 stopped at ``max_pass2_regions`` while shielded panels it had
        not examined were left.
    """

    violations_before: int = 0
    violations_after: int = 0
    pass1_outer_iterations: int = 0
    pass1_sino_reruns: int = 0
    unfixable_nets: List[int] = field(default_factory=list)
    shields_before: int = 0
    shields_after_pass1: int = 0
    shields_after: int = 0
    pass2_regions_examined: int = 0
    pass2_regions_relaxed: int = 0
    pass1_capped: bool = False
    pass2_capped: bool = False


class LocalRefiner:
    """Mutable refinement state shared by the two passes."""

    def __init__(
        self,
        routing: RoutingSolution,
        phase2: Phase2Result,
        budgets: Mapping[int, NetBudget],
        netlist: Netlist,
        config: GsinoConfig,
        lsk_model: Optional[LskModel] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        self.panels = phase2.panels
        self.problems = phase2.problems
        self.budgets = budgets
        self.netlist = netlist
        self.config = config
        # The refinement loop is inherently sequential (each re-solve depends
        # on the previous accept/reject); its solves go through the engine's
        # cache.  Mutated bounds change the cache key, so tightened/relaxed
        # panels can never receive a stale hit.
        self.engine = engine or Engine()
        self.lsk_model = lsk_model or config.lsk_model()
        self.bound = config.resolved_bound()
        self._couplings: Dict[PanelKey, Dict[int, float]] = {
            key: solution.couplings() for key, solution in self.panels.items()
        }
        self._panel_index = PanelIndex.of(routing)
        self._paths = SinkPathIndex.of(routing, config.length_scale)

    # -- cached lookups ---------------------------------------------------------

    def panel_keys_of(self, net_id: int) -> List[PanelKey]:
        """The (region, direction) panels a net is routed through."""
        return [key for key in self._panel_index.net_keys[net_id] if key in self.panels]

    def density_of(self, key: PanelKey) -> float:
        """Current track density of a panel (segments + shields over capacity)."""
        problem = self.problems[key]
        solution = self.panels[key]
        capacity = problem.capacity if problem.capacity > 0 else max(solution.num_tracks, 1)
        return solution.num_tracks / capacity

    def net_lsk(self, net_id: int) -> float:
        """Worst-sink LSK value of a net under the current panel solutions."""
        return self._paths.lsk_value(net_id, self._couplings)

    def net_noise(self, net_id: int) -> float:
        """Worst-sink noise voltage of a net under the current panel solutions."""
        return self.lsk_model.table.noise_for(self.net_lsk(net_id))

    def net_region_length_m(self, net_id: int, key: PanelKey) -> float:
        """Length (metres, electrically scaled) of a net inside one panel's region."""
        coord, _direction = key
        lengths = self._paths.region_lengths_um(net_id)
        return lengths.get(coord, 0.0) * UM_TO_M * self.config.length_scale

    def replace_panel(self, key: PanelKey, solution: SinoSolution) -> None:
        """Install a new panel solution and refresh its coupling cache."""
        self.panels[key] = solution
        self._couplings[key] = solution.couplings()

    def violating_nets(self) -> Dict[int, float]:
        """All nets currently above the bound, mapped to their noise excess."""
        tolerance = 1e-9
        violations: Dict[int, float] = {}
        for net_id in self.netlist.net_ids():
            noise = self.net_noise(net_id)
            if noise > self.bound + tolerance:
                violations[net_id] = noise - self.bound
        return violations

    def total_shields(self) -> int:
        """Total shield tracks over all panels."""
        return sum(solution.num_shields for solution in self.panels.values())

    # -- pass 1: eliminate crosstalk violations ------------------------------------

    def run_pass1(self, report: Phase3Report, max_inner_iterations: int = 40) -> None:
        """Tighten regional bounds of violating nets until none remain."""
        violations = self.violating_nets()
        report.violations_before = len(violations)
        unfixable: Set[int] = set()
        tolerance = 1e-9

        while violations and report.pass1_outer_iterations < self.config.max_pass1_iterations:
            candidates = {net: excess for net, excess in violations.items() if net not in unfixable}
            if not candidates:
                break
            net_id = max(candidates, key=candidates.get)
            report.pass1_outer_iterations += 1
            fixed = False
            touched_keys: Set[PanelKey] = set()
            exhausted_keys: Set[PanelKey] = set()

            for _ in range(max_inner_iterations):
                # Only regions where the net still has appreciable coupling
                # can lower its LSK value; regions where tightening stopped
                # helping are excluded so the loop moves on to the real
                # contributors.
                keys = [
                    key
                    for key in self.panel_keys_of(net_id)
                    if key not in exhausted_keys
                    and self._couplings.get(key, {}).get(net_id, 0.0) > 0.05
                ]
                if not keys:
                    break
                key = min(keys, key=self.density_of)
                problem = self.problems[key]
                current_coupling = self._couplings[key].get(net_id, 0.0)
                new_bound = max(
                    min(current_coupling, problem.bound_of(net_id))
                    * self.config.refine_kth_shrink,
                    1e-6,
                )
                self.problems[key] = problem.with_bounds({net_id: new_bound})
                solution = self.engine.solve_panel(
                    self.problems[key],
                    solver="sino",
                    effort=self.config.sino_effort,
                    anneal=self.config.anneal,
                    key=key,
                )
                self.replace_panel(key, solution)
                touched_keys.add(key)
                report.pass1_sino_reruns += 1
                new_coupling = self._couplings[key].get(net_id, 0.0)
                if new_coupling > current_coupling * 0.95:
                    # SINO could not reduce this region further; stop revisiting it.
                    exhausted_keys.add(key)
                if self.net_noise(net_id) <= self.bound + tolerance:
                    fixed = True
                    break

            if not fixed:
                unfixable.add(net_id)

            # Re-evaluate every net that shares a modified panel: their
            # couplings (and so their noise) may have changed either way.
            affected: Set[int] = {net_id}
            for key in touched_keys:
                affected.update(self.problems[key].segments)
            for other in affected:
                noise = self.net_noise(other)
                if noise > self.bound + tolerance:
                    violations[other] = noise - self.bound
                else:
                    violations.pop(other, None)

        report.unfixable_nets = sorted(unfixable)
        report.pass1_capped = (
            report.pass1_outer_iterations >= self.config.max_pass1_iterations
            and any(net not in unfixable for net in violations)
        )

    # -- pass 2: reduce routing congestion ---------------------------------------------

    def run_pass2(self, report: Phase3Report) -> None:
        """Relax bounds where slack exists and re-run SINO to recover shields."""
        tolerance = 1e-9
        processed: Set[PanelKey] = set()

        while report.pass2_regions_examined < self.config.max_pass2_regions:
            candidates = [
                key for key, solution in self.panels.items()
                if solution.num_shields > 0 and key not in processed
            ]
            if not candidates:
                break
            key = max(candidates, key=self.density_of)
            processed.add(key)
            report.pass2_regions_examined += 1

            problem = self.problems[key]
            relaxed: Dict[int, float] = {}
            for net_id, bound in zip(problem.segments, problem.bounds.tolist()):
                length_m = self.net_region_length_m(net_id, key)
                if length_m <= 0.0:
                    continue
                slack_lsk = self.budgets[net_id].lsk_budget - self.net_lsk(net_id)
                if slack_lsk <= 0.0:
                    continue
                extra_coupling = slack_lsk / length_m
                current_coupling = self._couplings[key].get(net_id, 0.0)
                relaxed[net_id] = max(bound, current_coupling + extra_coupling)
            if not relaxed:
                continue

            old_solution = self.panels[key]
            old_couplings = self._couplings[key]
            candidate_problem = problem.with_bounds(relaxed)
            candidate_solution = self.engine.solve_panel(
                candidate_problem,
                solver="sino",
                effort=self.config.sino_effort,
                anneal=self.config.anneal,
                key=key,
            )
            if candidate_solution.num_shields >= old_solution.num_shields:
                continue

            # Tentatively accept, then verify no net using this panel violates.
            self.problems[key] = candidate_problem
            self.replace_panel(key, candidate_solution)
            regression = any(
                self.net_noise(net_id) > self.bound + tolerance
                for net_id in candidate_problem.segments
            )
            if regression or not candidate_solution.is_valid():
                self.problems[key] = problem
                self.panels[key] = old_solution
                self._couplings[key] = old_couplings
                continue
            report.pass2_regions_relaxed += 1

        report.pass2_capped = (
            report.pass2_regions_examined >= self.config.max_pass2_regions
            and any(
                solution.num_shields > 0 and key not in processed
                for key, solution in self.panels.items()
            )
        )


def run_phase3(
    routing: RoutingSolution,
    phase2: Phase2Result,
    budgets: Mapping[int, NetBudget],
    netlist: Netlist,
    config: GsinoConfig,
    lsk_model: Optional[LskModel] = None,
    engine: Optional[Engine] = None,
) -> Phase3Report:
    """Run both local-refinement passes in place on ``phase2``'s panels."""
    refiner = LocalRefiner(
        routing, phase2, budgets, netlist, config, lsk_model=lsk_model, engine=engine
    )
    report = Phase3Report()
    report.shields_before = refiner.total_shields()
    refiner.run_pass1(report)
    report.shields_after_pass1 = refiner.total_shields()
    refiner.run_pass2(report)
    report.shields_after = refiner.total_shields()
    report.violations_after = len(refiner.violating_nets())
    return report
