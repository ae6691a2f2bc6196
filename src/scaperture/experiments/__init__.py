from scaperture.experiments.compare import DeviationReport, compare_engines
from scaperture.experiments.coupling import CouplingEstimate, coupling_estimate, numeric_coupling
from scaperture.experiments.fitting import PowerLawFit, fit_power_law
from scaperture.experiments.grids import ScenarioSolution, scenario_grid, solve_scenario
from scaperture.experiments.sweeps import SweepResult, sweep

__all__ = [
    "CouplingEstimate",
    "DeviationReport",
    "PowerLawFit",
    "ScenarioSolution",
    "SweepResult",
    "compare_engines",
    "coupling_estimate",
    "fit_power_law",
    "numeric_coupling",
    "scenario_grid",
    "solve_scenario",
    "sweep",
]
