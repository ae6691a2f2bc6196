from scaperture.solver.system import BrandtSystem, SolverError

__all__ = [
    "BrandtSystem",
    "SolverError",
]
