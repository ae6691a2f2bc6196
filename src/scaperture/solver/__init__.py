from scaperture.solver.laplacian import div_lambda_grad
from scaperture.solver.system import BrandtSystem, SolverError, StreamSolution

__all__ = [
    "BrandtSystem",
    "SolverError",
    "StreamSolution",
    "div_lambda_grad",
]
