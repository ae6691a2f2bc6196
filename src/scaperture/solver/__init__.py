from scaperture.solver.kernel import boundary_correction, cell_integrated_kernel
from scaperture.solver.laplacian import div_lambda_grad
from scaperture.solver.system import BrandtSystem, SolverError, StreamSolution

__all__ = [
    "BrandtSystem",
    "SolverError",
    "StreamSolution",
    "boundary_correction",
    "cell_integrated_kernel",
    "div_lambda_grad",
]
