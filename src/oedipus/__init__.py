"""CRB-guided k-space sampling design and evaluation."""

from .baselines import caipi_pattern, poisson_disc_pattern, uniform_pattern
from .crb import (
    CrbState,
    build_full_crb,
    downdate_trace,
    image_domain_crb_trace,
    oracle_lsq_estimate,
    restricted_block,
)
from .design import (
    DesignObjective,
    SamplingPattern,
    evaluate_pattern_crb,
    exhaustive_design,
    pattern_from_groups,
    sbs_design,
)
from .encoding import (
    CandidateSet,
    EncodingModel,
    EncodingOperator,
    ImageGrid,
    VoxelBasis,
    build_cartesian_candidates,
    synthesize_coil_maps,
)
from .errors import (
    GenerationFailureError,
    InfeasibleDesignError,
    OedipusError,
    SolverFailureError,
)
from .phantoms import PhantomSpec, default_phantom_spec, render_phantom
from .recon import (
    ReconProblem,
    ReconResult,
    TvOperator,
    irls_solve,
    nrmse,
    retrospective_undersample,
)
from .sparsity import (
    SupportSet,
    TransformSpec,
    extract_support,
    forward_transform,
    inverse_transform,
)

__version__ = "0.1.0"
