"""uisbench: benchmark uncertain-inference combination rules against an exact oracle.

The harness generates random joint distributions over two evidence events and
a conclusion, computes the minimum-cross-entropy posterior of the conclusion
for a grid of soft-evidence values, fits each candidate combination rule to
those standard answers, and scores the fitted accuracy on a [-1, 1] scale
anchored by the perfect predictor, plain linear regression and an
evidence-ignoring constant.
"""

from .bench import (
    DistReport,
    EtaScore,
    SummaryRow,
    eta,
    run_bench,
    summarize,
)
from .dist import (
    CondIndepParams,
    JointDist,
    condition_c,
    expand,
    marginal,
    sample_cond_indep,
    sample_uniform,
)
from .models import (
    ModelKind,
    ModelParams,
    predict,
    true_params_indp,
    true_params_prsp,
)
from .optim import FitResult, fit, objective
from .oracle import (
    DEFAULT_GRID,
    EvidenceGrid,
    EvidencePair,
    InfeasibleEvidenceError,
    mce_update,
    standard_answer,
    standard_vector,
)

__version__ = "0.1.0"
