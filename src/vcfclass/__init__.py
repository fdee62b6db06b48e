"""vcfclass: classify vertebral compression fractures as osteoporotic or
neoplastic from labeled CT-like volumes.

The pipeline stages are file-based: synthetic cohort generation (``phantom``),
height-compass and density feature extraction (``morphometry``,
``densitometry``, ``features``), SVM-committee cross-validation (``svm``,
``committee``, ``crossval``), and statistical evaluation (``evaluation``).
The top level holds the names of the README's library example; everything
else is imported from its module.
"""

__version__ = "0.1.0"

from .committee import CommitteeConfig
from .crossval import cross_validate_conditions
from .evaluation import accuracy, compare
from .features import assemble_from_path
from .phantom import CohortSpec, generate_cohort
