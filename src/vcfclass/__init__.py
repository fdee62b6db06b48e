"""vcfclass: classify vertebral compression fractures as osteoporotic or
neoplastic from labeled CT-like volumes.

The pipeline stages are file-based: synthetic cohort generation (``phantom``),
height-compass and density feature extraction (``morphometry``,
``densitometry``, ``features``), SVM-committee cross-validation (``svm``,
``committee``, ``crossval``), and statistical evaluation (``evaluation``).
"""

__version__ = "0.1.0"

from .committee import (Committee, CommitteeConfig, SelectionConfig,
                        greedy_forward_select, load_committee, save_committee,
                        train_committee)
from .crossval import CvResult, cross_validate, cross_validate_conditions
from .densitometry import (DensityFeatures, StudyReference, density_features,
                           mean_density, normalize, study_reference,
                           trabecular_region)
from .evaluation import (ComparisonReport, ConfusionMatrix2, accuracy, compare,
                         confusion, emit_report, fisher_exact_two_sided)
from .features import (ALL_COLUMNS, FeatureTable, assemble, assemble_from_path,
                       condition_columns, load_table, rate, save_table)
from .folds import kfold_split
from .frames import LocalFrame, make_frame, vertebra_frame
from .grids import (GridGeometry, LabelMap, Volume, load_labelmap, load_volume,
                    save_labelmap, save_volume)
from .manifest import (CohortManifest, PatientEntry, StudyRecord, load_manifest,
                       save_manifest)
from .morphometry import (CellHeights, CompassLayout, assign_cells,
                          cell_heights, column_table, contrast_features,
                          regional_summaries, sagittal_heights)
from .phantom import (CohortSpec, FocalLesion, ProgressionModel, VertebraSpec,
                      advance, generate_cohort, render_vertebra,
                      uniform_heights, wedge_heights)
from .svm import SvmModel, SvmParams, dual_objective, kernel_matrix, train_svm
