"""fedaudit: a deterministic federated-learning simulator for studying
free-rider attacks, peer parameter audits, robust aggregation, and
gradient-leakage defenses on flat parameter vectors."""

from .aggregation import (AggregationError, coordinate_median, fedavg,
                          signsgd_aggregate, trimmed_mean)
from .clients import (AnonymousFreeRider, DisguisedFreeRider, FairClient,
                      PlainFreeRider, SelfishFreeRider)
from .config import (AggregatorConfig, ConfigError, DataConfig, DefenseSettings,
                     ExperimentConfig, RosterConfig, config_from_dict, load_config)
from .data import (BadMagicError, CountMismatchError, Dataset, IdxFormatError,
                   PartitionSpec, TruncatedFileError, generate_synthetic,
                   load_idx, partition)
from .defense import (AuditMatrix, ContributionLedger, contribution_step,
                      cosine_contribution_step, cosine_similarity,
                      defense_success_rate, eliminate_low_contributors,
                      false_positive_rate)
from .model import (ModelConfig, accuracy, backward, backward_soft, init_params,
                    param_count)
from .privacy import (DEFENDED_MSE_THRESHOLD, PrivacyConfig,
                      ReconstructionDivergedError, apply_privacy,
                      dlg_reconstruct, reconstruction_mse)
from .scenarios import standard_config
from .simulator import (DLGCell, DLGExperimentConfig, ExperimentResult, RoundLog,
                        Simulation, comm_cost, run_dlg_experiment,
                        run_experiment, sweep_experiment)

__version__ = "0.1.0"
