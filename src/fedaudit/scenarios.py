"""Tuned desk-scale scenarios used by the demos and the acceptance runs.

The reference hyper-parameters (eta 0.1, alpha 0.95, beta 1.75, prune rate
0.9, noise variance 1e-2) are fixed throughout. Two scenarios:

standard_config - the adversarial benchmark. A crowded overlapping task
(8 Gaussian classes in 10 dimensions, min mean distance 1.2, every class pair
confusable) keeps the consensus bounded and non-separable, heavily skewed
small shards (Dirichlet 0.4, 100 samples) give each fair client a local
optimum visibly different from the consensus, and long local training (600
full-batch epochs) walks all the way there. A fair upload applied alone then
persistently hurts peers by a few accuracy points - the signature the audit
rewards - while echo-style uploads track the announced transition and decay
to elimination. The threshold uses the initial roster size: with the current
active count the cutoff rises after each elimination and cascades.

neutrality_config - an easy well-separated IID task (4 classes, margin 5)
used to measure the accuracy cost of the privacy transforms; the model
reaches its ceiling quickly under both the transformed and the plain
pipeline, so the comparison isolates the transforms rather than convergence
speed.
"""

from __future__ import annotations

from .config import (AggregatorConfig, DataConfig, DefenseSettings,
                     ExperimentConfig, RosterConfig)
from .model import ModelConfig
from .privacy import PrivacyConfig

INPUT_DIM = 10
NUM_CLASSES = 8
SEPARATION = 1.2
SAMPLES_PER_CLIENT = 100
HOLDOUT_SAMPLES = 600
LOCAL_EPOCHS = 600
NON_IID_CONCENTRATION = 0.4


def standard_config(fair: int = 10, plain: int = 0, disguised: int = 0,
                    anonymous: int = 0, selfish: int = 0, *, seed: int = 0,
                    rounds: int = 100, defense: str = "pass",
                    aggregator: str = "fedavg", privacy_on: bool = True,
                    alpha: float = 0.95,
                    local_epochs: int = LOCAL_EPOCHS) -> ExperimentConfig:
    """Build the tuned adversarial scenario for a given roster and defense."""
    privacy = PrivacyConfig(1e-2, 0.9) if privacy_on else PrivacyConfig(0.0, 0.0)
    return ExperimentConfig(
        seed=seed,
        rounds=rounds,
        eta=0.1,
        local_epochs=local_epochs,
        model=ModelConfig(INPUT_DIM, (), NUM_CLASSES),
        data=DataConfig(
            source="synthetic",
            separation=SEPARATION,
            samples_per_client=SAMPLES_PER_CLIENT,
            holdout_samples=HOLDOUT_SAMPLES,
            mode="non_iid",
            non_iid_concentration=NON_IID_CONCENTRATION,
        ),
        roster=RosterConfig(fair=fair, plain=plain, disguised=disguised,
                            anonymous=anonymous, selfish=selfish),
        aggregator=AggregatorConfig(kind=aggregator),
        defense=DefenseSettings(kind=defense, alpha=alpha, beta=1.75,
                                threshold_mode="initial"),
        privacy=privacy,
    )


def neutrality_config(*, seed: int = 0, rounds: int = 60, privacy_on: bool = True,
                      defense: str = "pass") -> ExperimentConfig:
    """All-fair easy-task scenario for measuring privacy-transform cost."""
    privacy = PrivacyConfig(1e-2, 0.9) if privacy_on else PrivacyConfig(0.0, 0.0)
    return ExperimentConfig(
        seed=seed,
        rounds=rounds,
        eta=0.1,
        local_epochs=40,
        model=ModelConfig(8, (), 4),
        data=DataConfig(
            source="synthetic",
            separation=5.0,
            samples_per_client=100,
            holdout_samples=600,
            mode="iid",
        ),
        roster=RosterConfig(fair=10),
        aggregator=AggregatorConfig(kind="fedavg"),
        defense=DefenseSettings(kind=defense, threshold_mode="initial"),
        privacy=privacy,
    )
