"""The five client behaviors: fair training plus four free-rider variants.

Free riders never touch a private shard; the selfish variant is the only one
holding data (a public dataset used for its first-round update and for
honest-looking audits). All cross-client interaction flows through the
server payload (the current global parameters and the previously allocated
global update), so clients are independent within a round. Each rider's
attack strength is a constant of its class.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .model import ModelConfig, train_clients

# the textbook Adam moments' decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Client:
    """Base participant: an id, its FedAvg weight (free riders forge the fair
    count) and the data it can honestly audit peers with (None = cannot
    audit). Whether it is still in the federation is the ledger's record
    (defense.ContributionLedger).

    Each free-rider class defines its own compute_update, so wrapping one
    class's method (to trace it, say) affects that class alone. FairClient
    inherits this abstract one: the simulator trains fair clients as one stack."""

    kind = "fair"
    audit_dataset: Dataset | None = None

    def __init__(self, client_id: int, declared_samples: int):
        self.id = client_id
        self.declared_samples = declared_samples

    def compute_update(self, global_params: np.ndarray,
                       prev_global_update: np.ndarray | None, config: ModelConfig,
                       eta: float, rng: np.random.Generator) -> np.ndarray:
        """This round's upload; prev_global_update is None exactly on round 0."""
        raise NotImplementedError


class FairClient(Client):
    kind = "fair"

    def __init__(self, client_id: int, shard: Dataset):
        super().__init__(client_id, len(shard))
        self.shard = self.audit_dataset = shard


class PlainFreeRider(Client):
    kind = "plain"

    def compute_update(self, global_params, prev_global_update, config, eta, rng):
        """Echo the allocated global update; zero vector before one exists."""
        if prev_global_update is None:
            return np.zeros(global_params.shape[0])
        return prev_global_update.copy()


class DisguisedFreeRider(Client):
    kind = "disguised"
    NOISE_VARIANCE = 1e-2

    def compute_update(self, global_params, prev_global_update, config, eta, rng):
        """The plain echo plus i.i.d. Gaussian noise of NOISE_VARIANCE."""
        noise = rng.normal(0.0, np.sqrt(self.NOISE_VARIANCE), global_params.shape[0])
        return noise if prev_global_update is None else prev_global_update + noise


class _AdamEchoRider(Client):
    """After its first upload, one Adam step per round on the allocated update,
    with its own values as the pseudo-gradient. This is how the Adam-evolved
    free riders track the global trajectory without computing anything."""

    ADAM_LR = 0.015
    ADAM_DECAY = 0.997

    def __init__(self, client_id: int, declared_samples: int):
        super().__init__(client_id, declared_samples)
        self.m = self.v = 0.0  # Adam moments; broadcast to the update's shape
        self.steps = 0
        self.rate = self.ADAM_LR

    def _adam_echo(self, prev_global_update: np.ndarray) -> np.ndarray:
        """Bias-corrected Adam step; the rate decays by ADAM_DECAY afterwards."""
        g = prev_global_update
        self.steps += 1
        self.m = BETA1 * self.m + (1 - BETA1) * g
        self.v = BETA2 * self.v + (1 - BETA2) * g ** 2
        m_hat = self.m / (1 - BETA1 ** self.steps)
        v_hat = self.v / (1 - BETA2 ** self.steps)
        evolved = g - self.rate * m_hat / (np.sqrt(v_hat) + EPS)
        self.rate *= self.ADAM_DECAY
        return evolved


class AnonymousFreeRider(_AdamEchoRider):
    """No data at all: pure noise on round 0, Adam-evolved echoes afterwards."""

    kind = "anonymous"
    INIT_NOISE_VARIANCE = 1e-2

    def compute_update(self, global_params, prev_global_update, config, eta, rng):
        if prev_global_update is None:
            return rng.normal(0.0, np.sqrt(self.INIT_NOISE_VARIANCE),
                              global_params.shape[0])
        return self._adam_echo(prev_global_update)


class SelfishFreeRider(_AdamEchoRider):
    """Owns a public dataset: one genuine pretrained update on round 0, then
    Adam-evolved echoes. Audits honestly with the public data to stay
    protocol-conformant."""

    kind = "selfish"
    PRETRAIN_EPOCHS = 5

    def __init__(self, client_id: int, public_data: Dataset):
        if len(public_data) == 0:
            raise ValueError("selfish free rider needs non-empty public data")
        super().__init__(client_id, len(public_data))
        self.audit_dataset = public_data

    def compute_update(self, global_params, prev_global_update, config, eta, rng):
        if prev_global_update is None:
            public = self.audit_dataset
            trained = train_clients(global_params, config, public.features[None],
                                    public.labels[None], eta, self.PRETRAIN_EPOCHS)
            return trained[0] - global_params
        return self._adam_echo(prev_global_update)
