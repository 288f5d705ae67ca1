"""The five client behaviors: fair training plus four free-rider variants.

Free riders never touch a private shard; the selfish variant is the only one
holding data (a public dataset used for its first-round update and for
honest-looking audits). All cross-client interaction flows through the
server payload (the current global parameters and the previously allocated
global update), so clients are independent within a round.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .model import AdamState, ModelConfig, adam_step, train_clients

FR_ADAM_LR = 0.015
FR_ADAM_DECAY = 0.997


class Client:
    """Base participant: an id and an optional audit dataset. Whether it is
    still in the federation is the ledger's record (defense.ContributionLedger).

    Each free-rider class defines its own compute_update, so wrapping one
    class's method (to trace it, say) affects that class alone. FairClient
    inherits this abstract one: the simulator trains fair clients as one stack."""

    kind = "fair"
    declared_samples = 1  # nominal FedAvg weight; free riders forge the fair count

    def __init__(self, client_id: int):
        self.id = client_id

    @property
    def audit_dataset(self) -> Dataset | None:
        """Data this client can honestly audit peers with (None = cannot audit)."""
        return None

    def compute_update(self, global_params: np.ndarray,
                       prev_global_update: np.ndarray | None, config: ModelConfig,
                       eta: float, rng: np.random.Generator) -> np.ndarray:
        """This round's upload; prev_global_update is None exactly on round 0."""
        raise NotImplementedError


class FairClient(Client):
    kind = "fair"

    def __init__(self, client_id: int, shard: Dataset):
        super().__init__(client_id)
        self.shard = shard
        self.declared_samples = len(shard)

    @property
    def audit_dataset(self) -> Dataset | None:
        return self.shard


class PlainFreeRider(Client):
    kind = "plain"

    def __init__(self, client_id: int, declared_samples: int = 1):
        super().__init__(client_id)
        self.declared_samples = declared_samples

    def compute_update(self, global_params, prev_global_update, config, eta, rng):
        """Echo the allocated global update; zero vector before one exists."""
        if prev_global_update is None:
            return np.zeros(global_params.shape[0])
        return prev_global_update.copy()


class DisguisedFreeRider(Client):
    kind = "disguised"

    def __init__(self, client_id: int, noise_variance: float = 1e-2,
                 declared_samples: int = 1):
        super().__init__(client_id)
        if noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        self.noise_variance = noise_variance
        self.declared_samples = declared_samples

    def compute_update(self, global_params, prev_global_update, config, eta, rng):
        """The plain echo plus i.i.d. Gaussian noise of the given variance."""
        dim = global_params.shape[0]
        echo = np.zeros(dim) if prev_global_update is None else prev_global_update.copy()
        if self.noise_variance != 0:
            echo += rng.normal(0.0, np.sqrt(self.noise_variance), dim)
        return echo


class _AdamEchoRider(Client):
    """After its first upload, one Adam step per round on the allocated update,
    with its own values as the pseudo-gradient. This is how the Adam-evolved
    free riders track the global trajectory without computing anything."""

    def __init__(self, client_id: int, adam_lr: float, adam_decay: float,
                 declared_samples: int):
        super().__init__(client_id)
        self.adam_lr = adam_lr
        self.adam_decay = adam_decay
        self.declared_samples = declared_samples
        self.adam_state: AdamState | None = None

    def _adam_echo(self, prev_global_update: np.ndarray) -> np.ndarray:
        if self.adam_state is None:
            self.adam_state = AdamState.fresh(prev_global_update.shape[0],
                                              self.adam_lr, self.adam_decay)
        evolved, self.adam_state = adam_step(self.adam_state, prev_global_update,
                                             prev_global_update)
        return evolved


class AnonymousFreeRider(_AdamEchoRider):
    """No data at all: pure noise on round 0, Adam-evolved echoes afterwards."""

    kind = "anonymous"

    def __init__(self, client_id: int, adam_lr: float = FR_ADAM_LR,
                 adam_decay: float = FR_ADAM_DECAY, init_noise_variance: float = 1e-2,
                 declared_samples: int = 1):
        super().__init__(client_id, adam_lr, adam_decay, declared_samples)
        self.init_noise_variance = init_noise_variance

    def compute_update(self, global_params, prev_global_update, config, eta, rng):
        if prev_global_update is None:
            return rng.normal(0.0, np.sqrt(self.init_noise_variance),
                              global_params.shape[0])
        return self._adam_echo(prev_global_update)


class SelfishFreeRider(_AdamEchoRider):
    """Owns a public dataset: one genuine pretrained update on round 0, then
    Adam-evolved echoes. Audits honestly with the public data to stay
    protocol-conformant."""

    kind = "selfish"

    def __init__(self, client_id: int, public_data: Dataset,
                 pretrain_epochs: int = 5, adam_lr: float = FR_ADAM_LR,
                 adam_decay: float = FR_ADAM_DECAY):
        if len(public_data) == 0:
            raise ValueError("selfish free rider needs non-empty public data")
        super().__init__(client_id, adam_lr, adam_decay, len(public_data))
        self.public_data = public_data
        self.pretrain_epochs = pretrain_epochs

    @property
    def audit_dataset(self) -> Dataset | None:
        return self.public_data

    def compute_update(self, global_params, prev_global_update, config, eta, rng):
        if prev_global_update is None:
            trained = train_clients(global_params, config, self.public_data.features[None],
                                    self.public_data.labels[None], eta, self.pretrain_epochs)
            return trained[0] - global_params
        return self._adam_echo(prev_global_update)

