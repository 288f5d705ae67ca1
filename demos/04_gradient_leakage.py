"""Gradient leakage and the noise + prune defense.

A leaked gradient from a single training sample is enough to reconstruct the
sample almost exactly by gradient matching. Adding Gaussian noise to the
upload and pruning 90% of its coordinates degrades the reconstruction by
orders of magnitude. The grid below reports median reconstruction MSE per
(noise variance, prune rate) cell alongside the reference values from the
original CNN-scale evaluation (labeled; not reproduced at this scale).
"""

import numpy as np

from fedaudit import (Dataset, ModelConfig, backward, dlg_reconstruct, init_params,
                      reconstruction_mse)
from fedaudit.reporting import dlg_csv_text
from fedaudit.simulator import DLGExperimentConfig, run_dlg_experiment

# one clean reconstruction, end to end
model = ModelConfig(8, (), 2)
rng = np.random.default_rng(3)
params = init_params(model, 42)
raw = Dataset(rng.uniform(0, 1, (1, 8)), rng.integers(0, 2, 1), 2)
gradient = backward(params, model, raw)
recon = dlg_reconstruct(model, params, gradient, (1, 8), iterations=300, seed=0)
print("raw sample:    ", np.round(raw.features[0], 3))
print("reconstructed: ", np.round(recon.features[0], 3))
print(f"reconstruction MSE: {reconstruction_mse(raw, recon):.2e}\n")

# the defense grid
grid = DLGExperimentConfig(noise_variances=(0.0, 1e-3, 1e-1),
                           prune_rates=(0.0, 0.9), instances=10,
                           iterations=300, input_dim=8, num_classes=2, seed=0)
print(dlg_csv_text(run_dlg_experiment(grid)))
