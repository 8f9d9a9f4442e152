"""Neuroevolution toolkit for joint RIS phase and precoder control.

Policies map sampled wireless channels to discrete actions (binary RIS
reflection states plus a DFT-codebook beam index) and are trained with a
cooperative population search that needs no gradients.  Includes a
distributed multi-surface variant, classical baselines, and a config-driven
experiment harness.
"""

from .baselines import LgaParams, LgaResult, exhaustive_oracle, lga_solve, random_baseline
from .channel import (ChannelSet, ScenarioConfig, free_space_gain,
                      sample_channel_set, sample_episodes, sample_ricean,
                      steering_vector)
from .cosyne import (EvoParams, Population, TrainResult, column_shuffle,
                     crossover, evaluate_fitness, evolve_generation,
                     init_population, mutate, permutation_probabilities, train)
from .harness import (ConfigError, ExperimentConfig, MetricRecord,
                      evaluate_genome, export_channel_trace, export_results,
                      import_channel_trace, load_config, run_experiment,
                      save_config, sweep)
from .multiris import (AggregatorConfig, OverheadRecord, agent_act,
                       aggregate_precoder, evaluate_fitness_multi,
                       message_accounting, rollout)
from .numerics import (conv2d_same, derive_rng, derive_seed, layer_norm,
                       make_rng, relu, sign_pm1, softmax_global)
from .policy import (ArchConfig, FFConfig, GenomeLayout, PolicyOutput,
                     attention_branch, cnn_forward, ff_forward, ff_forward_steps,
                     ff_inputs, ff_layout, forward, forward_steps, genome_layout,
                     load_genome, merge_branches, phase_head, precoder_head,
                     save_genome, select_index)
from .system import (LinkBudget, dbm_to_watt, dft_codebook, effective_channel,
                     evaluation_codebook, link_budget_from, phase_to_coefficient,
                     rate, snr)

__version__ = "0.1.0"
