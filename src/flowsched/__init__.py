"""Learned per-step diffusion-time schedules on flow-matching toy problems.

A small Beta-policy network predicts, at every denoising step, the factor by
which the diffusion time shrinks; it is trained with trajectory-level PPO
against a discounted terminal reward so that sample quality is bought with as
few steps as necessary.
"""

from .config import ExperimentConfig, preset_config
from .flow import (TargetSpec, VelocityField, interpolate, oracle_velocity,
                   ring_mixture_target, single_gaussian_target,
                   standard_normal_target, train_flow)
from .nn import DenseNet, OptimizerState, adamw_step, clip_global_norm
from .policy import TimePolicy, init_policy, next_time, predict_decay
from .rl import (RLConfig, Rollouts, discounted_reward, ppo_loss, rloo_advantages,
                 toy_reward, train_tpm, traj_log_prob)
from .rng import RngStream
from .sampler import (ScheduleConfig, Trajectory, quantize_times, roll_lanes,
                      sample_adaptive, sample_fixed)
from .special_math import (BetaParams, beta_kl, beta_log_pdf, beta_sample,
                           digamma, log_gamma)

__version__ = "0.1.0"
