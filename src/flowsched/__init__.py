"""Learned per-step diffusion-time schedules on flow-matching toy problems.

A small Beta-policy network predicts, at every denoising step, the factor by
which the diffusion time shrinks; it is trained with trajectory-level PPO
against a discounted terminal reward so that sample quality is bought with as
few steps as necessary.
"""

__version__ = "0.1.0"
