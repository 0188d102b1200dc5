"""Tilt phase feedback controller for bipedal gait stabilization.

Rotation math in the tilt phase space, scalar and 2D filters and shaping
functions, a passive complementary attitude estimator, the
nine-corrective-action tilt phase controller, a surrogate tilt-dynamics
plant and a CLI test harness.
"""

__version__ = "0.1.0"
