"""Tilt phase feedback controller for bipedal gait stabilization.

Rotation math in the tilt phase space, scalar and 2D filters and shaping
functions, a passive complementary attitude estimator, the
nine-corrective-action tilt phase controller, a surrogate tilt-dynamics
plant and a CLI test harness.
"""

from tiltphase.rotation import (
    FusedAngles,
    Quat,
    TiltAngles,
    TiltPhase2D,
    TiltPhase3D,
    axis_rotation,
    fused_angles_from_quat,
    fused_yaw,
    quat_from_tilt_phase,
    remove_fused_yaw,
    tilt_phase_from_quat,
)

__version__ = "0.1.0"
