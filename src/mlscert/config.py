"""Tolerance configuration shared by the certification checks."""

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    """Numerical slacks used by the certified checks.

    All inequality checks are scale-aware: a check passes when
    ``lhs <= rhs + tol * scale`` with the scale documented per check.
    Setting a tolerance to 0 turns roundoff into reported failures, which is
    occasionally useful to see the raw residual floor.
    """

    lin: float = 1e-9          # linear-algebra identities (reproduction, unity)
    symmetry: float = 1e-10    # relative asymmetry of the scaled operators
    eig_dev: float = 1e-8      # eigenvalue distance from its cluster center
    psd: float = 1e-10         # PSD margin, relative to the scaling-matrix norm
    ineq: float = 1e-12        # single-product inequality slack, scaled
    norm_chain: float = 1e-10  # two-sided norm-chain slack, scaled
    idem: float = 1e-9         # projector idempotence residual
    bound: float = 1e-9        # growth-certificate slack, absolute
    cluster_fail: float = 0.5  # deviation that flags a structural failure

    def with_overrides(self, overrides: dict) -> "Tolerances":
        """Copy with ``key=value`` overrides; unknown keys and values that
        are negative or not finite raise."""
        valid = {f.name for f in fields(self)}
        bad = set(overrides) - valid
        if bad:
            raise ValueError(f"unknown tolerance keys: {sorted(bad)}")
        values = {k: float(v) for k, v in overrides.items()}
        for key, value in values.items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {key} must be finite and >= 0, got {value!r}")
        return replace(self, **values)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
