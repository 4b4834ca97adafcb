"""Benchmark instance profiles (Table 2), scaled for a pure-Python stack.

The paper's profiles are L0/L3/L9/L20 (large instances with 0/3/9/20 % of
transcripts suspect) and S3/M3/L3/F3 (sizes an order of magnitude apart at
~3 % suspect).  The paper's absolute sizes (3.5k – 1.8M source tuples) are
scaled down by a constant factor because every component here — chase,
grounder, solver — is pure Python; the *ratios* between profiles (10× size
steps, the same suspect rates) are preserved, which is what the evaluation's
trends are about.  EXPERIMENTS.md records the scale factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.genomics.generator import (
    GeneratedInstance,
    GenomeDataGenerator,
    GeneratorConfig,
)

#: Transcripts in the "large" profile.  The paper's L has ~33k transcripts
#: (322k source tuples at ~9.7 tuples/transcript); ours defaults to 100 —
#: a ~330× scale-down so the pure-Python monolithic baseline stays runnable.
LARGE_TRANSCRIPTS = 100


@dataclass(frozen=True)
class InstanceProfile:
    """A named benchmark profile: size plus suspect-transcript rate."""

    name: str
    transcripts: int
    suspect_fraction: float
    seed: int = 7

    def config(self) -> GeneratorConfig:
        return GeneratorConfig(
            transcripts=self.transcripts,
            suspect_fraction=self.suspect_fraction,
            seed=self.seed,
        )


INSTANCE_PROFILES: dict[str, InstanceProfile] = {
    # Suspect-rate sweep at the large size (Figure 3/4 left plots).
    "L0": InstanceProfile("L0", LARGE_TRANSCRIPTS, 0.00),
    "L3": InstanceProfile("L3", LARGE_TRANSCRIPTS, 0.03),
    "L9": InstanceProfile("L9", LARGE_TRANSCRIPTS, 0.09),
    "L20": InstanceProfile("L20", LARGE_TRANSCRIPTS, 0.20),
    # Size sweep at ~3 % suspect (Figure 3/4 right plots).  The paper steps
    # 10× per size; pure Python forces gentler ~2–3× steps so that the
    # monolithic baseline remains runnable end-to-end.  S3 is sized so it
    # still contains at least one conflicted transcript at 3 %.
    "S3": InstanceProfile("S3", 18, 0.06),
    "M3": InstanceProfile("M3", 40, 0.03),
    # L3 doubles as the third size step.
    "F3": InstanceProfile("F3", 320, 0.029),
}

#: Transcript counts of the scenario size letters (matching the S3/M3/L3
#: profiles above); ``parse_scenario_name`` pairs one with a suspect
#: percent, e.g. ``"M9"``.
SCENARIO_SIZES: dict[str, int] = {"S": 18, "M": 40, "L": 100}

#: Paper ordering for the two experiment families.
SUSPECT_SWEEP = ("L0", "L3", "L9", "L20")
SIZE_SWEEP = ("S3", "M3", "L3", "F3")


def build_instance(profile: str | InstanceProfile) -> GeneratedInstance:
    """Materialize a profile into a generated source instance."""
    if isinstance(profile, str):
        profile = INSTANCE_PROFILES[profile]
    return GenomeDataGenerator(profile.config()).generate()


def parse_scenario_name(name: str) -> InstanceProfile:
    """Turn ``"M9"`` (size letter + suspect percent) into its profile.

    Raises ``ValueError`` naming what is wrong with ``name``.
    """
    size, percent = name[:1].upper(), name[1:]
    if size not in SCENARIO_SIZES:
        raise ValueError(
            f"unknown size {size!r} in scenario {name!r}; choose from "
            f"{sorted(SCENARIO_SIZES)}"
        )
    if not (percent.isdigit() and int(percent) <= 100):
        raise ValueError(
            f"bad scenario name {name!r}; expected a size letter and a "
            "suspect percent 0-100, e.g. 'M9'"
        )
    return InstanceProfile(name, SCENARIO_SIZES[size], int(percent) / 100.0)
