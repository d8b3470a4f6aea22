"""Built-in run configurations for the two reference coefficient sets,
including the published table values they are audited against.

The coefficient formulas are carried verbatim, and every option or analysis
switch a preset leaves out takes its config-schema default; ``table_bounds``
holds the hand-entered sup/inf values and ``paper_values`` every published
quantity (that table, then the permanence box and the liminf values), so a
report can diff the published numbers against recomputed ones.

Note the second preset's prey growth rate really does add the same cosine
term twice; that is how the source system is written.

Preset example1 pins ``beta_denominator`` to "M1": with the displayed
denominator (M2) the recomputed liminf of beta is negative, while the
derivation variant reproduces both the published value (~0.012) and the
published conclusion.  Reports carry both variants either way.
"""

from __future__ import annotations

__all__ = ["PRESET_NAMES", "preset_config"]

PRESET_NAMES = ("example1", "example2")

# each preset's published sup/inf table: its table_bounds, and the head of its paper_values
_TABLE1 = {
    "a1_inf": 0.04, "a1_sup": 0.29,
    "a2_inf": 0.01, "a2_sup": 0.26,
    "b_inf": 2.6, "b_sup": 3.1,
    "c1_inf": 3.2, "c1_sup": 3.2,
    "c2_inf": 3.5, "c2_sup": 3.5,
    "k1_inf": 17.0, "k1_sup": 17.0,
    "k2_inf": 3.4, "k2_sup": 3.4,
    "tau1_sup": 0.75, "tau2_sup": 0.75,
    "sigma1_sup": 0.75, "sigma2_sup": 0.75,
}

_EXAMPLE1 = {
    "model": {
        "a1": "0.04 + 0.125*abs(cos(sqrt(2)*t)) + 0.125*exp(-t)",
        "b": "2.6 + 0.5*cos(t)",
        "c1": "3.2",
        "k1": "17",
        "a2": "0.01 + 0.25*abs(sin(sqrt(7)*t))",
        "c2": "3.5",
        "k2": "3.4",
        "tau1": "0.75",
        "tau2": "0.75",
        "sigma1": "0.75",
        "sigma2": "0.75",
    },
    "history": {"phi1": 0.5, "phi2": 0.5},
    "run": {"t0": 0.0, "t_end": 200.0, "h": 0.01, "t_settle": 100.0},
    "options": {"beta_denominator": "M1"},
    "table_bounds": _TABLE1,
    "paper_values": {
        **_TABLE1,
        "M1": 0.7085, "m1": 0.0, "M2": 0.6506, "m2": 0.0829,
        "alpha_inf": 2.4, "beta_inf": 0.012,
    },
}

_TABLE2 = {
    "a1_inf": 4.8, "a1_sup": 5.05,
    "a2_inf": 0.03, "a2_sup": 0.28,
    "b_inf": 8.1, "b_sup": 8.6,
    "c1_inf": 0.32, "c1_sup": 0.32,
    "c2_inf": 3.6, "c2_sup": 3.6,
    "k1_inf": 16.7, "k1_sup": 16.7,
    "k2_inf": 5.7, "k2_sup": 5.7,
    "tau1_sup": 0.92, "tau2_sup": 0.92,
    "sigma1_sup": 0.92, "sigma2_sup": 0.92,
}

_EXAMPLE2 = {
    "model": {
        "a1": "4.8 + 0.125*(abs(cos(sqrt(2)*t)) + abs(cos(sqrt(2)*t)))",
        "b": "0.25*abs(cos(t)) + (33.72 + 32.72*t^2)/(4 + 4*t^2)",
        "c1": "0.32",
        "k1": "16.7",
        "a2": "0.03 + 0.125*(abs(sin(sqrt(2)*t)) + abs(cos(sqrt(5)*t)))",
        "c2": "3.6",
        "k2": "5.7",
        "tau1": "0.92",
        "tau2": "0.92",
        "sigma1": "0.92",
        "sigma2": "0.92",
    },
    "history": {"phi1": 0.5, "phi2": 0.5},
    "run": {"t0": 0.0, "t_end": 200.0, "h": 0.01, "t_settle": 100.0},
    "table_bounds": _TABLE2,
    "paper_values": {
        **_TABLE2,
        "M1": 0.6226, "m1": 0.5567, "M2": 0.6403, "m2": 0.0408,
        "alpha_inf": 7.25, "beta_inf": 0.009,
    },
}

_PRESETS = {"example1": _EXAMPLE1, "example2": _EXAMPLE2}


def preset_config(name: str) -> dict:
    """The named preset's config as load_config checks it, every default filled
    in: a new dict on each call, and what a run of it echoes as report["config"]."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    from .cli import load_config  # cli imports this module
    return load_config(_PRESETS[name])
