"""Scenario configuration: flat ``key = value`` text files with dotted
section prefixes (model.a, numerics.dt, initial.kind, output.dir) plus
command-line overrides of the same dotted names."""

import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""


SOLVERS = ("spectral", "grid", "manifold", "planar2d", "exact", "asymptotic")
SCHEMES = ("euler", "rk4", "imex")
INITIAL_KINDS = ("homogeneous", "gaussian_bump", "gaussian", "cutoff")


def whole_steps(t_end: float, dt: float, name: str, t0: float = 0.0) -> int:
    """The number of steps of dt from t0 to t_end; ConfigError, naming the
    field name, unless dt and t_end - t0 are finite, dt > 0 and t_end - t0
    is a nonnegative whole number of steps (to 1e-9 relative, plus the
    rounding of t0 and t_end)."""
    if not 0 < dt < math.inf:
        raise ConfigError(f"numerics.dt: must be positive and finite, got {dt}")
    span = t_end - t0
    if not span >= 0:
        raise ConfigError(f"{name}: must be >= 0, got {span}")
    if span == math.inf:
        raise ConfigError(f"{name}: must be finite, got {span}")
    n_steps = round(span / dt)
    slack = 1e-9 * max(1, n_steps) + math.ulp(max(abs(t0), abs(t_end))) / dt
    if abs(span / dt - n_steps) > slack:
        raise ConfigError(f"{name}: {span} is not a whole number of steps of "
                          f"numerics.dt = {dt}")
    return n_steps


@dataclass
class ScenarioConfig:
    # model
    a: float = 1.0
    b0: float = 1.0
    kappa: float = 0.2
    gamma: float = 1.0
    R: float = 1.0
    D: float = 0.0
    k0: float = 0.0
    T: float = 10.0
    beta00: float = 1.0
    # solver
    solver: str = "grid"
    # numerics
    N: int = 512
    J: int = 10
    dt: float = 0.01
    t_end: float = 10.0
    scheme: str = "rk4"
    snapshot_times: tuple = ()
    # planar extras
    L: float = 3.0
    n2d: int = 128
    sigma: float = 0.1
    # initial condition
    initial_kind: str = "homogeneous"
    initial_width: float = 0.6
    initial_edge: float = 2.0
    # output
    outdir: str = "out"
    label: str = "run"

    def validate(self) -> "ScenarioConfig":
        def positive(name, value):
            if not value > 0:
                raise ConfigError(f"{name}: must be positive, got {value}")

        positive("model.a", self.a)
        positive("model.b0", self.b0)
        positive("model.gamma", self.gamma)
        positive("model.R", self.R)
        positive("model.T", self.T)
        positive("model.beta00", self.beta00)
        for name, value in (("model.kappa", self.kappa), ("model.D", self.D),
                            ("model.k0", self.k0)):
            if value < 0:
                raise ConfigError(f"{name}: must be nonnegative, got {value}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver: unknown solver {self.solver!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"numerics.scheme: unknown scheme {self.scheme!r}")
        if self.initial_kind not in INITIAL_KINDS:
            raise ConfigError(f"initial.kind: unknown kind {self.initial_kind!r}")
        # a snapshot is the state at the nearest step: off the step grid it
        # would be written under a time it does not hold
        whole_steps(self.t_end, self.dt, "numerics.t_end")
        for t in self.snapshot_times:
            whole_steps(t, self.dt, "numerics.snapshot_times")
        if self.N < 8:
            raise ConfigError(f"numerics.N: must be >= 8, got {self.N}")
        if self.J < 0:
            raise ConfigError(f"numerics.J: must be >= 0, got {self.J}")
        return self


# dotted config name -> dataclass attribute
KEY_MAP = {
    "model.a": "a", "model.b0": "b0", "model.kappa": "kappa",
    "model.gamma": "gamma", "model.R": "R", "model.D": "D",
    "model.k0": "k0", "model.T": "T", "model.beta00": "beta00",
    "solver": "solver",
    "numerics.N": "N", "numerics.J": "J", "numerics.dt": "dt",
    "numerics.t_end": "t_end", "numerics.scheme": "scheme",
    "numerics.snapshot_times": "snapshot_times",
    "numerics.L": "L", "numerics.n2d": "n2d", "numerics.sigma": "sigma",
    "initial.kind": "initial_kind", "initial.width": "initial_width",
    "initial.edge": "initial_edge",
    "output.dir": "outdir", "output.label": "label",
}

_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _coerce(attr: str, raw: str):
    raw = raw.strip()
    if attr == "snapshot_times":
        if not raw:
            return ()
        return tuple(float(v) for v in raw.split())
    kind = _TYPES[attr]
    if kind in (int, "int"):
        return int(raw)
    if kind in (float, "float"):
        return float(raw)
    return raw


def axis_value(key: str, value):
    """value, a number or its text, as the type of the numeric key key: an
    int for an integer key, which takes whole values only, else a float.
    ConfigError names the key otherwise."""
    attr = KEY_MAP.get(key.strip())
    if attr is None:
        raise ConfigError(f"{key}: unknown configuration key")
    kind = _TYPES[attr]
    if kind not in (int, "int", float, "float"):
        raise ConfigError(f"{key}: a sweep axis must be a numeric key")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from exc
    if kind in (float, "float"):
        return number
    if not number.is_integer():
        raise ConfigError(f"{key}: expected a whole number, got {value!r}")
    return int(number)


def apply_assignment(cfg: ScenarioConfig, key: str, value: str) -> None:
    key = key.strip()
    if key not in KEY_MAP:
        raise ConfigError(f"{key}: unknown configuration key")
    attr = KEY_MAP[key]
    try:
        setattr(cfg, attr, _coerce(attr, value))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from exc


def parse_config_text(text: str, base: ScenarioConfig = None) -> ScenarioConfig:
    cfg = base if base is not None else ScenarioConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        apply_assignment(cfg, key, value)
    return cfg


def apply_overrides(cfg: ScenarioConfig, overrides) -> ScenarioConfig:
    """Apply ``key=value`` override strings to cfg in order; returns cfg."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        apply_assignment(cfg, key, value)
    return cfg


def load_config(path, overrides=()) -> ScenarioConfig:
    """Parse a config file, apply ``key=value`` override strings, validate."""
    with open(path) as fh:
        return apply_overrides(parse_config_text(fh.read()), overrides).validate()


def resolved_items(cfg: ScenarioConfig) -> dict:
    """Dotted-key view of the full resolved configuration (for manifests)."""
    out = {}
    for key, attr in KEY_MAP.items():
        value = getattr(cfg, attr)
        if attr == "snapshot_times":
            value = list(value)
        out[key] = value
    return out
