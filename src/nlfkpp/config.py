"""Scenario configuration: flat ``key = value`` text files with dotted
section prefixes (model.a, numerics.dt, initial.kind, output.dir) plus
command-line overrides of the same dotted names."""

import math
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""


SOLVERS = ("spectral", "grid", "manifold", "planar2d", "exact", "asymptotic")
SCHEMES = ("euler", "rk4", "imex")
INITIAL_KINDS = ("homogeneous", "gaussian_bump", "gaussian", "cutoff")
# the solvers that write snapshot_t<time>.csv files
SNAPSHOT_SOLVERS = ("spectral", "grid", "asymptotic")
# the solvers whose initial state model.beta00 alone sets: they take only
# the default initial.kind, homogeneous
FIXED_INITIAL_SOLVERS = ("planar2d", "exact")


def snapshot_name(t: float) -> str:
    """The file a snapshot solver writes the state at time t to."""
    return f"snapshot_t{t:g}.csv"


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


# A field's domain is a (wording, test) pair; validate raises "must be
# <wording>" for a value that fails the test, and "must be finite" for +inf.
POSITIVE = ("positive", lambda v: v > 0)
NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
NONEMPTY = ("non-empty", bool)


def at_least(n):
    return (f">= {n}", lambda v: v >= n)


def one_of(choices):
    return ("one of " + ", ".join(choices), lambda v: v in choices)


def setting(key: str, default, domain=None):
    """A ScenarioConfig field set by the dotted config key key; domain None
    admits any value."""
    return field(default=default, metadata={"key": key, "domain": domain})


@dataclass
class ScenarioConfig:
    # model
    a: float = setting("model.a", 1.0, POSITIVE)
    b0: float = setting("model.b0", 1.0, POSITIVE)
    kappa: float = setting("model.kappa", 0.2, NONNEGATIVE)
    gamma: float = setting("model.gamma", 1.0, POSITIVE)
    R: float = setting("model.R", 1.0, POSITIVE)
    D: float = setting("model.D", 0.0, NONNEGATIVE)
    k0: float = setting("model.k0", 0.0, NONNEGATIVE)
    T: float = setting("model.T", 10.0, POSITIVE)
    beta00: float = setting("model.beta00", 1.0, POSITIVE)
    # solver
    solver: str = setting("solver", "grid", one_of(SOLVERS))
    # numerics
    N: int = setting("numerics.N", 512, at_least(8))
    J: int = setting("numerics.J", 10, at_least(0))
    dt: float = setting("numerics.dt", 0.01, POSITIVE)
    t_end: float = setting("numerics.t_end", 10.0, at_least(0))
    scheme: str = setting("numerics.scheme", "rk4", one_of(SCHEMES))
    snapshot_times: tuple = setting("numerics.snapshot_times", (), at_least(0))
    # the planar field: dx = 2L / (n2d - 1) and a ring of width sigma
    L: float = setting("numerics.L", 3.0, POSITIVE)
    n2d: int = setting("numerics.n2d", 128, at_least(2))
    sigma: float = setting("numerics.sigma", 0.1, POSITIVE)
    # initial condition
    initial_kind: str = setting("initial.kind", "homogeneous",
                                one_of(INITIAL_KINDS))
    initial_width: float = setting("initial.width", 0.6, POSITIVE)
    initial_edge: float = setting("initial.edge", 2.0, POSITIVE)
    # output
    outdir: str = setting("output.dir", "out", NONEMPTY)
    label: str = setting("output.label", "run")

    def validate(self) -> "ScenarioConfig":
        """self, when each field lies in its domain, in declaration order,
        and the cross-key rules hold; else ConfigError naming the key."""
        for key, f in _FIELDS.items():
            value, domain = getattr(self, f.name), f.metadata["domain"]
            for v in value if f.type is tuple else (value,):
                if domain and not domain[1](v):
                    raise ConfigError(f"{key}: must be {domain[0]}, got {v!r}")
                if v == math.inf:
                    raise ConfigError(f"{key}: must be finite, got {v!r}")
        whole_steps(self.t_end, self.dt, "numerics.t_end")
        if (self.solver in FIXED_INITIAL_SOLVERS
                and self.initial_kind != "homogeneous"):
            raise ConfigError(
                f"initial.kind: the {self.solver} solver ignores it and takes "
                f"only 'homogeneous', got {self.initial_kind!r}")
        if self.solver in SNAPSHOT_SOLVERS:
            # a snapshot is the state at the nearest step: off the step grid
            # it would be written under a time it does not hold
            for t in self.snapshot_times:
                whole_steps(t, self.dt, "numerics.snapshot_times")
            seen = {}
            for t in self.written_snapshot_times():
                name = snapshot_name(t)
                if name in seen:
                    raise ConfigError(
                        f"numerics.snapshot_times: times {seen[name]!r} and "
                        f"{t!r} both write to {name!r}; give times that "
                        f"differ in 6 significant digits")
                seen[name] = t
        return self

    def written_snapshot_times(self) -> list:
        """The times a snapshot solver writes: the requested ones up to
        t_end, plus t_end, in order; the times past t_end are dropped."""
        return sorted({t for t in self.snapshot_times if t <= self.t_end}
                      | {self.t_end})


_FIELDS = {f.metadata["key"]: f for f in fields(ScenarioConfig)}
# dotted config name -> dataclass attribute
KEY_MAP = {key: f.name for key, f in _FIELDS.items()}


def _parse(key: str, value):
    """value, a number or its text, as the type of the field of key: an int
    for an integer key, which takes whole values only, a float, a tuple of
    floats from space-separated text, or the text.  ConfigError names the
    key otherwise."""
    if key not in _FIELDS:
        raise ConfigError(f"{key}: unknown configuration key")
    kind = _FIELDS[key].type
    try:
        if kind is str:
            return value
        if kind is tuple:
            return tuple(float(v) for v in value.split())
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from exc
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{key}: expected a whole number, got {value!r}")
    return int(number)


def axis_value(key: str, value):
    """value, a number or its text, as the type of the numeric key key (see
    _parse); ConfigError names the key otherwise."""
    key = key.strip()
    if key in _FIELDS and _FIELDS[key].type not in (int, float):
        raise ConfigError(f"{key}: a sweep axis must be a numeric key")
    return _parse(key, value)


def apply_assignment(cfg: ScenarioConfig, key: str, value: str) -> None:
    key = key.strip()
    value = _parse(key, value.strip())
    setattr(cfg, KEY_MAP[key], value)


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
    return {key: getattr(cfg, attr) for key, attr in KEY_MAP.items()}
