"""Run and sweep configuration: one strict JSON document per invocation.

Unknown keys are errors (silent typos poison long sweeps), every numeric field
is range-checked, and exactly one data profile must be selected.  Dotted-path
overrides from the command line are applied to the raw document before
validation so they obey the same rules.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

# CPython's built-in SHA-256, the module hashlib itself falls back to: the same
# digest without loading OpenSSL's libcrypto (3.3 MB resident) into every command
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256      # builds without the built-in modules

from .profiles import RadialProfile, bump_profile, zero_profile
from .solver import (DEFAULT_BLOWUP_THRESHOLD, DEFAULT_DIVERGENCE_FACTOR,
                     CharGrid, Problem, _is_number)

__all__ = ["ConfigError", "RunConfig", "SweepConfig", "apply_overrides", "config_hash"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _require_keys(d, allowed, required, path):
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown key: {path + '.' if path else ''}{k}")
    for k in required:
        if k not in d:
            raise ConfigError(f"missing key: {path + '.' if path else ''}{k}")


def _number(d, key, path, default=None, positive=False, nonneg=False):
    name = f"{path}.{key}" if path else key
    if key not in d:
        if default is None:
            raise ConfigError(f"missing key: {name}")
        return default
    v = d[key]
    if not _is_number(v):
        raise ConfigError(f"{name}: expected a finite number")
    v = float(v)
    if positive and v <= 0:
        raise ConfigError(f"{name}: must be positive")
    if nonneg and v < 0:
        raise ConfigError(f"{name}: must be nonnegative")
    return v


@dataclass(frozen=True)
class DataSpec:
    profile: str
    rho: float
    amplitude: float = 0.0
    f_csv: Optional[str] = None
    g_csv: Optional[str] = None

    def build_profiles(self, grid_r):
        if self.profile == "bump":
            return (zero_profile(self.rho, grid_r),
                    bump_profile(self.amplitude, self.rho, grid_r))
        profiles = []
        for key, path in (("f_csv", self.f_csv), ("g_csv", self.g_csv)):
            try:
                profiles.append(RadialProfile.from_csv(path, self.rho) if path
                                else zero_profile(self.rho, grid_r))
            except FileNotFoundError:
                raise
            except (OSError, ValueError) as exc:    # an unreadable or malformed file
                raise ConfigError(f"problem.data.{key}: {path}: {exc}") from None
        return tuple(profiles)


@dataclass(frozen=True)
class RunConfig:
    p: float
    A: float
    data: DataSpec
    h: float
    t_max: float
    blowup_threshold: float
    divergence_factor: float
    t2: Optional[float]
    delta: Optional[float]
    epsilon: Optional[float]
    output_dir: str
    raw: dict = field(compare=False, default_factory=dict)

    def build_grid(self) -> CharGrid:
        r_max = self.data.rho + self.t_max
        # snap extents onto the lattice, never shrinking the influence domain
        n_r = int(math.ceil(r_max / self.h - 1e-9))
        n_t = int(math.ceil(self.t_max / self.h - 1e-9))
        return CharGrid(self.h, n_r * self.h, n_t * self.h)

    def build_problem(self, grid: CharGrid) -> Problem:
        f, g = self.data.build_profiles(grid.r_values())
        return Problem(self.p, self.A, f, g)


def _parse_data(d, path):
    _require_keys(d, {"profile", "amplitude", "rho", "f_csv", "g_csv"}, {"profile", "rho"}, path)
    profile = d["profile"]
    if profile not in ("bump", "custom-csv"):
        raise ConfigError(f"{path}.profile: must be 'bump' or 'custom-csv'")
    rho = _number(d, "rho", path, positive=True)
    if profile == "bump":
        for k in ("f_csv", "g_csv"):
            if k in d:
                raise ConfigError(f"unknown key: {path}.{k} (only valid for custom-csv)")
        amp = _number(d, "amplitude", path)
        return DataSpec("bump", rho, amplitude=amp)
    if "amplitude" in d:
        raise ConfigError(f"unknown key: {path}.amplitude (only valid for bump)")
    f_csv = d.get("f_csv")
    g_csv = d.get("g_csv")
    for k, v in (("f_csv", f_csv), ("g_csv", g_csv)):
        if v is not None and not isinstance(v, str):
            raise ConfigError(f"{path}.{k}: expected a path string")
    if f_csv is None and g_csv is None:
        raise ConfigError(f"{path}: custom-csv needs f_csv and/or g_csv")
    return DataSpec("custom-csv", rho, f_csv=f_csv, g_csv=g_csv)


def parse_run_config(doc: dict) -> RunConfig:
    _require_keys(doc, {"problem", "grid", "solver", "diagnostics", "output_dir"},
                  {"problem", "grid"}, "")
    prob = doc["problem"]
    _require_keys(prob, {"p", "A", "data"}, {"p", "data"}, "problem")
    p = _number(prob, "p", "problem")
    if p <= 1:
        raise ConfigError("problem.p: must exceed 1")
    A = _number(prob, "A", "problem", default=1.0, positive=True)
    data = _parse_data(prob["data"], "problem.data")

    grid = doc["grid"]
    _require_keys(grid, {"h", "t_max"}, {"t_max"}, "grid")
    t_max = _number(grid, "t_max", "grid", positive=True)
    h = _number(grid, "h", "grid", default=data.rho / 128.0, positive=True)

    solver = doc.get("solver", {})
    _require_keys(solver, {"blowup_threshold", "divergence_factor"}, set(), "solver")
    threshold = _number(solver, "blowup_threshold", "solver",
                        default=DEFAULT_BLOWUP_THRESHOLD, positive=True)
    div = _number(solver, "divergence_factor", "solver",
                  default=DEFAULT_DIVERGENCE_FACTOR, positive=True)

    diag = doc.get("diagnostics", {})
    _require_keys(diag, {"t2", "delta", "epsilon"}, set(), "diagnostics")
    t2 = None if diag.get("t2") is None else _number(diag, "t2", "diagnostics", nonneg=True)
    delta = None if diag.get("delta") is None else _number(diag, "delta", "diagnostics", positive=True)
    epsilon = None if diag.get("epsilon") is None else _number(diag, "epsilon", "diagnostics", positive=True)

    out = doc.get("output_dir", "runs")
    if not isinstance(out, str):
        raise ConfigError("output_dir: expected a path string")
    return RunConfig(p, A, data, h, t_max, threshold, div, t2, delta, epsilon, out,
                     raw=doc)


@dataclass(frozen=True)
class SweepConfig:
    p_values: tuple
    amplitudes: tuple
    parallel_jobs: int
    base: RunConfig


def parse_sweep_config(doc: dict) -> SweepConfig:
    _require_keys(doc, {"p_values", "amplitudes", "parallel_jobs", "base"},
                  {"p_values", "amplitudes", "base"}, "")
    ps = doc["p_values"]
    amps = doc["amplitudes"]
    for name, xs in (("p_values", ps), ("amplitudes", amps)):
        if not isinstance(xs, list) or not xs:
            raise ConfigError(f"{name}: expected a nonempty list")
        if not all(map(_is_number, xs)):
            raise ConfigError(f"{name}: expected finite numbers")
    if any(x <= 1 for x in ps):
        raise ConfigError("p_values: every exponent must exceed 1")
    jobs = doc.get("parallel_jobs", 1)
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError("parallel_jobs: expected a positive integer")
    base_doc = json.loads(json.dumps(doc["base"]))
    base_doc.setdefault("problem", {})
    base_doc["problem"].setdefault("p", float(ps[0]))  # rows override per cell
    base = parse_run_config(base_doc)
    if base.data.profile != "bump":
        raise ConfigError("base.problem.data.profile: sweeps need the bump family")
    return SweepConfig(tuple(float(x) for x in ps), tuple(float(x) for x in amps),
                       jobs, base)


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply dotted-path key=value overrides to a raw config document."""
    doc = json.loads(json.dumps(doc))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}': expected key=value")
        key, _, raw_val = item.partition("=")
        try:
            value = json.loads(raw_val)
        except json.JSONDecodeError:
            value = raw_val
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return doc


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file unreadable: {path}: {exc}")


def config_hash(doc: dict) -> str:
    return sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
