"""Experiment configuration: dimensions, entry laws, tau weight sequences and
sweep plans, and the one reader of the JSON documents that state them.

Everything here is immutable and pure. A ModelParams is validated once, at
construction (``dataclasses.replace`` re-runs the checks), and building the
same configuration twice yields equal objects, so configs can be shared
freely.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

MAX_AMBIENT_DIM = 2**53  # largest integer that round-trips through a float64
REGIME_FOLD_RATIO = 0.5  # k/n above this is flagged as outside the thin-fold regime
MAX_REPLICAS = 2**20  # replicas per point; also the sphere's key offset (see tensormp.sampling)
MAX_SAMPLE_COUNT = 2**13  # desk scale: a complex Gram at this m is 1 GiB


class ModelKind(str, enum.Enum):
    """Which normalization the rank-1 sum uses."""

    CORRELATION = "correlation"  # every sample vector rescaled to unit length
    COVARIANCE = "covariance"  # global 1/n^k rescaling (Wishart-type)


class EntryLaw(str, enum.Enum):
    """Law of a single base-vector entry: centered, unit second absolute moment.

    ``m4`` is the fourth absolute moment E|xi|^4. ``unit_modulus`` is True
    exactly for the laws with |xi| = 1 almost surely, which force every level
    norm to equal n and make the correlation and covariance constructions
    coincide; given E|xi|^2 = 1, those are the laws with m4 = 1.
    """

    COMPLEX_GAUSSIAN = "complex_gaussian", 2.0
    REAL_GAUSSIAN = "real_gaussian", 3.0
    RADEMACHER = "rademacher", 1.0
    UNIT_CIRCLE = "unit_circle", 1.0

    def __new__(cls, value: str, m4: float):
        law = str.__new__(cls, value)
        law._value_ = value
        law.m4 = m4
        return law

    @property
    def unit_modulus(self) -> bool:
        return self.m4 == 1.0

    @property
    def real_valued(self) -> bool:
        return self in (EntryLaw.REAL_GAUSSIAN, EntryLaw.RADEMACHER)


@dataclass(frozen=True, eq=False)
class TauScheme:
    """A materialized sequence of positive weights, one per sample vector,
    held as one read-only float64 array (a copy of the values given).

    ``two_point`` keeps the generating (a, b, weight) triple of a two-point
    scheme built by :func:`make_tau`, so serialization round-trips exactly;
    tau_to_json reads the document's kind off the weights and that triple.
    Schemes compare and hash by their weights alone: two with the same
    weights draw the same samples, whatever triple either carries.
    """

    values: np.ndarray
    two_point: tuple[float, float, float] | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or not values.size:
            raise ValueError("tau sequence must be a non-empty 1-d sequence")
        if not np.all((values > 0) & (values < np.inf)):  # phrased so that a NaN fails
            raise ValueError("all tau values must be positive and finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, TauScheme):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(self.values.tobytes())

    def __reduce__(self):  # a copied or unpickled scheme is rebuilt, so its weights stay read-only
        return TauScheme, (self.values, self.two_point)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_constant_one(self) -> bool:
        return bool(np.all(self.values == 1.0))


_TAU_KEYS = {
    "constant_one": ("kind",),
    "two_point": ("kind", "a", "b", "weight"),
    "explicit": ("kind", "values"),
}


def _check_keys(doc, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Raise ValueError naming the keys of a JSON object that are missing
    from ``required`` or documented in neither tuple, so that a misspelt key
    is an error rather than a silent default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{what} lacks the required key(s) {', '.join(map(repr, missing))}")
    unknown = [key for key in doc if key not in required and key not in optional]
    if unknown:
        known = ", ".join(map(repr, required + optional))
        raise ValueError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}; known: {known}")


_KIND_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers")}


def _is_json_number(value, kind: type) -> bool:
    """A number that is not a bool; for kind int, one without a fraction."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return kind is float or isinstance(value, numbers.Integral) or float(value).is_integer()


def _json_number(doc: dict, key: str, what: str, kind: type = float, default=None):
    """doc[key] (default when absent) as kind, int or float; a value of another
    JSON type raises ValueError naming the key, where int() or float() would
    raise TypeError or accept a string."""
    value = doc.get(key, default)
    if not _is_json_number(value, kind):
        raise ValueError(f"{what} key {key!r} must be {_KIND_NAMES[kind][0]}, got {value!r}")
    return kind(value)


def _json_numbers(doc: dict, key: str, what: str, kind: type = float) -> list:
    """doc[key], a list of numbers, as a list of kind, under _json_number's rule."""
    values = doc[key]
    if not isinstance(values, (list, tuple)) or not all(_is_json_number(v, kind) for v in values):
        raise ValueError(f"{what} key {key!r} must be a list of {_KIND_NAMES[kind][1]}, got {values!r}")
    return [kind(v) for v in values]


def _kind(doc: dict, what: str, kinds: dict[str, tuple[str, ...]]) -> str:
    """doc["kind"], once doc has only keys some kind names, "kind" names one
    of kinds and doc has exactly that kind's keys; any other value, a list or
    an object included, raises ValueError naming the key and the known kinds."""
    named = (key for keys in kinds.values() for key in keys if key != "kind")
    _check_keys(doc, what, ("kind",), tuple(dict.fromkeys(named)))
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in kinds:  # `in` would raise TypeError on a list
        raise ValueError(f"{what} key 'kind' must be one of {', '.join(map(repr, kinds))}, got {kind!r}")
    _check_keys(doc, f"{kind} {what}", kinds[kind])
    return kind


def make_tau(scheme, m: int) -> TauScheme:
    """Materialize a tau document to a scheme of length m.

    Accepted forms: ``"constant_one"``, ``{"kind": "constant_one"}``,
    ``{"kind": "two_point", "a": .., "b": .., "weight": ..}``, and
    ``{"kind": "explicit", "values": [..]}`` (values must have length m).
    The two-point fill is deterministic on purpose: the first
    floor(weight*m) weights equal a and the rest b, so no randomness enters
    the weights and their empirical moments are exact rational functions of
    (a, b, weight).
    """
    if m < 1:
        raise ValueError("tau length must be at least 1")
    if isinstance(scheme, str):
        scheme = {"kind": scheme}
    kind = _kind(scheme, "tau", _TAU_KEYS)
    if kind == "constant_one":
        return TauScheme(np.ones(m))
    if kind == "two_point":
        a, b, weight = (_json_number(scheme, key, "two_point tau") for key in ("a", "b", "weight"))
        # phrased so that a NaN fails: a value with an empty share reaches no TauScheme check
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError("two-point values must be positive and finite")
        if not 0.0 < weight < 1.0:
            raise ValueError("two-point weight must lie in (0, 1)")
        values = np.full(m, b)
        values[: math.floor(weight * m)] = a
        return TauScheme(values, two_point=(a, b, weight))
    values = _json_numbers(scheme, "values", "explicit tau")
    if len(values) != m:
        raise ValueError(f"explicit tau has length {len(values)}, expected {m}")
    return TauScheme(values)


def ambient_dim(n: int, k: int) -> int:
    """n^k in exact integer arithmetic, capped so the value survives a float64;
    n >= 2 makes n^k >= 2^k, so a k above 53 fails before the power is taken."""
    if n < 2:
        raise ValueError("base dimension n must be at least 2")
    if k < 1:
        raise ValueError("tensor fold k must be at least 1")
    if k > 53 or (dim := n**k) > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {n}^{k} exceeds 2^53")
    return dim


def sample_count(c: float, dim: int) -> int:
    """Deterministic rounding m = floor(c*N + 0.5) of the target ratio; the
    rounding is done in float64, so c*N + 0.5 must stay below 2^53 as N does,
    and m must be at least 1 and at most MAX_SAMPLE_COUNT."""
    if not (c > 0 and math.isfinite(c)):
        raise ValueError("target ratio c must be positive and finite")
    scaled = c * dim + 0.5
    if not scaled < MAX_AMBIENT_DIM:
        raise ValueError(f"sample count c*N + 0.5 = {scaled:g} is not below 2^53")
    m = int(math.floor(scaled))
    if m < 1:
        raise ValueError("sample count rounds to zero; increase c or the dimensions")
    if m > MAX_SAMPLE_COUNT:
        raise ValueError(f"sample count m = {m} exceeds the desk-scale bound 2^13 = {MAX_SAMPLE_COUNT}")
    return m


@dataclass(frozen=True)
class ModelParams:
    """Full configuration of one experiment point, checked once here: n, k,
    seed and replicas are integers, the model and the entry law are members
    of ModelKind and EntryLaw (the pipeline dispatches on them by identity),
    n^k fits a float64 exactly, m rounds to between 1 and MAX_SAMPLE_COUNT,
    tau is a TauScheme of length m, and the seed and replica count are in
    range."""

    n: int
    k: int
    c: float
    model: ModelKind
    entry_law: EntryLaw
    tau: TauScheme
    seed: int
    replicas: int

    def __post_init__(self):
        for name in ("n", "k", "seed", "replicas"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"ModelParams field {name!r} must be an integer, got {value!r}")
        if not isinstance(self.model, ModelKind):
            raise ValueError(f"ModelParams field 'model' must be a ModelKind, got {self.model!r}")
        if not isinstance(self.entry_law, EntryLaw):
            raise ValueError(f"ModelParams field 'entry_law' must be an EntryLaw, got {self.entry_law!r}")
        if not isinstance(self.tau, TauScheme):
            raise ValueError(f"ModelParams field 'tau' must be a TauScheme, got {self.tau!r}")
        dim = ambient_dim(self.n, self.k)
        m = sample_count(self.c, dim)
        if len(self.tau) != m:
            raise ValueError(f"tau scheme has length {len(self.tau)}, expected m={m}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 1 <= self.replicas <= MAX_REPLICAS:
            raise ValueError(f"replicas must be at least 1 and at most 2^20 = {MAX_REPLICAS}, got {self.replicas}")

    @property
    def ambient_dim(self) -> int:
        return ambient_dim(self.n, self.k)

    @property
    def sample_count(self) -> int:
        return sample_count(self.c, self.ambient_dim)

    @property
    def fold_ratio(self) -> float:
        return self.k / self.n

    @property
    def outside_regime(self) -> bool:
        """k/n > 0.5 is a warning flag, not an error: the limit theory assumes
        the fold grows slower than the base dimension, but small-k desk runs
        are still perfectly computable."""
        return self.fold_ratio > REGIME_FOLD_RATIO


def make_params(
    n: int,
    k: int,
    c: float,
    *,
    model: ModelKind | str = ModelKind.CORRELATION,
    entry_law: EntryLaw | str = EntryLaw.COMPLEX_GAUSSIAN,
    tau="constant_one",
    seed: int = 0,
    replicas: int = 1,
) -> ModelParams:
    """Build a ModelParams with the tau sequence materialized to length m,
    once m is checked: a point past the desk-scale bound builds no tau.

    The keywords are the keys of a point document (params_from_json), and
    these defaults are the defaults of its optional keys."""
    dim = ambient_dim(n, k)
    m = sample_count(c, dim)
    return ModelParams(
        n=n,
        k=k,
        c=float(c),
        model=ModelKind(model),
        entry_law=EntryLaw(entry_law),
        tau=make_tau(tau, m),
        seed=seed,
        replicas=replicas,
    )


def tau_to_json(tau: TauScheme) -> dict:
    """The tau document of a scheme: two_point where it keeps its triple,
    constant_one where every weight is 1, and explicit otherwise."""
    if tau.two_point is not None:
        a, b, weight = tau.two_point
        return {"kind": "two_point", "a": a, "b": b, "weight": weight}
    if tau.is_constant_one:
        return {"kind": "constant_one"}
    return {"kind": "explicit", "values": tau.values.tolist()}


def params_to_json(params: ModelParams) -> dict:
    """JSON document with all enums serialized as lowercase strings."""
    return {
        "n": params.n,
        "k": params.k,
        "c": params.c,
        "model": params.model.value,
        "entry_law": params.entry_law.value,
        "tau": tau_to_json(params.tau),
        "seed": params.seed,
        "replicas": params.replicas,
    }


_POINT_NUMBERS = {"n": int, "k": int, "c": float, "seed": int, "replicas": int}


def params_from_json(doc: dict) -> ModelParams:
    """The inverse of params_to_json; n, k and c are required, and any key
    it does not write, or a value of the wrong JSON type, raises ValueError.
    The keys are make_params' keywords, and its signature holds the defaults."""
    what = "point config"
    _check_keys(doc, what, ("n", "k", "c"), ("model", "entry_law", "tau", "seed", "replicas"))
    numbers = {key: _json_number(doc, key, what, kind) for key, kind in _POINT_NUMBERS.items() if key in doc}
    return make_params(**{**doc, **numbers})


@dataclass(frozen=True)
class SweepPlan:
    """The points of a sweep; each point runs its own ``replicas``."""

    points: tuple[ModelParams, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("a sweep needs at least one point")
        # two points that differ only in their replicas field draw the same samples
        if len({replace(p, replicas=1) for p in self.points}) != len(self.points):
            raise ValueError("a sweep lists the same point twice; its replicas would repeat the same draws")


_K_SCHEDULE_KEYS = {"fixed": ("kind", "k"), "power": ("kind", "gamma")}


def _k_schedule_from_json(doc) -> Callable[[int], int]:
    """k as a function of n under a grid plan's k_schedule: a fixed k (2 when
    the document is absent), or k = ceil(n^gamma) with gamma in (0, 1), so
    that k/n -> 0 along a sweep."""
    if doc is None:
        return lambda n: 2
    if _kind(doc, "k_schedule", _K_SCHEDULE_KEYS) == "power":
        gamma = _json_number(doc, "gamma", "power k_schedule")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"power k_schedule key 'gamma' must lie in (0, 1), got {gamma!r}")
        return lambda n: max(1, math.ceil(n**gamma))
    k = _json_number(doc, "k", "fixed k_schedule", int)
    return lambda n: k


def sweep_plan_from_json(doc: dict) -> SweepPlan:
    """Either an explicit {"points": [config, ...]} list or the grid shorthand
    {"ns": [...], "c": .., "k_schedule": {...}, ...}, whose other keys every
    point shares. Each point is read by params_from_json and runs the plan's
    "replicas" (default 5); a point that sets other "replicas" raises
    ValueError, as do a key or JSON type either reader rejects. A points plan
    has no plan-wide seed: each point carries its own. "out", the CLI's
    output directory, must be a string when present.
    """
    if isinstance(doc, dict) and "points" in doc:
        _check_keys(doc, "sweep plan", ("points",), ("replicas", "out"))
        points = doc["points"]
        if not isinstance(points, list) or not all(isinstance(point, dict) for point in points):
            raise ValueError(f"sweep plan key 'points' must be a list of JSON objects, got {points!r}")
    else:
        optional = ("k_schedule", "model", "entry_law", "tau", "seed", "replicas", "out")
        _check_keys(doc, "sweep plan", ("ns", "c"), optional)
        k_of_n = _k_schedule_from_json(doc.get("k_schedule"))
        shared = {key: value for key, value in doc.items() if key not in ("ns", "k_schedule", "out")}
        points = [{**shared, "n": n, "k": k_of_n(n)} for n in _json_numbers(doc, "ns", "sweep plan", int)]
    replicas = _json_number(doc, "replicas", "sweep plan", int, default=5)
    points = tuple(params_from_json({"replicas": replicas, **point}) for point in points)
    for index, point in enumerate(points):
        if point.replicas != replicas:
            raise ValueError(f"point {index} sets replicas={point.replicas}, but the plan runs {replicas}")
    if not isinstance(doc.get("out", ""), str):
        raise ValueError(f"sweep plan key 'out' must be a string, got {doc['out']!r}")
    return SweepPlan(points=points)
