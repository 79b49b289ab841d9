"""Experiment configuration: dimensions, entry laws, and tau weight sequences.

Everything here is immutable and pure. A ModelParams is validated once, at
construction (``dataclasses.replace`` re-runs the checks), and building the
same configuration twice yields equal objects, so configs can be shared
freely.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

MAX_AMBIENT_DIM = 2**53  # largest integer that round-trips through a float64
REGIME_FOLD_RATIO = 0.5  # k/n above this is flagged as outside the thin-fold regime


class ModelKind(str, enum.Enum):
    """Which normalization the rank-1 sum uses."""

    CORRELATION = "correlation"  # every sample vector rescaled to unit length
    COVARIANCE = "covariance"  # global 1/n^k rescaling (Wishart-type)


class EntryLawKind(str, enum.Enum):
    COMPLEX_GAUSSIAN = "complex_gaussian"
    REAL_GAUSSIAN = "real_gaussian"
    RADEMACHER = "rademacher"
    UNIT_CIRCLE = "unit_circle"


@dataclass(frozen=True)
class EntryLaw:
    """Law of a single base-vector entry: centered, unit second absolute moment.

    ``m4`` is the fourth absolute moment E|xi|^4. ``unit_modulus`` is True
    exactly for the laws with |xi| = 1 almost surely, which force every level
    norm to equal n and make the correlation and covariance constructions
    coincide.
    """

    kind: EntryLawKind
    m4: float
    unit_modulus: bool


_ENTRY_LAWS = {
    EntryLawKind.COMPLEX_GAUSSIAN: EntryLaw(EntryLawKind.COMPLEX_GAUSSIAN, 2.0, False),
    EntryLawKind.REAL_GAUSSIAN: EntryLaw(EntryLawKind.REAL_GAUSSIAN, 3.0, False),
    EntryLawKind.RADEMACHER: EntryLaw(EntryLawKind.RADEMACHER, 1.0, True),
    EntryLawKind.UNIT_CIRCLE: EntryLaw(EntryLawKind.UNIT_CIRCLE, 1.0, True),
}


def entry_law(kind: EntryLawKind | str) -> EntryLaw:
    """Canonical EntryLaw instance for a law kind (string or enum)."""
    return _ENTRY_LAWS[EntryLawKind(kind)]


class TauKind(str, enum.Enum):
    CONSTANT_ONE = "constant_one"
    TWO_POINT = "two_point"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class TauScheme:
    """A materialized sequence of positive weights, one per sample vector.

    ``two_point`` keeps the generating (a, b, weight) triple when the scheme
    was built by :func:`two_point_tau`, so serialization round-trips exactly.
    """

    kind: TauKind
    values: tuple[float, ...]
    two_point: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not self.values:
            raise ValueError("tau sequence must be non-empty")
        if any(not (v > 0 and math.isfinite(v)) for v in self.values):
            raise ValueError("all tau values must be positive and finite")
        if self.kind is TauKind.CONSTANT_ONE and any(v != 1.0 for v in self.values):
            raise ValueError("constant_one scheme requires every value to equal 1")

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @property
    def is_constant_one(self) -> bool:
        return all(v == 1.0 for v in self.values)


def constant_tau(m: int) -> TauScheme:
    return TauScheme(TauKind.CONSTANT_ONE, (1.0,) * m)


def two_point_tau(a: float, b: float, weight: float, m: int) -> TauScheme:
    """First floor(weight*m) weights equal a, the rest equal b.

    The fill is deterministic on purpose: no randomness enters the weights, so
    their empirical moments are exact rational functions of (a, b, weight).
    """
    if a <= 0 or b <= 0:
        raise ValueError("two-point values must be positive")
    if not 0.0 < weight < 1.0:
        raise ValueError("two-point weight must lie in (0, 1)")
    na = int(math.floor(weight * m))
    values = (float(a),) * na + (float(b),) * (m - na)
    return TauScheme(TauKind.TWO_POINT, values, two_point=(float(a), float(b), float(weight)))


def explicit_tau(values) -> TauScheme:
    return TauScheme(TauKind.EXPLICIT, tuple(float(v) for v in values))


def make_tau(scheme, m: int) -> TauScheme:
    """Materialize a tau scheme of length m from a short description.

    Accepted forms: ``"constant_one"``, ``{"kind": "constant_one"}``,
    ``{"kind": "two_point", "a": .., "b": .., "weight": ..}``, and
    ``{"kind": "explicit", "values": [..]}`` (values must have length m).
    A TauScheme passes through unchanged after a length check.
    """
    if m < 1:
        raise ValueError("tau length must be at least 1")
    if isinstance(scheme, TauScheme):
        if len(scheme) != m:
            raise ValueError(f"tau scheme has length {len(scheme)}, expected {m}")
        return scheme
    if isinstance(scheme, str):
        scheme = {"kind": scheme}
    kind = TauKind(scheme["kind"])
    if kind is TauKind.CONSTANT_ONE:
        return constant_tau(m)
    if kind is TauKind.TWO_POINT:
        return two_point_tau(scheme["a"], scheme["b"], scheme["weight"], m)
    values = scheme["values"]
    if len(values) != m:
        raise ValueError(f"explicit tau has length {len(values)}, expected {m}")
    return explicit_tau(values)


def ambient_dim(n: int, k: int) -> int:
    """n^k in exact integer arithmetic, capped so the value survives a float64."""
    if n < 2:
        raise ValueError("base dimension n must be at least 2")
    if k < 1:
        raise ValueError("tensor fold k must be at least 1")
    dim = n**k
    if dim > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {n}^{k} exceeds 2^53")
    return dim


def sample_count(c: float, dim: int) -> int:
    """Deterministic rounding m = floor(c*N + 0.5) of the target ratio."""
    if not (c > 0 and math.isfinite(c)):
        raise ValueError("target ratio c must be positive and finite")
    m = int(math.floor(c * dim + 0.5))
    if m < 1:
        raise ValueError("sample count rounds to zero; increase c or the dimensions")
    return m


@dataclass(frozen=True)
class ModelParams:
    """Full configuration of one experiment point, checked once here: n^k fits
    a float64 exactly, m rounds to at least 1, tau has length m, and the seed
    and replica count are in range."""

    n: int
    k: int
    c: float
    model: ModelKind
    entry_law: EntryLaw
    tau: TauScheme
    seed: int
    replicas: int = 1

    def __post_init__(self):
        dim = ambient_dim(self.n, self.k)
        m = sample_count(self.c, dim)
        if len(self.tau) != m:
            raise ValueError(f"tau scheme has length {len(self.tau)}, expected m={m}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")

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
    entry_law_kind: EntryLawKind | str = EntryLawKind.COMPLEX_GAUSSIAN,
    tau="constant_one",
    seed: int = 0,
    replicas: int = 1,
) -> ModelParams:
    """Build a ModelParams with the tau sequence materialized to length m."""
    dim = ambient_dim(n, k)
    m = sample_count(c, dim)
    return ModelParams(
        n=n,
        k=k,
        c=float(c),
        model=ModelKind(model),
        entry_law=entry_law(entry_law_kind),
        tau=make_tau(tau, m),
        seed=seed,
        replicas=replicas,
    )


def tau_to_json(tau: TauScheme) -> dict:
    if tau.kind is TauKind.CONSTANT_ONE:
        return {"kind": "constant_one"}
    if tau.kind is TauKind.TWO_POINT and tau.two_point is not None:
        a, b, weight = tau.two_point
        return {"kind": "two_point", "a": a, "b": b, "weight": weight}
    return {"kind": "explicit", "values": list(tau.values)}


def params_to_json(params: ModelParams) -> dict:
    """JSON document with all enums serialized as lowercase strings."""
    return {
        "n": params.n,
        "k": params.k,
        "c": params.c,
        "model": params.model.value,
        "entry_law": params.entry_law.kind.value,
        "tau": tau_to_json(params.tau),
        "seed": params.seed,
        "replicas": params.replicas,
    }


def params_from_json(doc: dict) -> ModelParams:
    return make_params(
        n=int(doc["n"]),
        k=int(doc["k"]),
        c=float(doc["c"]),
        model=doc.get("model", "correlation"),
        entry_law_kind=doc.get("entry_law", "complex_gaussian"),
        tau=doc.get("tau", "constant_one"),
        seed=int(doc.get("seed", 0)),
        replicas=int(doc.get("replicas", 1)),
    )
