"""Run configuration: flat key-value text files and shipped presets."""
from __future__ import annotations

from dataclasses import dataclass

from .core import GadicSequence
from .partition import PartitionSpec
from .basis import BasisSpec


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    seq: GadicSequence
    partition: PartitionSpec
    t: int
    window: int = 5000
    budget: int = 20       # members to certify (K)
    witnesses: int = 3     # witnesses per member (W)
    _KEYS = ("sequence", "partition", "t", "window", "budget", "witnesses")

    @property
    def basis(self) -> BasisSpec:
        return BasisSpec(seq=self.seq, partition=self.partition)

    def serialize(self) -> str:
        return (f"sequence = {self.seq.serialize()}\n"
                f"partition = {self.partition.serialize()}\n"
                f"t = {self.t}\n"
                f"window = {self.window}\n"
                f"budget = {self.budget}\n"
                f"witnesses = {self.witnesses}\n")

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        fields: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in cls._KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r} "
                                  f"(keys: {', '.join(cls._KEYS)})")
            if key in fields:
                raise ConfigError(f"line {lineno}: repeated key {key!r}")
            fields[key] = value
        for key in cls._KEYS[:3]:
            if key not in fields:
                raise ConfigError(f"invalid configuration: missing key {key!r}")
        try:
            # window, budget and witnesses, when given, override the defaults
            return cls(seq=GadicSequence.parse(fields.pop("sequence")),
                       partition=PartitionSpec.parse(fields.pop("partition")),
                       t=int(fields.pop("t")),
                       **{key: int(value) for key, value in fields.items()})
        except ValueError as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc


# One-command reproductions of the headline configurations.
PRESETS: dict[str, str] = {
    # order 2, binary scale, consecutive-pair partition
    "binary-h2": ("sequence = prefix=[];period=[2]\n"
                  "partition = h=2;prefix=[];period=[0,0,1,1]\n"
                  "t = 2\nwindow = 5000\nbudget = 20\nwitnesses = 3\n"),
    # alternating quotients 2,3 (even-index scale values are powers of 6)
    "mixed23-h2": ("sequence = prefix=[];period=[2,3]\n"
                   "partition = h=2;prefix=[];period=[0,0,1,1]\n"
                   "t = 2\nwindow = 5000\nbudget = 20\nwitnesses = 3\n"),
    # order 3, runs of length 3
    "h3-runs": ("sequence = prefix=[];period=[2]\n"
                "partition = h=3;prefix=[];period=[0,0,0,1,1,1,2,2,2]\n"
                "t = 3\nwindow = 5000\nbudget = 5\nwitnesses = 2\n"),
    # order 4, runs of length 3
    "h4-runs": ("sequence = prefix=[];period=[2]\n"
                "partition = h=4;prefix=[];period=[0,0,0,1,1,1,2,2,2,3,3,3]\n"
                "t = 3\nwindow = 5000\nbudget = 5\nwitnesses = 2\n"),
}


def load_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return RunConfig.parse(PRESETS[name])
