"""The provider's accelerator library (§1, §3, §8).

"Cloud providers such as Amazon and Microsoft configure their FPGAs into
popular accelerators, which the providers then make available for
customer use."  OPTIMUS targets exactly this model: the provider picks a
*configuration* — a mix of accelerators from its library — synthesizes it
once (validated by the synthesis model: at most eight instances, timing
closed at 400 MHz, resources fit), and schedules customer VMs onto it.

:class:`AcceleratorLibrary` wraps the Table 1 catalog with the metadata a
provider cares about; :class:`FpgaConfiguration` is one validated
bitstream-equivalent: an ordered list of accelerator types plus the
synthesis report proving it fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accel.registry import CATALOG, profile_of
from repro.errors import ConfigurationError, SynthesisError
from repro.fpga.synthesis import SynthesisReport, synthesize


@dataclass(frozen=True)
class LibraryEntry:
    """One accelerator product in the provider's catalog."""

    name: str
    description: str
    alm_pct: float
    bram_pct: float


class AcceleratorLibrary:
    """The catalog of accelerators a provider offers its customers."""

    def __init__(self, names: Optional[Sequence[str]] = None) -> None:
        names = list(names) if names is not None else list(CATALOG)
        unknown = [n for n in names if n not in CATALOG]
        if unknown:
            raise ConfigurationError(f"unknown accelerators: {unknown}")
        #: Job class per offered name, in offer order: what
        #: :meth:`make_job` instantiates.
        self._factories = {name: CATALOG[name][1] for name in names}

    def entries(self) -> List[LibraryEntry]:
        result = []
        for name in self._factories:
            profile = profile_of(name)
            result.append(
                LibraryEntry(
                    name=name,
                    description=profile.description,
                    alm_pct=profile.footprint.alm_pct,
                    bram_pct=profile.footprint.bram_pct,
                )
            )
        return result

    def offers(self, name: str) -> bool:
        return name in self._factories

    def make_job(self, name: str, **kwargs):
        factory = self._factories.get(name)
        if factory is None:
            raise ConfigurationError(f"library does not offer {name!r}")
        return factory(**kwargs)


@dataclass
class FpgaConfiguration:
    """A validated accelerator mix for one FPGA (a 'bitstream')."""

    slots: List[str]  # accelerator type per physical slot, in order
    report: SynthesisReport = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        #: Static per-type slot index (ascending physical indices), built
        #: once: a bitstream's slot mix never changes after synthesis.
        self.slot_index: Dict[str, Tuple[int, ...]] = self._index_slots()

    def _index_slots(self) -> Dict[str, Tuple[int, ...]]:
        index: Dict[str, List[int]] = {}
        for i, slot in enumerate(self.slots):
            index.setdefault(slot, []).append(i)
        return {name: tuple(indices) for name, indices in index.items()}

    @classmethod
    def synthesize(
        cls, slots: Sequence[str], *, library: Optional[AcceleratorLibrary] = None
    ) -> "FpgaConfiguration":
        """Validate a mix through the synthesis model; raises if infeasible."""
        library = library or AcceleratorLibrary()
        for name in slots:
            if not library.offers(name):
                raise ConfigurationError(f"library does not offer {name!r}")
        profiles = [profile_of(name) for name in slots]
        report = synthesize(
            [p.footprint for p in profiles],
            [p.character for p in profiles],
        )
        return cls(slots=list(slots), report=report)

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    def slots_of_type(self, name: str) -> List[int]:
        """Physical indices carrying ``name`` — a fresh list copied from
        the cached :attr:`slot_index` (hot paths read the index itself)."""
        return list(self.slot_index.get(name, ()))

    def utilization_summary(self) -> Dict[str, float]:
        total = self.report.total
        return {"alm_pct": total.alm_pct, "bram_pct": total.bram_pct}
