"""Communication fabric: the RSC bus and the IBC network (Sec. III-A3).

Two serialised channels move data inside iMARS:

* the **RecSys communication (RSC) bus** (256-bit) connects the functional
  blocks -- CMA banks, crossbar banks, item buffer, CTR buffer;
* the **intra-bank communication (IBC) network** moves mat outputs to the
  intra-bank adder tree, 128 bytes (four 256-bit words) per shot;
  transfers serialise when more than four mats contribute (K > 4).

Both are modelled as serialised buses with per-beat timing and per-bit wire
energy from the synthesis technology constants; the defaults place the RSC
bus across the die (longer span) and the IBC within a bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.synthesis import SynthesisTech, NANGATE45
from repro.energy.accounting import Cost, ZERO_COST

__all__ = ["RSCBus", "IBCNetwork"]


@dataclass(frozen=True)
class RSCBus:
    """The 256-bit serialised bus between iMARS functional blocks."""

    width_bits: int = 256
    length_mm: float = 2.0
    beat_ns: float = 0.7
    tech: SynthesisTech = NANGATE45

    def transfer(self, payload_bits: int) -> Cost:
        """One block-to-block transfer of *payload_bits* (serialised)."""
        if payload_bits < 0:
            raise ValueError("payload must be non-negative")
        if payload_bits == 0:
            return ZERO_COST
        beats = math.ceil(payload_bits / self.width_bits)
        energy = payload_bits * self.length_mm * self.tech.wire_energy_pj_per_bit_mm
        return Cost(energy_pj=energy, latency_ns=beats * self.beat_ns)

    def gather(self, num_sources: int, payload_bits_each: int) -> Cost:
        """Collect one payload from each of *num_sources* blocks.

        The bus is shared, so source transfers serialise -- this is the term
        that makes the 26-bank Criteo ET operation slightly slower than the
        7-bank MovieLens one (Table III).
        """
        if num_sources < 0:
            raise ValueError("source count must be non-negative")
        return self.transfer(payload_bits_each).repeated(num_sources)


@dataclass(frozen=True)
class IBCNetwork:
    """Intra-bank network feeding the intra-bank adder tree."""

    payload_bits: int = 1024  # 128 bytes: four 256-bit words per shot
    word_bits: int = 256
    length_mm: float = 1.0
    beat_ns: float = 0.5
    tech: SynthesisTech = NANGATE45

    @property
    def words_per_shot(self) -> int:
        """Mat outputs delivered per IBC shot (4 for the paper's design)."""
        return self.payload_bits // self.word_bits

    def shots_for(self, num_words: int) -> int:
        """IBC transfers needed to deliver *num_words* mat outputs."""
        if num_words < 0:
            raise ValueError("word count must be non-negative")
        if num_words == 0:
            return 0
        return math.ceil(num_words / self.words_per_shot)

    def deliver(self, num_words: int) -> Cost:
        """Move *num_words* mat outputs to the intra-bank adder tree."""
        shots = self.shots_for(num_words)
        if shots == 0:
            return ZERO_COST
        bits_moved = num_words * self.word_bits
        energy = bits_moved * self.length_mm * self.tech.wire_energy_pj_per_bit_mm
        return Cost(energy_pj=energy, latency_ns=shots * self.beat_ns)
