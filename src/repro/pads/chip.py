"""One-time-pad chips: Shamir-encoded keys across decision-tree copies.

A *pad* is ``n`` copies of the same decision tree.  The pad's random key
is split into ``n`` Shamir shares; copy ``i`` stores share ``i`` at the
secret path's leaf, with independent decoy strings at every other leaf.
The receiver (who knows the path) traverses each copy once and recovers
the key from any ``k`` shares; an adversary must guess paths, and with
fewer than ``k`` right guesses the shares reveal nothing (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.shamir import Share, recover_secret, split_secret
from repro.core.variation import ProcessVariation
from repro.core.weibull import WeibullDistribution
from repro.errors import ConfigurationError, InsufficientSharesError
from repro.pads.decision_tree import HardwareDecisionTree

__all__ = ["PadAddress", "OneTimePad", "OneTimePadChip"]

#: Paper's assumption: random-string length scales with tree height,
#: about 1000 bits per level (Section 6.5.1).
BITS_PER_LEVEL = 1000


@dataclass(frozen=True)
class PadAddress:
    """What the sender keeps (and transmits out of band): pad id + path."""

    pad_id: int
    path: str


class OneTimePad:
    """One pad: ``n`` tree copies sharing a Shamir-split random key."""

    def __init__(self, height: int, n_copies: int, k: int,
                 device: WeibullDistribution, rng: np.random.Generator,
                 variation: ProcessVariation | None = None,
                 key_bytes: int | None = None) -> None:
        if not 1 <= k <= n_copies <= 255:
            raise ConfigurationError(
                f"need 1 <= k <= n <= 255, got k={k}, n={n_copies}")
        self.height = height
        self.n_copies = n_copies
        self.k = k
        if key_bytes is None:
            key_bytes = max(1, (BITS_PER_LEVEL * height) // 8)
        leaves = 2 ** (height - 1)
        path_bits = height - 1
        self.path = "".join(str(b) for b in
                            rng.integers(0, 2, path_bits)) if path_bits \
            else ""
        self._key = rng.integers(0, 256, key_bytes, dtype=np.uint8).tobytes()
        shares = split_secret(self._key, k, n_copies, rng) \
            if k > 1 else [Share(index=min(i + 1, 255), data=self._key)
                           for i in range(n_copies)]
        leaf_index = int(self.path, 2) if self.path else 0
        self.copies: list[HardwareDecisionTree] = []
        for share in shares:
            contents = [
                share.data if leaf == leaf_index
                else rng.integers(0, 256, key_bytes, dtype=np.uint8).tobytes()
                for leaf in range(leaves)
            ]
            self.copies.append(HardwareDecisionTree(
                height, contents, device, rng, variation))
        self._share_len = key_bytes

    @property
    def true_key(self) -> bytes:
        """The provisioned key (ground truth for experiments/tests only)."""
        return self._key

    def retrieve(self, path: str) -> bytes:
        """Traverse every copy along ``path`` and recover the key.

        This is what the legitimate receiver does (with the right path) -
        and also what one adversarial trial looks like (with a guess).
        Raises :class:`InsufficientSharesError` when fewer than ``k``
        traversals succeed.
        """
        recovered: list[Share] = []
        for i, copy in enumerate(self.copies):
            data = copy.traverse(path)
            if data is not None:
                recovered.append(Share(index=min(i + 1, 255), data=data))
        if len(recovered) < self.k:
            raise InsufficientSharesError(
                f"only {len(recovered)} of the required {self.k} shares "
                f"retrieved", supplied=len(recovered), required=self.k)
        if self.k == 1:
            return recovered[0].data
        return recover_secret(recovered[:self.k], k=self.k)

    @property
    def switch_count(self) -> int:
        return sum(c.switch_count for c in self.copies)


class OneTimePadChip:
    """A chip carrying many pads for many future messages (Section 6.1).

    ``provision`` is done at fabrication; the sender keeps the pad
    addresses (id + path) and shares them with the receiver out of band.
    """

    def __init__(self, n_pads: int, height: int, n_copies: int, k: int,
                 device: WeibullDistribution, rng: np.random.Generator,
                 variation: ProcessVariation | None = None,
                 key_bytes: int | None = None) -> None:
        if n_pads < 1:
            raise ConfigurationError("need at least one pad")
        self.pads = [
            OneTimePad(height, n_copies, k, device, rng, variation,
                       key_bytes)
            for _ in range(n_pads)
        ]
        self.device = device

    def addresses(self) -> list[PadAddress]:
        """The sender's secret list of pad addresses."""
        return [PadAddress(pad_id=i, path=pad.path)
                for i, pad in enumerate(self.pads)]

    def retrieve(self, address: PadAddress) -> bytes:
        if not 0 <= address.pad_id < len(self.pads):
            raise ConfigurationError(f"no pad {address.pad_id} on this chip")
        return self.pads[address.pad_id].retrieve(address.path)

    @property
    def switch_count(self) -> int:
        return sum(p.switch_count for p in self.pads)
