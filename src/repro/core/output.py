"""Output containers shared by the zoo, the environment, and schedulers."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class LabelOutput:
    """One emitted label with its confidence."""

    label_id: int
    name: str
    confidence: float

    def __str__(self) -> str:
        return f"{self.name} ({self.confidence:.2f})"


def named_labels(
    name_of: Callable[[int], str], ids: Iterable[int], confs: Iterable[float]
) -> tuple[LabelOutput, ...]:
    """Label objects for parallel (global id, confidence) sequences."""
    return tuple(
        LabelOutput(label_id=label_id, name=name_of(label_id), confidence=conf)
        for label_id, conf in zip(ids, confs)
    )


@dataclass(frozen=True)
class ModelOutput:
    """Everything one model emitted for one item.

    ``labels`` contains *all* emissions, including the low-confidence junk
    of the paper's Fig. 1; use :meth:`valuable` to keep only labels at or
    above the confidence threshold.
    """

    model: str
    item_id: str
    labels: tuple[LabelOutput, ...]

    def valuable(self, threshold: float) -> tuple[LabelOutput, ...]:
        """Labels whose confidence is at least ``threshold``."""
        return tuple(l for l in self.labels if l.confidence >= threshold)

    @property
    def is_empty(self) -> bool:
        return not self.labels

    def __str__(self) -> str:
        body = ", ".join(str(l) for l in self.labels) or "<no output>"
        return f"{self.model}: {body}"
