"""Latent semantic content of a synthetic data item.

A :class:`SceneContent` is the ground-truth "what is in this image" record.
Simulated models (:mod:`repro.zoo`) observe it through task-specific noisy
lenses; scheduling policies never see it directly — they only see model
outputs, exactly as in the paper.

Strengths are in ``[0, 1]`` and model confidence is derived from
``strength * model_quality + noise``, so weak content yields the
low-confidence junk outputs visible in the paper's Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PersonContent:
    """Latent attributes of one person in a scene."""

    #: How prominently the person appears (drives detector confidence).
    prominence: float
    #: Whether the face is visible (frontal enough for face tasks).
    face_visible: bool
    #: Strength of the visible face (0 when not visible).
    face_strength: float
    #: Emotion index into the emotion vocabulary (None = unreadable).
    emotion: int | None
    #: Gender index into the gender vocabulary.
    gender: int
    #: Indices of visible pose keypoints (into the pose vocabulary).
    visible_keypoints: tuple[int, ...]
    #: Number of clearly visible hands (0, 1 or 2).
    hands_visible: int

    @property
    def wrists_visible(self) -> bool:
        """True when at least one wrist keypoint is visible.

        Wrist visibility gates hand-landmark output (Table II rule).
        """
        return bool(self._wrist_ids & set(self.visible_keypoints))

    # COCO keypoint indices of left/right wrist (see vocab.POSE_KEYPOINT_NAMES)
    _wrist_ids = frozenset({9, 10})


@dataclass(frozen=True)
class SceneContent:
    """Full latent content of one data item."""

    #: Scene category index (into the place vocabulary).
    scene: int
    #: How recognizable the scene is.
    scene_strength: float
    #: Object category index -> strength, for objects present in the item.
    objects: dict[int, float] = field(default_factory=dict)
    #: People in the item (possibly empty).
    persons: tuple[PersonContent, ...] = ()
    #: Action category index (None when no recognizable action).
    action: int | None = None
    action_strength: float = 0.0
    #: Dog breed index (None when no dog is present).
    dog_breed: int | None = None
    dog_strength: float = 0.0

    @property
    def has_person(self) -> bool:
        return bool(self.persons)
