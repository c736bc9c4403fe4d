"""Simulated deep-learning models.

A :class:`SimulatedModel` reads an item's latent content through a
task-specific lens and emits labels with confidences.  Three behaviours of
real model zoos matter to the scheduler and are reproduced here:

1. **Content dependence** — a pose estimator emits nothing without people;
   a dog classifier emits nothing without dogs (Fig. 1 "No Output" cells).
2. **Low-confidence junk** — weak content or false positives yield labels
   below the valuable threshold (Fig. 1 "Low-Confidence Output" cells).
3. **Quality spread** — models of one task share a vocabulary but differ in
   recall/confidence (which makes label overlap, and hence submodularity of
   Eq. 1, non-trivial).

Determinism: emission is a pure function of (model name, item id, world
seed); executing the same model twice on the same item returns the same
output, mirroring the paper's record-then-replay evaluation protocol.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.output import ModelOutput, named_labels
from repro.data.datasets import DataItem
from repro.data.semantics import SceneContent
from repro.labels import LabelSpace
from repro.vocab import (
    TASK_ACTION,
    TASK_DOG,
    TASK_EMOTION,
    TASK_FACE,
    TASK_FACE_LANDMARK,
    TASK_GENDER,
    TASK_HAND_LANDMARK,
    TASK_OBJECT,
    TASK_PLACE,
    TASK_POSE,
)
from repro.zoo.costs import ModelSpec


def item_key(item_id: str) -> int:
    """The per-item half of every (model, item) seed."""
    return zlib.crc32(item_id.encode())


class SimulatedModel:
    """One zoo member: costs + a seeded content->labels emission function."""

    def __init__(
        self,
        spec: ModelSpec,
        space: LabelSpace,
        time_cost: float,
        world_seed: int,
    ):
        self.name = spec.name
        self.task = spec.task
        self.quality = spec.quality
        #: Average execution time in seconds (the paper's ``m.time``).
        self.time = time_cost
        #: Peak GPU memory in MB (the paper's ``m.mem``).
        self.mem = spec.mem_mb
        self._space = space
        task_range = space.task_range(spec.task)
        #: Tasks own contiguous global-id ranges: global = base + local.
        self._id_base = task_range.start
        #: Number of labels this model supports (|L(m)|).
        self.n_labels = len(task_range)
        #: Confidence per unit of content strength (see :meth:`_confidence`).
        self._gain = 0.45 + 0.62 * spec.quality
        self._seed_salt = zlib.crc32(f"{world_seed}:{spec.name}".encode())

    def __repr__(self) -> str:
        return (
            f"SimulatedModel({self.name}, task={self.task}, "
            f"time={self.time:.3f}s, mem={self.mem:.0f}MB)"
        )

    # -- execution ---------------------------------------------------------

    def execute(self, item: DataItem) -> ModelOutput:
        """Run the model on ``item`` and return its (deterministic) output."""
        ids: list[int] = []
        confs: list[float] = []
        self.emit_into(item.content, item_key(item.item_id), ids, confs)
        return self.render(item.item_id, ids, confs)

    def emit_into(
        self, content: SceneContent, key: int, ids: list[int], confs: list[float]
    ) -> None:
        """Append this model's emissions on one item to ``ids``/``confs``.

        The recording core: ``ids`` receives global label ids and
        ``confs`` their confidences, in emission order.  ``key`` is
        :func:`item_key` of the item's id — computed once per item by
        batch callers, not once per model.
        """
        _LENSES[self.task](self, content, key, ids, confs)

    def render(
        self, item_id: str, ids: Iterable[int], confs: Iterable[float]
    ) -> ModelOutput:
        """Named :class:`ModelOutput` for emissions of this model."""
        labels = named_labels(self._space.name_of, ids, confs)
        return ModelOutput(model=self.name, item_id=item_id, labels=labels)

    def _rng(self, key: int) -> np.random.Generator:
        """The (model, item) random stream; lenses build it only to draw."""
        return np.random.default_rng(np.random.SeedSequence([self._seed_salt, key]))

    def _confidence(
        self, rng: np.random.Generator, strength: float, noise: float = 0.07
    ) -> float:
        """Confidence from content strength and model quality.

        Strong content seen by a good model lands well above the 0.5
        valuable threshold; weak content lands below it (junk output).
        """
        conf = strength * self._gain + rng.normal(0.0, noise)
        return min(max(conf, 0.02), 0.99)

    def _confidences(
        self, rng: np.random.Generator, strength: float, count: int
    ) -> list[float]:
        """``count`` landmark confidences: one draw, same stream as one each."""
        conf = strength * self._gain + rng.normal(0.0, 0.05, count)
        return np.minimum(np.maximum(conf, 0.02), 0.99).tolist()

    def _localized_points(
        self, rng: np.random.Generator, strength: float, n_candidates: int
    ) -> np.ndarray:
        """Which of ``n_candidates`` landmarks get localized.

        Their number grows with content strength and model quality.
        """
        frac = strength * self.quality + rng.normal(0, 0.05)
        n_points = int(round(min(max(frac, 0.0), 1.0) * n_candidates))
        return rng.choice(n_candidates, size=n_points, replace=False)

    # -- per-task emission lenses -------------------------------------------

    def _emit_objects(self, content, key, ids, confs) -> None:
        rng = self._rng(key)
        random = rng.random
        objects = content.objects
        for obj, strength in objects.items():
            # Detection probability grows with quality and object strength.
            if random() < self.quality * (0.55 + 0.45 * strength):
                ids.append(self._id_base + obj)
                confs.append(self._confidence(rng, strength))
        # Rare false positive: a random category at junk confidence.
        if random() < 0.08:
            fp = int(rng.integers(self.n_labels))
            if fp not in objects:
                ids.append(self._id_base + fp)
                confs.append(float(rng.uniform(0.08, 0.42)))

    def _emit_place(self, content, key, ids, confs) -> None:
        rng = self._rng(key)
        ids.append(self._id_base + content.scene)
        confs.append(self._confidence(rng, content.scene_strength))
        # Classifiers emit a runner-up guess at low confidence.
        if rng.random() < 0.5:
            runner_up = int(rng.integers(self.n_labels))
            if runner_up != content.scene:
                ids.append(self._id_base + runner_up)
                confs.append(float(rng.uniform(0.05, 0.35)))

    def _emit_face(self, content, key, ids, confs) -> None:
        strengths = [p.face_strength for p in content.persons if p.face_visible]
        if strengths:
            ids.append(self._id_base)
            confs.append(self._confidence(self._rng(key), max(strengths)))
        elif content.persons:
            rng = self._rng(key)
            if rng.random() < 0.15:
                # Occluded face: junk-confidence detection.
                ids.append(self._id_base)
                confs.append(float(rng.uniform(0.08, 0.4)))

    def _emit_face_landmarks(self, content, key, ids, confs) -> None:
        strengths = [p.face_strength for p in content.persons if p.face_visible]
        if not strengths:
            return
        rng = self._rng(key)
        strength = max(strengths)
        picked = self._localized_points(rng, strength, self.n_labels)
        ids.extend((self._id_base + picked).tolist())
        confs.extend(self._confidences(rng, strength, len(picked)))

    def _emit_pose(self, content, key, ids, confs) -> None:
        if not content.persons:
            return
        rng = self._rng(key)
        random = rng.random
        p_detect = self.quality * 0.9
        out: dict[int, float] = {}
        for person in content.persons:
            for kp in person.visible_keypoints:
                if random() < p_detect:
                    conf = self._confidence(rng, person.prominence, noise=0.05)
                    if conf > out.get(kp, 0.0):
                        out[kp] = conf
        ids.extend(self._id_base + kp for kp in out)
        confs.extend(out.values())

    def _emit_emotion(self, content, key, ids, confs) -> None:
        faces = [
            p for p in content.persons if p.face_visible and p.emotion is not None
        ]
        if not faces:
            return
        rng = self._rng(key)
        best = max(faces, key=lambda p: p.face_strength)
        ids.append(self._id_base + best.emotion)
        confs.append(self._confidence(rng, best.face_strength))
        if rng.random() < 0.3:
            other = int(rng.integers(self.n_labels))
            if other != best.emotion:
                ids.append(self._id_base + other)
                confs.append(float(rng.uniform(0.05, 0.3)))

    def _emit_gender(self, content, key, ids, confs) -> None:
        visible = [p for p in content.persons if p.face_visible]
        if not visible:
            # Gender nets need a face crop; bodies alone give junk output.
            if content.persons:
                rng = self._rng(key)
                if rng.random() < 0.3:
                    ids.append(self._id_base + int(rng.integers(self.n_labels)))
                    confs.append(float(rng.uniform(0.1, 0.45)))
            return
        rng = self._rng(key)
        out: dict[int, float] = {}
        for person in visible:
            conf = self._confidence(rng, person.face_strength)
            if conf > out.get(person.gender, 0.0):
                out[person.gender] = conf
        ids.extend(self._id_base + gender for gender in out)
        confs.extend(out.values())

    def _emit_action(self, content, key, ids, confs) -> None:
        if content.action is not None:
            rng = self._rng(key)
            ids.append(self._id_base + content.action)
            confs.append(self._confidence(rng, content.action_strength))
            if rng.random() < 0.4:
                other = int(rng.integers(self.n_labels))
                if other != content.action:
                    ids.append(self._id_base + other)
                    confs.append(float(rng.uniform(0.05, 0.35)))
        elif content.persons:
            rng = self._rng(key)
            if rng.random() < 0.5:
                # People but no recognizable action: low-confidence guess.
                ids.append(self._id_base + int(rng.integers(self.n_labels)))
                confs.append(float(rng.uniform(0.05, 0.4)))

    def _emit_hand_landmarks(self, content, key, ids, confs) -> None:
        handed = [
            p
            for p in content.persons
            if p.hands_visible > 0 and p.wrists_visible
        ]
        if not handed:
            return
        rng = self._rng(key)
        best = max(handed, key=lambda p: p.prominence)
        per_hand = self.n_labels // 2
        for hand in range(min(best.hands_visible, 2)):
            picked = self._localized_points(rng, best.prominence, per_hand)
            ids.extend((self._id_base + hand * per_hand + picked).tolist())
            confs.extend(self._confidences(rng, best.prominence, len(picked)))

    def _emit_dog(self, content, key, ids, confs) -> None:
        rng = self._rng(key)
        if content.dog_breed is not None:
            ids.append(self._id_base + content.dog_breed)
            confs.append(self._confidence(rng, content.dog_strength))
            if rng.random() < 0.3:
                other = int(rng.integers(self.n_labels))
                if other != content.dog_breed:
                    ids.append(self._id_base + other)
                    confs.append(float(rng.uniform(0.05, 0.35)))
        elif rng.random() < 0.1:
            # Breed classifiers hallucinate on furry non-dogs occasionally.
            ids.append(self._id_base + int(rng.integers(self.n_labels)))
            confs.append(float(rng.uniform(0.05, 0.35)))


#: Task -> emission lens, resolved once at import (not per execution).
_LENSES = {
    TASK_OBJECT: SimulatedModel._emit_objects,
    TASK_PLACE: SimulatedModel._emit_place,
    TASK_FACE: SimulatedModel._emit_face,
    TASK_FACE_LANDMARK: SimulatedModel._emit_face_landmarks,
    TASK_POSE: SimulatedModel._emit_pose,
    TASK_EMOTION: SimulatedModel._emit_emotion,
    TASK_GENDER: SimulatedModel._emit_gender,
    TASK_ACTION: SimulatedModel._emit_action,
    TASK_HAND_LANDMARK: SimulatedModel._emit_hand_landmarks,
    TASK_DOG: SimulatedModel._emit_dog,
}


class ModelZoo:
    """The ordered collection of simulated models (the paper's set ``M``)."""

    def __init__(self, models: Sequence[SimulatedModel], space: LabelSpace):
        self._models = tuple(models)
        self.space = space
        self._by_name = {m.name: m for m in self._models}
        if len(self._by_name) != len(self._models):
            raise ValueError("duplicate model names in zoo")
        # Schedulers read these on every call: built once, shared read-only.
        self._names = tuple(self._by_name)
        self._index = {name: j for j, name in enumerate(self._names)}
        self._times = np.asarray([m.time for m in self._models], dtype=np.float64)
        self._mems = np.asarray([m.mem for m in self._models], dtype=np.float64)
        self._times.flags.writeable = False
        self._mems.flags.writeable = False

    def __reduce__(self):
        # Rebuild through __init__: unpickling alone drops the read-only flags.
        return (ModelZoo, (self._models, self.space))

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self) -> Iterator[SimulatedModel]:
        return iter(self._models)

    def __getitem__(self, index: int) -> SimulatedModel:
        return self._models[index]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def models(self) -> tuple[SimulatedModel, ...]:
        return self._models

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def by_name(self, name: str) -> SimulatedModel:
        return self._by_name[name]

    def index_of(self, name: str) -> int:
        return self._index[name]

    def models_for_task(self, task: str) -> tuple[SimulatedModel, ...]:
        return tuple(m for m in self._models if m.task == task)

    @property
    def times(self) -> np.ndarray:
        """Per-model execution times, aligned with zoo order (read-only)."""
        return self._times

    @property
    def mems(self) -> np.ndarray:
        """Per-model memory costs (MB), aligned with zoo order (read-only)."""
        return self._mems

    @property
    def total_time(self) -> float:
        """Cost of the paper's "no policy": run everything."""
        return float(self._times.sum())
