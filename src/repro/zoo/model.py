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
Each ``(model, item)`` cell draws from numpy's PCG64 stream seeded with
the seed sequence ``[model salt, item key]``, a whole batch of which
:func:`seed_table` hashes at once.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from itertools import permutations

import numpy as np

from repro.core.output import ModelOutput, named_labels
from repro.data.datasets import DataItem
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


# numpy's seed-sequence hash: its multiplier walks never depend on the data.
_MIX_CONSTS = [np.uint32(0x43B0D7E5 * 0x931E8875**k % 2**32) for k in range(17)]
_OUT_CONSTS = [np.uint32(0x8B51F9DD * 0x58F38DED**k % 2**32) for k in range(9)]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_PCG_STATE = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}


def _hashmix(value: np.ndarray, k: int) -> np.ndarray:
    value = (value ^ _MIX_CONSTS[k]) * _MIX_CONSTS[k + 1]
    return value ^ (value >> 16)


def seed_table(salts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``uint64[len(keys), len(salts), 4]`` PCG64 seed words of every cell.

    Row ``[i, j]`` is numpy's ``generate_state(4, uint64)`` of the seed
    sequence ``[salts[j], keys[i]]`` (both ``uint32``), computed with
    wrapping ``uint32`` array ops: two entropy words in a four-word pool.
    """
    zero = np.zeros((1, 1), dtype=np.uint32)
    pool = [salts[None, :], keys[:, None], zero, zero]
    pool = [_hashmix(word, k) for k, word in enumerate(pool)]
    for k, (src, dst) in enumerate(permutations(range(4), 2), start=4):
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], k)
        pool[dst] = mixed ^ (mixed >> 16)
    out = [(pool[i % 4] ^ _OUT_CONSTS[i]) * _OUT_CONSTS[i + 1] for i in range(8)]
    words = np.stack([word ^ (word >> 16) for word in out], axis=-1)
    return words.astype("<u4", copy=False).view("<u8")


def pcg64_state(words: Sequence[int]) -> dict:
    """PCG64 ``state`` seeded with one :func:`seed_table` cell.

    PCG64's own seeding step in Python ints, on the words numpy would
    hand it when building a generator from that cell's seed sequence.
    """
    state_hi, state_lo, seq_hi, seq_lo = words
    inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
    state = ((((state_hi << 64) | state_lo) + inc) * _PCG_MULT + inc) & _MASK128
    return {**_PCG_STATE, "state": {"state": state, "inc": inc}}


def emit_batch(
    models: Sequence[SimulatedModel], salts: np.ndarray, items: Iterable[DataItem]
) -> Iterator[tuple[DataItem, list[int], list[int], list[float]]]:
    """Every model's emissions on each item: ``(item, offsets, ids, confs)``.

    Model ``j`` (seed salt ``salts[j]``) owns ``ids[offsets[j]:offsets[j + 1]]``
    and the matching ``confs``.  Each lens gets a callable that moves this
    call's own generator onto its cell's stream: the service records from
    several threads at once.
    """
    items = list(items)
    keys = np.array([item_key(item.item_id) for item in items], dtype=np.uint32)
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)

    def stream(words: list[int]) -> np.random.Generator:
        bitgen.state = pcg64_state(words)
        return generator

    for item, row in zip(items, seed_table(salts, keys)):
        content = item.content
        ids, confs, offsets = [], [], [0]
        for model, words in zip(models, row.tolist()):
            _LENSES[model.task](model, content, partial(stream, words), ids, confs)
            offsets.append(len(ids))
        yield item, offsets, ids, confs


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
        """The model's (deterministic) output on ``item``: a one-cell batch."""
        salts = np.array([self._seed_salt], dtype=np.uint32)
        [(_, _, ids, confs)] = emit_batch((self,), salts, [item])
        return self.render(item.item_id, ids, confs)

    def render(
        self, item_id: str, ids: Iterable[int], confs: Iterable[float]
    ) -> ModelOutput:
        """Named :class:`ModelOutput` for emissions of this model."""
        labels = named_labels(self._space.name_of, ids, confs)
        return ModelOutput(model=self.name, item_id=item_id, labels=labels)

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

    def _junk_guess(self, rng, p, low, high, ids, confs, truth=()) -> None:
        """With probability ``p``, a random label at confidence ``U(low, high)``.

        A guess that hits one of the ``truth`` labels is dropped.
        """
        if rng.random() < p:
            guess = int(rng.integers(self.n_labels))
            if guess not in truth:
                ids.append(self._id_base + guess)
                confs.append(float(rng.uniform(low, high)))

    # -- per-task emission lenses -------------------------------------------
    # ``stream()`` returns the generator positioned on this (model, item)
    # cell's stream; a lens calls it only when it is about to draw.

    def _emit_objects(self, content, stream, ids, confs) -> None:
        rng = stream()
        random = rng.random
        objects = content.objects
        for obj, strength in objects.items():
            # Detection probability grows with quality and object strength.
            if random() < self.quality * (0.55 + 0.45 * strength):
                ids.append(self._id_base + obj)
                confs.append(self._confidence(rng, strength))
        # Rare false positive: a random category at junk confidence.
        self._junk_guess(rng, 0.08, 0.08, 0.42, ids, confs, objects)

    def _emit_place(self, content, stream, ids, confs) -> None:
        rng = stream()
        ids.append(self._id_base + content.scene)
        confs.append(self._confidence(rng, content.scene_strength))
        # Classifiers emit a runner-up guess at low confidence.
        self._junk_guess(rng, 0.5, 0.05, 0.35, ids, confs, (content.scene,))

    def _emit_face(self, content, stream, ids, confs) -> None:
        strengths = [p.face_strength for p in content.persons if p.face_visible]
        if strengths:
            ids.append(self._id_base)
            confs.append(self._confidence(stream(), max(strengths)))
        elif content.persons:
            rng = stream()
            if rng.random() < 0.15:
                # Occluded face: junk-confidence detection.
                ids.append(self._id_base)
                confs.append(float(rng.uniform(0.08, 0.4)))

    def _emit_face_landmarks(self, content, stream, ids, confs) -> None:
        strengths = [p.face_strength for p in content.persons if p.face_visible]
        if not strengths:
            return
        rng = stream()
        strength = max(strengths)
        picked = self._localized_points(rng, strength, self.n_labels)
        ids.extend((self._id_base + picked).tolist())
        confs.extend(self._confidences(rng, strength, len(picked)))

    def _emit_pose(self, content, stream, ids, confs) -> None:
        if not content.persons:
            return
        rng = stream()
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

    def _emit_emotion(self, content, stream, ids, confs) -> None:
        faces = [
            p for p in content.persons if p.face_visible and p.emotion is not None
        ]
        if not faces:
            return
        rng = stream()
        best = max(faces, key=lambda p: p.face_strength)
        ids.append(self._id_base + best.emotion)
        confs.append(self._confidence(rng, best.face_strength))
        self._junk_guess(rng, 0.3, 0.05, 0.3, ids, confs, (best.emotion,))

    def _emit_gender(self, content, stream, ids, confs) -> None:
        visible = [p for p in content.persons if p.face_visible]
        if not visible:
            # Gender nets need a face crop; bodies alone give junk output.
            if content.persons:
                self._junk_guess(stream(), 0.3, 0.1, 0.45, ids, confs)
            return
        rng = stream()
        out: dict[int, float] = {}
        for person in visible:
            conf = self._confidence(rng, person.face_strength)
            if conf > out.get(person.gender, 0.0):
                out[person.gender] = conf
        ids.extend(self._id_base + gender for gender in out)
        confs.extend(out.values())

    def _emit_action(self, content, stream, ids, confs) -> None:
        if content.action is not None:
            rng = stream()
            ids.append(self._id_base + content.action)
            confs.append(self._confidence(rng, content.action_strength))
            self._junk_guess(rng, 0.4, 0.05, 0.35, ids, confs, (content.action,))
        elif content.persons:
            # People but no recognizable action: low-confidence guess.
            self._junk_guess(stream(), 0.5, 0.05, 0.4, ids, confs)

    def _emit_hand_landmarks(self, content, stream, ids, confs) -> None:
        handed = [
            p
            for p in content.persons
            if p.hands_visible > 0 and p.wrists_visible
        ]
        if not handed:
            return
        rng = stream()
        best = max(handed, key=lambda p: p.prominence)
        per_hand = self.n_labels // 2
        for hand in range(min(best.hands_visible, 2)):
            picked = self._localized_points(rng, best.prominence, per_hand)
            ids.extend((self._id_base + hand * per_hand + picked).tolist())
            confs.extend(self._confidences(rng, best.prominence, len(picked)))

    def _emit_dog(self, content, stream, ids, confs) -> None:
        rng = stream()
        if content.dog_breed is not None:
            ids.append(self._id_base + content.dog_breed)
            confs.append(self._confidence(rng, content.dog_strength))
            self._junk_guess(rng, 0.3, 0.05, 0.35, ids, confs, (content.dog_breed,))
        else:
            # Breed classifiers hallucinate on furry non-dogs occasionally.
            self._junk_guess(rng, 0.1, 0.05, 0.35, ids, confs)


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
        self._salts = np.asarray([m._seed_salt for m in self._models], dtype=np.uint32)
        for array in (self._times, self._mems, self._salts):
            array.flags.writeable = False

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
    def salts(self) -> np.ndarray:
        """Per-model seed salts (``uint32``), aligned with zoo order (read-only)."""
        return self._salts

    @property
    def total_time(self) -> float:
        """Cost of the paper's "no policy": run everything."""
        return float(self._times.sum())
