"""Seeded synthetic corpora from a ground-truth pairwise Markov process.

Adapted from the world in tests/test_scale.py. Labels within a group share
one vocabulary, so emissions alone cannot separate them, and the previous
word picks its follower given the next label, a dependency only the
pairwise model can represent. The world itself (word pools, transition
matrix) is a fixed function of its parameters; the seed only drives the
sampling, so different seeds give statistically alike corpora.

Unknown test words keep the orthography of training words: a replacement
word is drawn from the same group pool beyond the indices training ever
samples and carries one of the training suffixes, so the suffix back-off
always finds a seen suffix and dead ends stay rare.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

SUFFIXES = ["ing", "ed", "tion", "ly", "er", "est", "ous", "al", "s", ""]
POOL = 900
COLLOCATIONS = 300


@dataclass(frozen=True)
class World:
    n_labels: int = 10
    groups: int = 2
    bio: bool = False

    def __post_init__(self):
        if self.n_labels % self.groups:
            raise ValueError("labels must split evenly into groups")
        if self.bio and self.n_labels % 2:
            raise ValueError("BIO labels come in B-/I- pairs")

    @property
    def per_group(self) -> int:
        return self.n_labels // self.groups

    def label_name(self, label: int) -> str:
        if self.bio:
            return f"{'BI'[label % 2]}-T{label // 2}"
        return f"L{label}"

    def word(self, group: int, index: int) -> str:
        return f"g{group}w{index}{SUFFIXES[index % len(SUFFIXES)]}"

    def transitions(self) -> list[list[float]]:
        """Row-stochastic label transitions, BIO-consistent when bio is set."""
        n = self.n_labels
        rows = []
        for i in range(n):
            row = [0.3 / n] * n
            row[(i + 1) % n] += 0.4
            row[(i + 3) % n] += 0.3
            if self.bio:
                # I-X may only follow B-X or I-X
                for j in range(1, n, 2):
                    if i // 2 != j // 2:
                        row[j] = 0.0
            total = sum(row)
            rows.append([p / total for p in row])
        return rows

    def initial_labels(self) -> list[int]:
        return list(range(0, self.n_labels, 2)) if self.bio else list(range(self.n_labels))


def _zipf_index(rng) -> int:
    return min(int(POOL * (rng.random() ** 4)), POOL - 1)


def _emit(world: World, rng, label: int, prev_word):
    group = label // world.per_group
    if prev_word is not None and rng.random() < 0.75:
        # collocation: previous word fixes the follower given the label
        index = (zlib.crc32(prev_word.encode()) + 131 * label) % COLLOCATIONS
    else:
        index = _zipf_index(rng)
    return world.word(group, index)


def _unknown_word(world: World, rng, label: int) -> str:
    group = label // world.per_group
    return world.word(group, POOL + rng.randrange(POOL))


def sample_sentences(world: World, rng, n_sentences: int, oov_share=0.0):
    """Sentences of (word, label-name) pairs, 4 to 22 tokens long.

    With probability oov_share a token's word is replaced by a word that
    no training corpus of this world contains; the chain continues from
    the original word, so the replacement does not change the labels.
    """
    trans = world.transitions()
    labels = range(world.n_labels)
    starts = world.initial_labels()
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(4, 22)
        label = rng.choice(starts)
        word = _emit(world, rng, label, None)
        chain = [(word, label)]
        for _ in range(length - 1):
            label = rng.choices(labels, weights=trans[label])[0]
            word = _emit(world, rng, label, word)
            chain.append((word, label))
        sentence = []
        for word, label in chain:
            if oov_share and rng.random() < oov_share:
                word = _unknown_word(world, rng, label)
            sentence.append((word, world.label_name(label)))
        sentences.append(sentence)
    return sentences


def make_rng(seed: int, stream: str) -> random.Random:
    """Independent generator per corpus, so sizes of one do not shift another."""
    return random.Random(f"{seed}:{stream}")


def conll_text(sentences) -> str:
    return "".join("".join(f"{w} {t}\n" for w, t in sent) + "\n" for sent in sentences)
