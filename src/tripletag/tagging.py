"""Per-character tag scheme turning triple extraction into sequence labeling.

Each character carries one tag: 'O', or position-relation-role where position
is B/I/E/S (begin/inside/end/single), relation is one of the scheme's relation
names, and role is 1 (head entity) or 2 (tail entity). Tag count is
k = 8*|relations| + 1.

The scheme cannot express overlapping entity spans, and it drops explicit
head/tail pairing: decoding pairs mentions per relation by nearest distance.
Encoding followed by decoding is exact for sentences whose entity spans are
disjoint and which carry at most one triple per relation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

POSITIONS = ("B", "I", "E", "S")
HEAD, TAIL = 1, 2


class TagEncodeError(ValueError):
    """Raised when a triple set cannot be expressed in the tag scheme."""


@dataclass(frozen=True)
class Triple:
    """A (head, relation, tail) fact with character spans [start, end)."""

    head: str
    head_span: tuple[int, int]
    tail: str
    tail_span: tuple[int, int]
    relation: str

    def key(self) -> tuple:
        return (self.head_span, self.tail_span, self.relation)


@dataclass(frozen=True)
class TagScheme:
    """Bijection between tag ids and (position, relation, role), 'O' at id 0.

    Ids are dense: id = 1 + pos_index*2*|R| + relation_index*2 + (role-1),
    positions ordered B, I, E, S and relations in list order.
    """

    relations: tuple[str, ...]

    def __post_init__(self):
        if not self.relations:
            raise ValueError("relation list is empty")
        dupes = sorted(r for r, count in Counter(self.relations).items() if count > 1)
        if dupes:
            raise ValueError(f"duplicate relations: {dupes}")

    @property
    def k(self) -> int:
        return 8 * len(self.relations) + 1

    def tag_id(self, position: str, relation: str, role: int) -> int:
        """The id of (position, relation, role); ValueError names a field the
        scheme does not have."""
        if position not in POSITIONS:
            raise ValueError(f"position {position!r} is not one of {POSITIONS}")
        if relation not in self.relations:
            raise ValueError(f"relation {relation!r} is not in the scheme")
        if role not in (HEAD, TAIL):
            raise ValueError(f"role {role!r} is not {HEAD} (head) or {TAIL} (tail)")
        p = POSITIONS.index(position)
        r = self.relations.index(relation)
        return 1 + p * 2 * len(self.relations) + r * 2 + (role - 1)

    def tag_info(self, tag_id: int) -> Optional[tuple[str, str, int]]:
        """(position, relation, role) for entity tags, None for 'O'."""
        if tag_id == 0:
            return None
        if not 0 < tag_id < self.k:
            raise ValueError(f"tag id {tag_id} outside [0, {self.k})")
        i = tag_id - 1
        per_pos = 2 * len(self.relations)
        position = POSITIONS[i // per_pos]
        relation = self.relations[(i % per_pos) // 2]
        role = (i % 2) + 1
        return position, relation, role

    def tag_name(self, tag_id: int) -> str:
        info = self.tag_info(tag_id)
        if info is None:
            return "O"
        position, relation, role = info
        return f"{position}-{relation}-{role}"


def build_scheme(relations: Sequence[str]) -> TagScheme:
    return TagScheme(tuple(relations))


def _span_tags(scheme: TagScheme, span: tuple[int, int], relation: str,
               role: int) -> list[tuple[int, int]]:
    start, end = span
    if end - start == 1:
        return [(start, scheme.tag_id("S", relation, role))]
    out = [(start, scheme.tag_id("B", relation, role))]
    out += [(i, scheme.tag_id("I", relation, role)) for i in range(start + 1, end - 1)]
    out.append((end - 1, scheme.tag_id("E", relation, role)))
    return out


def encode_tags(n: int, triples: Sequence[Triple], scheme: TagScheme) -> list[int]:
    """Gold tag sequence for a sentence of n characters.

    Raises TagEncodeError when any two entity spans collide (the scheme
    assigns one tag per character), a span leaves [0, n) or a relation is
    not in the scheme.
    """
    tags = [0] * n
    owner: list[Optional[Triple]] = [None] * n
    for t in triples:
        if t.relation not in scheme.relations:
            raise TagEncodeError(
                f"relation {t.relation!r} of triple {t.key()} is not in the scheme")
        hs, he = t.head_span
        ts, te = t.tail_span
        for (s, e), what in ((t.head_span, "head"), (t.tail_span, "tail")):
            if not (0 <= s < e <= n):
                raise TagEncodeError(
                    f"{what} span [{s},{e}) outside sentence of length {n}")
        if max(hs, ts) < min(he, te):
            raise TagEncodeError(
                f"head span [{hs},{he}) overlaps tail span [{ts},{te}) "
                f"within triple {t.key()}")
        for pos, tag in (_span_tags(scheme, t.head_span, t.relation, HEAD)
                         + _span_tags(scheme, t.tail_span, t.relation, TAIL)):
            if tags[pos] != 0:
                raise TagEncodeError(
                    f"span collision at char {pos}: triple {t.key()} vs "
                    f"{owner[pos].key()}")
            tags[pos] = tag
            owner[pos] = t
    return tags


def _scan_mentions(tags: Sequence[int],
                   scheme: TagScheme) -> list[tuple[int, int, str, int]]:
    """Maximal well-formed mentions (start, end, relation, role), left to right.

    A mention is a single S tag, or B followed by any number of I and one E,
    all carrying the same relation and role. Anything else is dropped.
    """
    mentions = []
    n = len(tags)
    i = 0
    while i < n:
        info = scheme.tag_info(tags[i])
        if info is None:
            i += 1
            continue
        position, relation, role = info
        if position == "S":
            mentions.append((i, i + 1, relation, role))
            i += 1
            continue
        if position == "B":
            j = i + 1
            while j < n and scheme.tag_info(tags[j]) == ("I", relation, role):
                j += 1
            if j < n and scheme.tag_info(tags[j]) == ("E", relation, role):
                mentions.append((i, j + 1, relation, role))
                i = j + 1
                continue
        i += 1  # dangling B/I/E or inconsistent run
    return mentions


def _span_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    if b[0] >= a[1]:
        return b[0] - a[1]
    return a[0] - b[1]


def decode_triples(tags: Sequence[int], text: str,
                   scheme: TagScheme) -> list[Triple]:
    """Triples from an arbitrary (possibly ill-formed) tag sequence.

    Per relation, each head mention (in span order) pairs with the nearest
    unpaired tail mention; equal distances break toward the right. Unpaired
    mentions are discarded. Raises ValueError unless there is one tag per
    character of text.
    """
    if len(tags) != len(text):
        raise ValueError(f"{len(tags)} tags for {len(text)} characters")
    mentions = _scan_mentions(tags, scheme)
    out = []
    for relation in scheme.relations:
        heads = [(s, e) for s, e, r, role in mentions
                 if r == relation and role == HEAD]
        tails = [(s, e) for s, e, r, role in mentions
                 if r == relation and role == TAIL]
        unpaired = list(tails)
        for h in heads:
            if not unpaired:
                break
            best = max(unpaired, key=lambda t: (-_span_distance(h, t), t[0]))
            unpaired.remove(best)
            out.append(Triple(
                head=text[h[0]:h[1]], head_span=h,
                tail=text[best[0]:best[1]], tail_span=best,
                relation=relation))
    out.sort(key=lambda t: (t.head_span, t.tail_span, t.relation))
    return out


@dataclass(frozen=True)
class ExtractionScore:
    precision: float
    recall: float
    f1: float
    n_predicted: int
    n_gold: int
    n_correct: int


def score(predicted: Sequence[Sequence[Triple]],
          gold: Sequence[Sequence[Triple]]) -> ExtractionScore:
    """Exact-match precision/recall/F1 over aligned sentence lists.

    A prediction counts iff head span, tail span, and relation all equal an
    as-yet-unmatched gold triple of the same sentence.
    """
    if len(predicted) != len(gold):
        raise ValueError(
            f"sentence count mismatch: {len(predicted)} predicted vs "
            f"{len(gold)} gold")
    n_pred = n_gold = n_correct = 0
    for p_sent, g_sent in zip(predicted, gold):
        p_keys = Counter(t.key() for t in p_sent)
        g_keys = Counter(t.key() for t in g_sent)
        n_pred += len(p_sent)
        n_gold += len(g_sent)
        n_correct += sum((p_keys & g_keys).values())
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return ExtractionScore(precision, recall, f1, n_pred, n_gold, n_correct)
