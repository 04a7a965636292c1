"""Per-character tag scheme turning triple extraction into sequence labeling.

Each character carries one tag: 'O', or position-relation-role where position
is B/I/E/S (begin/inside/end/single), relation is one of the scheme's relation
names, and role is 1 (head entity) or 2 (tail entity). Tag count is
k = 8*|relations| + 1.

The scheme cannot express overlapping entity spans, and it drops explicit
head/tail pairing: decoding pairs mentions per relation by nearest distance.
Encoding followed by decoding is exact for sentences whose entity spans are
disjoint and which carry at most one triple per relation.

Decoding reads each tag once, left to right, and keeps the maximal
well-formed mentions grouped by (relation, role); each relation's heads then
pair with its tails.
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
        # a tuple keeps the scheme hashable and its relations fixed
        object.__setattr__(self, "relations", tuple(self.relations))
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


def build_scheme(relations: Sequence[str]) -> TagScheme:
    return TagScheme(relations)


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
        for (s, e), role in ((t.head_span, HEAD), (t.tail_span, TAIL)):
            positions = ["S"] if e - s == 1 else ["B"] + ["I"] * (e - s - 2) + ["E"]
            for pos, position in zip(range(s, e), positions):
                if tags[pos] != 0:
                    raise TagEncodeError(
                        f"span collision at char {pos}: triple {t.key()} vs "
                        f"{owner[pos].key()}")
                tags[pos] = scheme.tag_id(position, t.relation, role)
                owner[pos] = t
    return tags


def _mentions(tags: Sequence[int],
              scheme: TagScheme) -> dict[tuple[str, int], list[tuple[int, int]]]:
    """Maximal well-formed mention spans [start, end), left to right, grouped
    by (relation, role).

    A mention is a single S tag, or B followed by any number of I and one E,
    all carrying the same relation and role. Anything else is dropped.
    """
    groups: dict[tuple[str, int], list[tuple[int, int]]] = {}
    open_start, open_kind = None, None  # the B whose mention is still open
    for i, tag in enumerate(tags):
        info = scheme.tag_info(tag)
        position, kind = (None, None) if info is None else (info[0], info[1:])
        if position == "I" and kind == open_kind:
            continue
        if position == "S":
            groups.setdefault(kind, []).append((i, i + 1))
        elif position == "E" and kind == open_kind:
            groups.setdefault(kind, []).append((open_start, i + 1))
        open_start, open_kind = (i, kind) if position == "B" else (None, None)
    return groups


def decode_triples(tags: Sequence[int], text: str,
                   scheme: TagScheme) -> list[Triple]:
    """Triples from an arbitrary (possibly ill-formed) tag sequence.

    Per relation, each head mention (in span order) pairs with the nearest
    unpaired tail mention; equal distances break toward the right. Unpaired
    mentions are discarded. Raises ValueError unless there is one tag per
    character of text, and ValueError (from `TagScheme.tag_info`) for a tag
    id outside [0, k).
    """
    if len(tags) != len(text):
        raise ValueError(f"{len(tags)} tags for {len(text)} characters")
    mentions = _mentions(tags, scheme)
    out = []
    for relation in scheme.relations:
        unpaired = mentions.get((relation, TAIL), [])
        for h0, h1 in mentions.get((relation, HEAD), ()):
            if not unpaired:
                break
            # the max is the gap between the disjoint spans in either order
            t0, t1 = min(unpaired, key=lambda t: (max(t[0] - h1, h0 - t[1]), -t[0]))
            unpaired.remove((t0, t1))
            out.append(Triple(head=text[h0:h1], head_span=(h0, h1),
                              tail=text[t0:t1], tail_span=(t0, t1),
                              relation=relation))
    out.sort(key=lambda t: (t.head_span, t.tail_span, t.relation))
    return out
