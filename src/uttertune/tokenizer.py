"""Character-level BPE tokenizer with a reserved tag-token layer.

The id space is dense and three-ranged: base text tokens (atoms first,
then merge products in merge order), the two tag tokens <PHON_START> and
<PHON_END>, and finally the speech tokens, one per speech code. Tags are
atomic: they are never produced by a merge and always map to one id.

encode_text is the one encoder. It splits the text into plain strings and
parsed annotations, checking the whole tag structure before any span is
encoded, then encodes the pieces in one pass. Phoneme spans (text between
the tags) are encoded per character with atom ids only, no merges, so one
notation symbol is one id. Plain text goes through the merge table
greedily.

Training is string-keyed: a candidate merge whose product string already
exists as a token (or equals a tag literal) is skipped, keeping the
token-string -> id map a bijection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    CorruptFile,
    InvalidAnnotation,
    NestedTags,
    UnbalancedTags,
    UncoveredSymbol,
    UtterTuneError,
    VocabTooSmall,
)
from .notation import parse_annotation, render_annotation
from .tensorio import load_table, save_table

PHON_START = "<PHON_START>"
PHON_END = "<PHON_END>"

_VOCAB_MAGIC = "uttertune-vocab v2"
_VOCAB_KEYS = ("seed", "speech_tokens", "atoms", "merges")


@dataclass
class Vocabulary:
    """Token table: atoms + merges, tag tokens, speech-token range."""

    atoms: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    speech_token_count: int
    seed: int = 0

    merge_ranks: dict = field(init=False, repr=False, compare=False)
    string_to_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.speech_token_count < 1:
            raise CorruptFile(f"speech token count {self.speech_token_count} < 1")
        if any(len(a) != 1 for a in self.atoms):
            raise CorruptFile("every atom must be one character")
        strings = list(self.atoms)
        seen = set(strings)
        if len(seen) != len(strings):
            raise CorruptFile("duplicate atoms in vocabulary")
        self.merge_ranks = {pair: r for r, pair in enumerate(self.merges)}
        for left, right in self.merges:
            if left not in seen or right not in seen:
                raise CorruptFile(f"merge {left!r} + {right!r} joins a "
                                  f"string that is no earlier token")
            product = left + right
            if product in seen:
                raise CorruptFile(f"duplicate token string {product!r}")
            seen.add(product)
            strings.append(product)
        if PHON_START in seen or PHON_END in seen:
            raise CorruptFile("tag literal occurs as a base token")
        self.string_to_id = {s: i for i, s in enumerate(strings)}

    @property
    def base_size(self) -> int:
        return len(self.atoms) + len(self.merges)

    @property
    def phon_start_id(self) -> int:
        return self.base_size

    @property
    def phon_end_id(self) -> int:
        return self.base_size + 1

    @property
    def speech_token_offset(self) -> int:
        return self.base_size + 2

    @property
    def total_size(self) -> int:
        return self.speech_token_offset + self.speech_token_count


def train_bpe(
    corpus: list[str],
    target_vocab_size: int,
    seed: int = 0,
    speech_token_count: int = 61,
) -> Vocabulary:
    """Learn a merge table by descending pair frequency.

    target_vocab_size counts base text tokens (atoms plus merges). Ties
    break toward the lexicographically smaller pair. Merges stop early if
    no mergeable pair remains. A target equal to the atom count wants no
    merge: the vocabulary is the atoms, and the pair index (each pair's
    count and the lines that hold it) is never built. The seed is recorded
    for provenance; the procedure itself is deterministic.
    """
    if not corpus:
        raise VocabTooSmall("corpus is empty")
    atoms = tuple(sorted({ch for line in corpus for ch in line}))
    if not atoms:
        raise VocabTooSmall("corpus contains no characters")
    if "\n" in atoms or "\t" in atoms:
        raise VocabTooSmall("corpus lines must not contain tabs or newlines")
    if target_vocab_size < len(atoms):
        raise VocabTooSmall(
            f"target {target_vocab_size} below atom count {len(atoms)}"
        )
    if target_vocab_size == len(atoms):
        return Vocabulary(atoms=atoms, merges=(),
                          speech_token_count=speech_token_count, seed=seed)

    sequences = [list(line) for line in corpus if line]
    pair_counts: Counter = Counter()
    pair_to_seqs: dict[tuple[str, str], set[int]] = {}
    for si, seq in enumerate(sequences):
        for pair in zip(seq, seq[1:]):
            pair_counts[pair] += 1
            pair_to_seqs.setdefault(pair, set()).add(si)

    taken = set(atoms) | {PHON_START, PHON_END}
    merges: list[tuple[str, str]] = []
    while len(atoms) + len(merges) < target_vocab_size:
        best = None
        best_key = None
        for pair, count in pair_counts.items():
            if count <= 0 or (pair[0] + pair[1]) in taken:
                continue
            key = (-count, pair)
            if best_key is None or key < best_key:
                best_key = key
                best = pair
        if best is None:
            break
        product = best[0] + best[1]
        for si in sorted(pair_to_seqs.get(best, ())):
            seq = sequences[si]
            if len(seq) < 2:
                continue
            for pair in zip(seq, seq[1:]):
                pair_counts[pair] -= 1
                pair_to_seqs[pair].discard(si)
            merged = _merge_once(seq, best, product)
            sequences[si] = merged
            for pair in zip(merged, merged[1:]):
                pair_counts[pair] += 1
                pair_to_seqs.setdefault(pair, set()).add(si)
        merges.append(best)
        taken.add(product)

    return Vocabulary(
        atoms=atoms,
        merges=tuple(merges),
        speech_token_count=speech_token_count,
        seed=seed,
    )


def _merge_once(seq: list[str], pair: tuple[str, str], product: str) -> list[str]:
    """Replace non-overlapping occurrences of pair left to right."""
    out: list[str] = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(product)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def encode_text(text: str, vocab: Vocabulary) -> list[int]:
    """Token ids for tag-bearing text.

    Plain text uses the merge table; a phoneme span becomes the start tag
    id, one atom id per rendered character, then the end tag id. Tags must
    be balanced and non-nested, and the text between a tag pair must parse
    as an annotation (errors come back as InvalidAnnotation carrying the
    span's position in the original text); all of that is checked before
    any piece is encoded.
    """
    if not text:
        raise UnbalancedTags("empty input has no spans")
    pieces: list = []  # plain strings and parsed annotations, in order
    pos = 0
    while pos < len(text):
        start = text.find(PHON_START, pos)
        stray_end = text.find(PHON_END, pos)
        if stray_end != -1 and (start == -1 or stray_end < start):
            raise UnbalancedTags(
                f"{PHON_END} at position {stray_end} has no opening tag"
            )
        if start == -1:
            pieces.append(text[pos:])
            break
        if start > pos:
            pieces.append(text[pos:start])
        body_at = start + len(PHON_START)
        end = text.find(PHON_END, body_at)
        if end == -1:
            raise UnbalancedTags(f"{PHON_START} at position {start} is never closed")
        body = text[body_at:end]
        if PHON_START in body:
            raise NestedTags(
                f"{PHON_START} reopened inside the span at position {start}"
            )
        try:
            pieces.append(parse_annotation(body))
        except UtterTuneError as exc:
            raise InvalidAnnotation(body_at, exc) from exc
        pos = end + len(PHON_END)

    ids: list[int] = []
    for piece in pieces:
        if isinstance(piece, str):
            ids.extend(_encode_plain(piece, vocab))
            continue
        ids.append(vocab.phon_start_id)
        for ch in render_annotation(piece):
            atom = vocab.string_to_id.get(ch)
            if atom is None:
                raise UncoveredSymbol(
                    f"annotation character {ch!r} not covered by vocabulary"
                )
            ids.append(atom)
        ids.append(vocab.phon_end_id)
    return ids


def _encode_plain(text: str, vocab: Vocabulary) -> list[int]:
    # Merge products are two characters or more, so one character is a
    # token exactly when it is an atom.
    for ch in text:
        if ch not in vocab.string_to_id:
            raise UncoveredSymbol(f"character {ch!r} not covered by vocabulary")
    symbols = list(text)
    ranks = vocab.merge_ranks
    while len(symbols) > 1:
        best_rank = None
        best_pair = None
        for pair in zip(symbols, symbols[1:]):
            r = ranks.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_pair = pair
        if best_pair is None:
            break
        symbols = _merge_once(symbols, best_pair, best_pair[0] + best_pair[1])
    return [vocab.string_to_id[sym] for sym in symbols]


def save_vocab(vocab: Vocabulary, path) -> None:
    """A table: seed, speech-token count, the one-character atoms joined
    into one string and the merge count, then one (left, right) row per
    merge. Token ids follow from these, so the file states none."""
    header = {"seed": vocab.seed, "speech_tokens": vocab.speech_token_count,
              "atoms": "".join(vocab.atoms), "merges": len(vocab.merges)}
    save_table(path, _VOCAB_MAGIC, header, vocab.merges)


def load_vocab(path) -> Vocabulary:
    header, rows = load_table(path, _VOCAB_MAGIC, _VOCAB_KEYS, 2)
    try:
        seed, speech_tokens, n_merges = (
            int(header[key]) for key in ("seed", "speech_tokens", "merges")
        )
        vocab = Vocabulary(tuple(header["atoms"]), tuple(map(tuple, rows)),
                           speech_tokens, seed)
    except (ValueError, CorruptFile) as exc:
        raise CorruptFile(f"{path}: bad value {exc}") from None
    if n_merges != len(rows):
        raise CorruptFile(
            f"{path}: header states {n_merges} merges, file holds {len(rows)}"
        )
    return vocab
