"""Character-level BPE tokenizer with a reserved tag-token layer.

The id space is dense and three-ranged: base text tokens (atoms first,
then merge products in merge order), the two tag tokens <PHON_START> and
<PHON_END>, and finally the speech-token range used by the codec. Tags are
atomic: they are never produced by a merge and always map to one id.

Phoneme spans (text between the tags) are encoded per character with atom
ids only, no merges, so one notation symbol is one id. Plain spans go
through the merge table greedily.

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
    TagLiteralInPlainText,
    UnbalancedTags,
    UncoveredSymbol,
    UnknownTokenId,
    UtterTuneError,
    VersionMismatch,
    VocabTooSmall,
)
from .notation import PhonemeAnnotation, parse_annotation, render_annotation

PHON_START = "<PHON_START>"
PHON_END = "<PHON_END>"

VOCAB_FORMAT_VERSION = "v1"
_VOCAB_MAGIC = "uttertune-vocab"


@dataclass(frozen=True)
class PlainSpan:
    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("plain span must be non-empty")

    def surface(self) -> str:
        return self.text


@dataclass(frozen=True)
class PhonemeSpan:
    annotation: PhonemeAnnotation

    def surface(self) -> str:
        return PHON_START + render_annotation(self.annotation) + PHON_END


@dataclass(frozen=True)
class TaggedText:
    spans: tuple

    def __post_init__(self):
        if not self.spans:
            raise ValueError("tagged text must contain at least one span")

    def surface(self) -> str:
        return "".join(s.surface() for s in self.spans)


@dataclass
class Vocabulary:
    """Token table: atoms + merges, tag tokens, speech-token range."""

    atoms: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    speech_token_count: int
    seed: int = 0
    version: str = VOCAB_FORMAT_VERSION

    atom_to_id: dict = field(init=False, repr=False, compare=False)
    merge_ranks: dict = field(init=False, repr=False, compare=False)
    token_strings: list = field(init=False, repr=False, compare=False)
    string_to_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.atom_to_id = {a: i for i, a in enumerate(self.atoms)}
        if len(self.atom_to_id) != len(self.atoms):
            raise CorruptFile("duplicate atoms in vocabulary")
        self.merge_ranks = {pair: r for r, pair in enumerate(self.merges)}
        strings = list(self.atoms)
        seen = set(strings)
        for left, right in self.merges:
            product = left + right
            if product in seen:
                raise CorruptFile(f"duplicate token string {product!r}")
            seen.add(product)
            strings.append(product)
        if PHON_START in seen or PHON_END in seen:
            raise CorruptFile("tag literal occurs as a base token")
        self.token_strings = strings
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
    no mergeable pair remains. The seed is recorded for provenance; the
    procedure itself is deterministic.
    """
    if not corpus:
        raise VocabTooSmall("corpus is empty")
    atoms = tuple(sorted({ch for line in corpus for ch in line}))
    if not atoms:
        raise VocabTooSmall("corpus contains no characters")
    for forbidden in ("\n", "\t"):
        if forbidden in atoms:
            raise VocabTooSmall(
                "corpus lines must not contain tabs or newlines"
            )
    if target_vocab_size < len(atoms):
        raise VocabTooSmall(
            f"target {target_vocab_size} below atom count {len(atoms)}"
        )

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


def parse_tagged(text: str) -> TaggedText:
    """Split tag-bearing text into plain and phoneme spans.

    Tags must be balanced and non-nested; the text between a tag pair must
    parse as an annotation (errors come back as InvalidAnnotation carrying
    the span's position in the original text).
    """
    spans: list = []
    pos = 0
    n = len(text)
    while pos < n:
        start = text.find(PHON_START, pos)
        stray_end = text.find(PHON_END, pos)
        if start == -1:
            if stray_end != -1:
                raise UnbalancedTags(
                    f"{PHON_END} at position {stray_end} has no opening tag"
                )
            spans.append(PlainSpan(text[pos:]))
            break
        if stray_end != -1 and stray_end < start:
            raise UnbalancedTags(
                f"{PHON_END} at position {stray_end} has no opening tag"
            )
        if start > pos:
            spans.append(PlainSpan(text[pos:start]))
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
            annotation = parse_annotation(body)
        except UtterTuneError as exc:
            raise InvalidAnnotation(body_at, exc) from exc
        spans.append(PhonemeSpan(annotation))
        pos = end + len(PHON_END)
    if not spans:
        raise UnbalancedTags("empty input has no spans")
    return TaggedText(spans=tuple(spans))


def _encode_plain(text: str, vocab: Vocabulary) -> list[int]:
    for tag in (PHON_START, PHON_END):
        if tag in text:
            raise TagLiteralInPlainText(
                f"literal {tag} inside plain text is reserved"
            )
    for ch in text:
        if ch not in vocab.atom_to_id:
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


def encode(tagged: TaggedText, vocab: Vocabulary) -> list[int]:
    """Token ids for tagged text.

    Plain spans use the merge table; phoneme spans become the start tag
    id, one atom id per rendered character, then the end tag id.
    """
    ids: list[int] = []
    for span in tagged.spans:
        if isinstance(span, PlainSpan):
            ids.extend(_encode_plain(span.text, vocab))
        else:
            ids.append(vocab.phon_start_id)
            for ch in render_annotation(span.annotation):
                atom = vocab.atom_to_id.get(ch)
                if atom is None:
                    raise UncoveredSymbol(
                        f"annotation character {ch!r} not covered by vocabulary"
                    )
                ids.append(atom)
            ids.append(vocab.phon_end_id)
    return ids


def encode_text(text: str, vocab: Vocabulary) -> list[int]:
    """Convenience: parse_tagged then encode."""
    return encode(parse_tagged(text), vocab)


def decode(ids, vocab: Vocabulary) -> str:
    """Surface text for a sequence of text/tag ids.

    Speech-range ids are rejected here; they carry no surface text and
    decode through the codec instead.
    """
    parts: list[str] = []
    for tid in ids:
        tid = int(tid)
        if 0 <= tid < vocab.base_size:
            parts.append(vocab.token_strings[tid])
        elif tid == vocab.phon_start_id:
            parts.append(PHON_START)
        elif tid == vocab.phon_end_id:
            parts.append(PHON_END)
        elif vocab.speech_token_offset <= tid < vocab.total_size:
            raise UnknownTokenId(
                f"id {tid} is a speech token; decode it via the codec"
            )
        else:
            raise UnknownTokenId(f"id {tid} outside the vocabulary")
    return "".join(parts)


def save_vocab(vocab: Vocabulary, path) -> None:
    lines = [
        f"{_VOCAB_MAGIC} {vocab.version}",
        f"seed {vocab.seed}",
        f"atoms {len(vocab.atoms)}",
        *vocab.atoms,
        f"merges {len(vocab.merges)}",
        *(f"{left}\t{right}" for left, right in vocab.merges),
        f"specials {PHON_START} {vocab.phon_start_id} {PHON_END} {vocab.phon_end_id}",
        f"speech {vocab.speech_token_offset} {vocab.speech_token_count}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_vocab(path) -> Vocabulary:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise CorruptFile(f"{path}: not a vocabulary file") from None
    it = iter(lines)

    def next_line() -> str:
        try:
            return next(it)
        except StopIteration:
            raise CorruptFile("vocabulary file truncated") from None

    header = next_line().split(" ")
    if len(header) != 2 or header[0] != _VOCAB_MAGIC:
        raise CorruptFile("not a vocabulary file")
    if header[1] != VOCAB_FORMAT_VERSION:
        raise VersionMismatch(
            f"vocabulary version {header[1]} != {VOCAB_FORMAT_VERSION}"
        )
    seed_line = next_line().split(" ")
    if len(seed_line) != 2 or seed_line[0] != "seed":
        raise CorruptFile("missing seed line")
    try:
        seed = int(seed_line[1])
        n_atoms = int(_expect(next_line(), "atoms"))
        atoms = tuple(next_line() for _ in range(n_atoms))
        n_merges = int(_expect(next_line(), "merges"))
        merges = []
        for _ in range(n_merges):
            left, right = next_line().split("\t")
            merges.append((left, right))
        specials = next_line().split(" ")
        speech = next_line().split(" ")
        if len(specials) != 5 or specials[0] != "specials":
            raise CorruptFile("malformed specials line")
        if len(speech) != 3 or speech[0] != "speech":
            raise CorruptFile("malformed speech line")
        speech_offset = int(speech[1])
        speech_count = int(speech[2])
    except (ValueError, CorruptFile) as exc:
        if isinstance(exc, CorruptFile):
            raise
        raise CorruptFile(f"malformed vocabulary file: {exc}") from exc
    vocab = Vocabulary(
        atoms=atoms,
        merges=tuple(merges),
        speech_token_count=speech_count,
        seed=seed,
    )
    if (
        specials[1] != PHON_START
        or int(specials[2]) != vocab.phon_start_id
        or specials[3] != PHON_END
        or int(specials[4]) != vocab.phon_end_id
        or speech_offset != vocab.speech_token_offset
    ):
        raise CorruptFile("id layout in file disagrees with contents")
    return vocab


def _expect(line: str, keyword: str) -> str:
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != keyword:
        raise CorruptFile(f"expected {keyword} line, got {line!r}")
    return parts[1]
