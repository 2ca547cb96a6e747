"""Phoneme-level pronunciation and pitch-accent control for a toy
speech-token language model, via low-rank adapters and a phoneme-mode
tag protocol."""

__version__ = "0.1.0"

from .notation import (  # noqa: F401
    AccentPhrase,
    Mora,
    PhonemeAnnotation,
    derive_pitch,
    normalize_kana,
    parse_annotation,
    render_annotation,
    segment_morae,
)
