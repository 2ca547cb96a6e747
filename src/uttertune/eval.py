"""Evaluation: kana-normalized CER, accent correctness, leakage test.

CER is Levenshtein distance over kana-normalized character sequences
divided by normalized reference length; samples with CER > 0.5 are
excluded from aggregates. Accent correctness is an exact match of the
target word's pitch sub-pattern, read off the generated speech codes at
the oracle's mora positions — each code carries its mora's pitch, so no
listener stands between the model and the judgment.

The leakage test asks whether tagging one word changes the accent of a
different, untagged word: it compares the base model on fully plain
input against the adapted model on the one-word-tagged input, and
bootstraps a confidence interval for the correctness difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataprep import EvalItem, codes_to_kana, codes_to_pitch, decode_speech_ids
from .errors import CorruptFile
from .kernels import edit_distance, edit_distance_tables
from .model import ToyLM, generate
from .notation import normalize_kana
from .tensorio import load_table, save_table
from .tokenizer import Vocabulary, encode_text

CER_EXCLUSION_THRESHOLD = 0.5
_EXCLUSION_REASON = f"cer>{CER_EXCLUSION_THRESHOLD}"
EVAL_MODES = ("plain", "kana", "tagged")
_DEFAULT_MAX_NEW = 40


def cer(reference: str, hypothesis: str) -> float:
    """Character error rate over kana-normalized strings."""
    ref = normalize_kana(reference)
    hyp = normalize_kana(hypothesis)
    return _cer(edit_distance(_chars(ref), _chars(hyp)), len(ref), len(hyp))


def _cer(distance: int, ref_len: int, hyp_len: int) -> float:
    """The CER of a normalized pair from its edit distance: distance per
    reference character, and for an empty reference 1.0 unless the
    hypothesis is empty too."""
    if not ref_len:
        return 1.0 if hyp_len else 0.0
    return distance / ref_len


def _chars(text: str) -> list[int]:
    """The code points of text, as the id sequence the DP compares."""
    return [ord(c) for c in text]


@dataclass(frozen=True)
class SampleResult:
    item_id: int
    cer: float
    accent_correct: bool
    hypothesis_kana: str
    hypothesis_pitch: str

    @property
    def excluded(self) -> bool:
        return self.cer > CER_EXCLUSION_THRESHOLD


@dataclass(frozen=True)
class EvalReport:
    """One eval set's rows, and the aggregates computed from them."""

    mode: str
    per_sample: tuple[SampleResult, ...]

    @property
    def n_items(self) -> int:
        return len(self.per_sample)

    @property
    def n_excluded(self) -> int:
        return sum(r.excluded for r in self.per_sample)

    @property
    def mean_cer(self) -> float:
        return self._kept_mean(lambda r: r.cer)

    @property
    def accent_rate(self) -> float:
        return self._kept_mean(lambda r: r.accent_correct)

    def _kept_mean(self, value) -> float:
        kept = [value(r) for r in self.per_sample if not r.excluded]
        return sum(kept) / len(kept) if kept else 0.0


def item_text(item: EvalItem, mode: str) -> str:
    if mode == "plain":
        return item.text_plain
    if mode == "kana":
        return item.text_kana
    if mode == "tagged":
        return item.text_tagged
    raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")


def _align_target_span(table, ref_ids, hyp_ids, lo, hi):
    """Locate reference morae [lo, hi) inside the hypothesis.

    table holds the Levenshtein table of the two mora sequences in its
    top-left block, as kernels.edit_distance_tables gives it. Backtraces
    that block to a minimal-edit alignment, and returns the start of the
    hypothesis run matched one-to-one to the span, or None when any span
    mora was substituted, dropped, or split apart by an insertion.
    The backtrace prefers diagonal then deletion moves, so the result is
    deterministic even when several alignments tie.
    """
    n, m = len(ref_ids), len(hyp_ids)
    dist = table[: n + 1, : m + 1].tolist()
    link: list[int | None] = [None] * n
    i, j = n, m
    while i > 0:
        if j > 0 and dist[i][j] == dist[i - 1][j - 1] + (
            ref_ids[i - 1] != hyp_ids[j - 1]
        ):
            if ref_ids[i - 1] == hyp_ids[j - 1]:
                link[i - 1] = j - 1
            i, j = i - 1, j - 1
        elif dist[i][j] == dist[i - 1][j] + 1:
            i -= 1
        else:
            j -= 1
    span = link[lo:hi]
    if not span or None in span:
        return None
    if span != list(range(span[0], span[0] + (hi - lo))):
        return None
    return span[0]


def _judge_set(vocab, items, hyps) -> tuple[SampleResult, ...]:
    """Each item's SampleResult for its hypothesis ids, from two DPs over
    the whole set: one on the normalized kana for CER, one on the mora ids
    for the target-span alignment."""
    codes = [decode_speech_ids(ids, vocab.speech_token_offset) for ids in hyps]
    hyp_kana = [codes_to_kana(c) for c in codes]
    refs = [normalize_kana(item.reference_kana()) for item in items]
    hyp_chars = [normalize_kana(kana) for kana in hyp_kana]
    kana = edit_distance_tables([_chars(r) for r in refs],
                                [_chars(h) for h in hyp_chars])
    ref_morae = [[c >> 1 for c in item.codes] for item in items]
    hyp_morae = [[c >> 1 for c in hyp] for hyp in codes]
    morae = edit_distance_tables(ref_morae, hyp_morae)
    rows = []
    for k, item in enumerate(items):
        ref_len, hyp_len = len(refs[k]), len(hyp_chars[k])
        sample_cer = _cer(int(kana[k, ref_len, hyp_len]), ref_len, hyp_len)
        lo = item.target_mora_start
        hi = lo + item.target_mora_count
        start = _align_target_span(morae[k], ref_morae[k], hyp_morae[k], lo, hi)
        hyp_pitch = codes_to_pitch(codes[k])
        accent_correct = (
            start is not None
            and hyp_pitch[start : start + item.target_mora_count]
            == item.target_pitch()
        )
        rows.append(SampleResult(item.item_id, sample_cer, accent_correct,
                                 hyp_kana[k], hyp_pitch))
    return tuple(rows)


def evaluate_set(
    model: ToyLM,
    vocab: Vocabulary,
    items,
    mode: str,
    adapter=None,
    max_new: int = _DEFAULT_MAX_NEW,
) -> EvalReport:
    """Greedy generation and scoring over one eval set.

    Each item may emit up to max_new speech tokens, fewer where its prompt
    leaves less room in the model's context. All prompts go to generate in
    one call, which decodes them in length-matched batches; the ids it
    returns equal those of decoding each item on its own.

    Accent is judged on the target word located by minimal-edit alignment of
    the hypothesis morae against the reference reading — the textual analog
    of finding the word inside a transcription. Accent counts as correct only
    when every mora of the word appears exactly and contiguously in the
    hypothesis with the target pitch pattern.

    Judging runs the pair DP, kernels.edit_distance_tables, twice per set
    whatever its size: over every item's normalized kana, where each pair's
    last cell gives its CER, and over the mora ids, whose per-item tables
    the target-span backtraces read.
    """
    items = tuple(items)
    prompts = [encode_text(item_text(item, mode), vocab) for item in items]
    hyps = generate(model, prompts, max_new=max_new, adapter=adapter)
    return EvalReport(mode, _judge_set(vocab, items, hyps))


# -- report serialization ------------------------------------------------------

_REPORT_MAGIC = "uttertune-evalreport v1"
_REPORT_KEYS = ("mode", "n_items", "n_excluded", "mean_cer", "accent_rate")
_ACCENT = {"correct": True, "incorrect": False}
# A row's kept and reason cells, by its exclusion.
_EXCLUSION_CELLS = {True: ("excluded", _EXCLUSION_REASON), False: ("kept", "-")}
_EXCLUDED = {cells[0]: value for value, cells in _EXCLUSION_CELLS.items()}


def save_report(report: EvalReport, path) -> None:
    accent = {value: text for text, value in _ACCENT.items()}
    rows = (
        (r.item_id, r.cer, accent[r.accent_correct],
         *_EXCLUSION_CELLS[r.excluded], r.hypothesis_kana, r.hypothesis_pitch)
        for r in report.per_sample
    )
    header = {key: getattr(report, key) for key in _REPORT_KEYS}
    save_table(path, _REPORT_MAGIC, header, rows)


def load_report(path) -> EvalReport:
    """A saved report; its CERs must be finite and >= 0, and its kept and
    reason cells and header aggregates equal to those computed from its
    rows."""
    header, rows = load_table(path, _REPORT_MAGIC, _REPORT_KEYS, 7)
    if header["mode"] not in EVAL_MODES:
        raise CorruptFile(f"{path}: bad value mode {header['mode']!r}")
    try:
        parsed = [
            (SampleResult(int(item_id), float(cer_text), _ACCENT[judged],
                          kana, pitch), _EXCLUDED[kept], reason)
            for item_id, cer_text, judged, kept, reason, kana, pitch in rows
        ]
        stated = (int(header["n_items"]), int(header["n_excluded"]),
                  float(header["mean_cer"]), float(header["accent_rate"]))
    except (KeyError, ValueError) as exc:
        raise CorruptFile(f"{path}: bad value {exc}") from None
    for r, excluded, reason in parsed:
        if not 0.0 <= r.cer < math.inf:
            raise CorruptFile(f"{path}: item {r.item_id}: cer {r.cer!r} is "
                              f"not a finite value >= 0")
        if excluded != r.excluded or reason != _EXCLUSION_CELLS[excluded][1]:
            raise CorruptFile(f"{path}: item {r.item_id}: exclusion and "
                              f"reason do not follow from cer {r.cer!r}")
    report = EvalReport(header["mode"], tuple(r for r, _, _ in parsed))
    if stated != (report.n_items, report.n_excluded, report.mean_cer,
                  report.accent_rate):
        raise CorruptFile(f"{path}: report aggregates do not match its rows")
    return report


def format_summary(report) -> str:
    """A report's aggregates as an aligned two-line text table."""
    return (
        f"{'mode':<8} {'items':>5} {'excl':>4} {'CER':>8} {'accent':>7}\n"
        f"{report.mode:<8} {report.n_items:>5} {report.n_excluded:>4} "
        f"{report.mean_cer:>8.4f} {report.accent_rate:>7.3f}"
    )


# -- leakage -------------------------------------------------------------------


@dataclass(frozen=True)
class LeakageOutcome:
    item_id: int
    grapheme: str
    baseline_correct: bool
    adapted_correct: bool


@dataclass(frozen=True)
class LeakageResult:
    """Per-word paired outcomes and the bootstrap CI of adapted - baseline;
    the rates and their difference are computed from the outcomes."""

    ci_low: float
    ci_high: float
    resamples: int
    outcomes: tuple[LeakageOutcome, ...]

    @property
    def baseline_rate(self) -> float:
        return (sum(o.baseline_correct for o in self.outcomes)
                / len(self.outcomes))

    @property
    def adapted_rate(self) -> float:
        return (sum(o.adapted_correct for o in self.outcomes)
                / len(self.outcomes))

    @property
    def difference(self) -> float:
        return self.adapted_rate - self.baseline_rate


# Resamples drawn and averaged per step of bootstrap_diff_ci. At the desk's
# 240 items x 10,000 a step's int32 index and float64 gather peak at 3.1 MB
# traced (the whole index alone was 9.6 MB). 128 to 1,024 rows took the same
# 28-30 ms per call; 256 rows peak at 0.9 MB but left perfbench eval's peak
# RSS where it was (55.7-56.0 MB over three seeds), which decode sets now.
_BOOTSTRAP_CHUNK = 1024
_CI_LEVEL = 0.99


def bootstrap_diff_ci(
    adapted, baseline, resamples: int = 10_000, seed: int = 0,
) -> tuple[float, float]:
    """Paired bootstrap percentile CI at _CI_LEVEL for mean(adapted) -
    mean(baseline)."""
    a = np.asarray(adapted, dtype=np.float64)
    b = np.asarray(baseline, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("need two equal-length non-empty vectors")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    rng = np.random.default_rng(seed)
    diffs = np.empty(resamples)
    for start in range(0, resamples, _BOOTSTRAP_CHUNK):
        # Drawn chunk by chunk, the int32 index holds the values of one
        # whole int64 draw (the tests check it), and a row's mean does not
        # depend on its chunk.
        rows = rng.integers(0, a.size, dtype=np.int32, size=(
            min(_BOOTSTRAP_CHUNK, resamples - start), a.size))
        diffs[start : start + len(rows)] = (a[rows].mean(axis=1)
                                            - b[rows].mean(axis=1))
    tail = (1.0 - _CI_LEVEL) / 2.0
    lo, hi = np.quantile(diffs, [tail, 1.0 - tail])
    return float(lo), float(hi)


def leakage_test(
    model: ToyLM,
    vocab: Vocabulary,
    leakage_set,
    adapter,
    resamples: int = 10_000,
    seed: int = 0,
    max_new: int = _DEFAULT_MAX_NEW,
) -> LeakageResult:
    """Accent correctness of the untagged word: base vs adapted model.

    The baseline route runs the bare base model on text_plain (no tags
    anywhere); the adapted route runs base+adapter on text_tagged, where
    a different word carries the tags. Gold is the majority reading, so
    a drop on the adapted side means tag processing leaked into words it
    was never asked about.
    """
    items = tuple(leakage_set)
    if not items:
        raise ValueError("leakage_set is empty: there is no rate to compare")

    def correctness(use_adapter, mode):
        report = evaluate_set(
            model,
            vocab,
            items,
            mode,
            adapter=use_adapter,
            max_new=max_new,
        )
        return [r.accent_correct for r in report.per_sample]

    base_ok = correctness(None, "plain")
    adapted_ok = correctness(adapter, "tagged")
    ci_low, ci_high = bootstrap_diff_ci(
        adapted_ok, base_ok, resamples=resamples, seed=seed
    )
    outcomes = tuple(
        LeakageOutcome(
            item_id=item.item_id,
            grapheme=item.target_grapheme,
            baseline_correct=b,
            adapted_correct=a,
        )
        for item, b, a in zip(items, base_ok, adapted_ok)
    )
    return LeakageResult(ci_low, ci_high, resamples, outcomes)


_LEAKAGE_MAGIC = "uttertune-leakage v1"
_LEAKAGE_KEYS = ("baseline_rate", "adapted_rate", "difference", "ci_low",
                 "ci_high", "resamples")


def save_leakage(result: LeakageResult, path) -> None:
    rows = (
        (o.item_id, o.grapheme, int(o.baseline_correct), int(o.adapted_correct))
        for o in result.outcomes
    )
    header = {key: getattr(result, key) for key in _LEAKAGE_KEYS}
    save_table(path, _LEAKAGE_MAGIC, header, rows)


def load_leakage(path) -> LeakageResult:
    """A saved leakage result; it must have rows, a CI within [-1, 1]
    from at least one resample, and rates and a difference equal to those
    computed from its rows."""
    header, rows = load_table(path, _LEAKAGE_MAGIC, _LEAKAGE_KEYS, 4)
    flag = {"0": False, "1": True}
    try:
        outcomes = tuple(
            LeakageOutcome(int(item_id), grapheme, flag[base], flag[adapted])
            for item_id, grapheme, base, adapted in rows
        )
        stated = {key: float(header[key]) for key in _LEAKAGE_KEYS
                  if key != "resamples"}
        resamples = int(header["resamples"])
    except (KeyError, ValueError) as exc:
        raise CorruptFile(f"{path}: bad value {exc}") from None
    if not outcomes:
        raise CorruptFile(f"{path}: no outcome rows, so no rates")
    if not -1.0 <= stated["ci_low"] <= stated["ci_high"] <= 1.0:
        raise CorruptFile(f"{path}: CI [{stated['ci_low']}, "
                          f"{stated['ci_high']}] is not an interval in [-1, 1]")
    if resamples < 1:
        raise CorruptFile(f"{path}: resamples {resamples} is below 1")
    result = LeakageResult(stated["ci_low"], stated["ci_high"], resamples,
                           outcomes)
    if (stated["baseline_rate"] != result.baseline_rate
            or stated["adapted_rate"] != result.adapted_rate):
        raise CorruptFile(f"{path}: rates do not match per-item outcomes")
    if stated["difference"] != result.difference:
        raise CorruptFile(f"{path}: difference is not adapted_rate - baseline_rate")
    return result
