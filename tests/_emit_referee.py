"""Audit reports rendered one (identity, field) block at a time.

This is the referee :func:`hypergf.audit.emit_chunks` is held to.  It
shares the formats' gaps, summaries and framing with the package
(``audit._FORMATS``) but renders each block on its own: k + 4 pieces per
row, each a gather from an object array of finished strings, one per
parameter value and one per distinct numerator of each side, every side
reduced on its own with ``np.gcd``, interleaved and joined once per block.
"""

from __future__ import annotations

import numpy as np

from hypergf.audit import _FORMATS, Column, FieldColumns


def _labelled(side: Column, gap: str) -> np.ndarray:
    """Every entry as ``gap`` then "num/den" in lowest terms, one string per
    distinct numerator, spread back over an object array."""
    distinct, where = np.unique(side.num, return_inverse=True)
    g = np.gcd(distinct, side.den)
    made = np.empty(len(distinct), dtype=object)
    made[:] = [f"{gap}{n}/{d}" for n, d in zip((distinct // g).tolist(),
                                                (side.den // g).tolist())]
    return made[where]


def _block_text(block: FieldColumns, gaps: list[str], closings: tuple[str, str]) -> str:
    codes = range(block.q)
    pieces = [np.array([f"{gap}{v}" for v in codes], dtype=object)[col]
              for gap, col in zip(gaps, block.params.T)]
    pieces += [_labelled(side, gap) for gap, side in
               zip(gaps[len(pieces):], (block.lhs, block.rhs, block.residual))]
    pieces.append(np.array(closings, dtype=object)[block.passed.astype(np.intp)])
    return "".join(np.stack(pieces, axis=1).ravel().tolist())


def emit_chunks(reports, format: str = "json") -> list[bytes]:
    """The opening, one chunk per nonempty block, one per summary record,
    then the closing; the first record has no separator."""
    opening, closing, separator, gaps, summary = _FORMATS[format]
    texts = []
    for rep in reports:
        for block in rep.columns:
            if len(block.params):
                block_gaps, closings = gaps(rep.identity, block.q, block.param_names)
                block_gaps[0] = separator + block_gaps[0]
                texts.append(_block_text(block, block_gaps, closings))
        texts.append(separator + summary(rep))
    if texts:
        texts[0] = texts[0][len(separator):]
    return [opening.encode(), *(text.encode() for text in texts),
            *([closing.encode()] if closing else [])]
