"""The standard embedding as an exact sum of rational intervals over
NumberField.embedding_matrix: a reference for field.enclose and
NumberField.embed that does not go through fixed_embedding, so a fault in
its rounding shows as a disagreement."""

from unitring.intervals import RatInterval


def embedding_sum(field, coords, bits):
    """Rational coordinates coords times embedding_matrix(bits), as n
    RatIntervals: r real places, then (Re, Im) per complex pair."""
    emb = field.embedding_matrix(bits)
    return tuple(sum((row[k] * c for row, c in zip(emb, coords) if c), RatInterval(0))
                 for k in range(field.degree))


def places(field, std):
    """A standard embedding split into its r real intervals and its s
    (Re, Im) pairs."""
    r = field.signature[0]
    return list(std[:r]), list(zip(std[r::2], std[r + 1::2]))
