"""Sequential reference joins: Algorithm 1 and the vectorized oracle.

These are the correctness oracles: every distributed run's match count is
checked against :func:`match_count` on the materialized relations.
"""

from .basic import hash_join_count, match_count

__all__ = ["hash_join_count", "match_count"]
