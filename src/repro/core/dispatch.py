"""Dataflow dispatch semantics (§3.1, §4.2).

Items flowing along a dataflow edge are routed to the downstream TE's
instances by one of four strategies, chosen by the translator from the
type of state access (step 4 of Fig. 3):

* ``KEY_PARTITIONED`` — hash partitioning on an access key, used
  when the downstream TE accesses a partitioned SE so that each instance
  accesses its co-located partition;
* ``ONE_TO_ANY``      — any single instance (round-robin load balancing),
  used for local access to partial SEs;
* ``ONE_TO_ALL``      — broadcast to every instance, used for ``@Global``
  access to a partial SE;
* ``ALL_TO_ONE``      — gather from every upstream instance into one
  downstream instance behind a synchronisation barrier, used after global
  access and for ``@Collection`` merges.
"""

from __future__ import annotations

import enum


class Dispatch(enum.Enum):
    """How items on a dataflow edge are routed to TE instances."""

    KEY_PARTITIONED = "key_partitioned"
    ONE_TO_ANY = "one_to_any"
    ONE_TO_ALL = "one_to_all"
    ALL_TO_ONE = "all_to_one"
