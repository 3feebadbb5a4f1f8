"""The one breadth-first search behind every equivalence check: term-graph
bisimilarity, automaton equivalence and the closure of a coordinate group
each close a root configuration under a step, keeping one configuration
per key, so the search ends once every key has been seen.  Steps compiled
ahead of the search move atoms between configurations with pickers.
"""

from operator import itemgetter


def bfs(root, expand, depth=None):
    """Search from ``root``, a ``(key, config)`` pair, level by level in
    FIFO order.

    ``expand(config)`` returns ``None`` when the configuration disagrees,
    else its ``(key, child)`` pairs; a child is queued the first time its
    key is seen, so the root's key must come from the children's key space.
    Returns the first disagreeing configuration in FIFO order, or ``None``,
    and the set of keys seen.

    With a ``depth``, only levels below it are expanded: a configuration
    at level ``L`` sits at tree depth ``L``, which a depth-``depth``
    truncation shows exactly when ``depth > L``.
    """
    key, config = root
    seen = {key}
    frontier = [config]
    level = 0
    while frontier and (depth is None or level < depth):
        next_frontier = []
        for config in frontier:
            children = expand(config)
            if children is None:
                return config, seen
            for key, child in children:
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(child)
        frontier = next_frontier
        level += 1
    return None, seen


def picker(idx):
    """A function taking a sequence to the tuple of its items at ``idx``:
    ``itemgetter(*idx)``, except that it returns a tuple for one index or
    none, where ``itemgetter`` returns a scalar or cannot be built."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq, idx=tuple(idx): tuple([seq[i] for i in idx])
