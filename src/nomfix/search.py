"""The one breadth-first search behind every equivalence check: term-graph
bisimilarity, automaton equivalence and the closure of a coordinate group
each close a root configuration under a step that builds a child only for
a new key, so the search ends once every key has been seen.  Steps
compiled ahead of the search move atoms between configurations with pickers.
"""

from operator import itemgetter


def bfs(root, expand, depth=None):
    """Search from ``root``, a ``(key, config)`` pair, level by level in
    FIFO order.

    ``expand(config, seen, push)`` returns ``None`` when the configuration
    disagrees; otherwise, for each child whose key is not in the set
    ``seen``, it adds the key to ``seen`` and appends the child to the list
    ``push``, which queues it.  The root's key must come from the
    children's key space.  Returns the first disagreeing configuration in
    FIFO order, or ``None``, and the set of keys seen.

    With a ``depth``, only levels below it are expanded: a configuration
    at level ``L`` sits at tree depth ``L``, which a depth-``depth``
    truncation shows exactly when ``depth > L``.
    """
    key, config = root
    seen = {key}
    frontier = [config]
    level = 0
    while frontier and (depth is None or level < depth):
        push = []
        for config in frontier:
            if expand(config, seen, push) is None:
                return config, seen
        frontier = push
        level += 1
    return None, seen


def picker(idx):
    """A function taking a tuple to the tuple of its items at ``idx``, which
    holds nonnegative indexes into it: ``itemgetter(*idx)``, except that one
    index or none reads a slice, so the result is a tuple there too; a slice
    silently misreads an index out of range."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0, 0))
