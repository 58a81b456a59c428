"""Sublevel-set H0 persistence on periodic lattices.

Two independent implementations of the same convention:

* ``sublevel_persistence``: incremental union-find over the lattice
  adjacency graph (cells processed in increasing (value, index) order,
  elder rule on merges);
* ``connectivity_oracle``: brute force, rebuilding the sublevel set at every
  distinct threshold with scipy.ndimage labeling and diff the component
  structures.

The *selected* value of a filtration is the birth level of the essential
class, the unique component class of a connected lattice that survives to
the full complex.  Tests require the two implementations to agree exactly.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["PersistenceDiagram", "sublevel_persistence", "connectivity_oracle"]


@dataclass(frozen=True)
class PersistenceDiagram:
    """H0 diagram of a sublevel filtration: finite pairs and essential births."""

    pairs: list            # (birth_value, death_value) for finite classes
    essential_births: list  # birth values of classes surviving to the end

    @property
    def selected(self):
        """Birth of the essential class (connected lattice: its minimum)."""
        return min(self.essential_births)


def _neighbors(shape):
    """Edges of the periodic axis-adjacency graph as flat index pairs."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    edges = []
    for ax in range(len(shape)):
        rolled = np.roll(idx, -1, axis=ax)
        a = idx.reshape(-1)
        b = rolled.reshape(-1)
        if shape[ax] == 2:
            # avoid the doubled edge on a 2-cycle
            keep = np.ones(shape, dtype=bool)
            sl = [slice(None)] * len(shape)
            sl[ax] = 1
            keep[tuple(sl)] = False
            a = a[keep.reshape(-1)]
            b = b[keep.reshape(-1)]
        edges.append(np.stack([a, b], axis=1))
    return np.concatenate(edges, axis=0)


def sublevel_persistence(values):
    """H0 persistence pairs of the sublevel filtration of a lattice function.

    ``values`` is an nd array on a periodic lattice; cells enter at their value, edges when both
    endpoints are present.  Ties are broken by flat index, and merges keep
    the older component (smaller (birth value, birth index)).
    """
    values = np.asarray(values, dtype=float)
    shape = values.shape
    flat = values.reshape(-1)
    n = flat.size
    edges = _neighbors(shape)
    # edge activation value and deterministic processing order
    ev = np.maximum(flat[edges[:, 0]], flat[edges[:, 1]])
    et = np.maximum(edges[:, 0], edges[:, 1])
    order = np.lexsort((et, ev))
    edges = edges[order]
    ev = ev[order]

    parent = np.arange(n)
    birth_idx = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    for (a, b), w in zip(edges, ev):
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        ka = (flat[birth_idx[ra]], birth_idx[ra])
        kb = (flat[birth_idx[rb]], birth_idx[rb])
        old, young = (ra, rb) if ka <= kb else (rb, ra)
        birth = float(flat[birth_idx[young]])
        if w > birth:  # zero-persistence classes are invisible in the filtration
            pairs.append((birth, float(w)))
        parent[young] = old
    roots = {find(x) for x in range(n)}
    essential = [float(flat[birth_idx[r]]) for r in roots]
    return PersistenceDiagram(pairs=sorted(pairs), essential_births=sorted(essential))


def _label_periodic(mask):
    """Component labels of a mask on a periodic lattice, wrap-around merged."""
    # imported here: scipy.ndimage costs a cold start no command needs
    from scipy import ndimage

    shape = mask.shape
    lab, num = ndimage.label(mask)
    lut = np.arange(num + 1)

    def lfind(x):
        while lut[x] != x:
            lut[x] = lut[lut[x]]
            x = lut[x]
        return x

    for ax in range(len(shape)):
        lo = np.take(lab, 0, axis=ax).reshape(-1)
        hi = np.take(lab, shape[ax] - 1, axis=ax).reshape(-1)
        both = (lo > 0) & (hi > 0)
        for x, y in zip(lo[both], hi[both]):
            rx, ry = lfind(int(x)), lfind(int(y))
            if rx != ry:
                lut[max(rx, ry)] = min(rx, ry)
    for i in range(1, num + 1):
        lfind(i)
    return lut[lab.reshape(-1)]


def connectivity_oracle(values):
    """Brute-force H0 diagram: relabel the sublevel set at every threshold.

    Independent of the union-find path: uses scipy.ndimage component
    labeling (with explicit wrap-merging) at each
    distinct value of the filtration and diffs consecutive labelings.
    """
    values = np.asarray(values, dtype=float)
    flat = values.reshape(-1)
    thresholds = np.unique(flat)
    # global (value, index) order: the first cell of a component in this
    # order is its birth cell
    order = np.lexsort((np.arange(flat.size), flat))

    pairs = []
    prev_reps = np.empty(0, dtype=int)   # birth cells of live components
    for lam in thresholds:
        labels = _label_periodic(values <= lam)
        in_order = order[flat[order] <= lam]
        _, first = np.unique(labels[in_order], return_index=True)
        cur_reps = in_order[np.sort(first)]
        if prev_reps.size:
            owner = labels[prev_reps]
            uniq, inverse, counts = np.unique(owner, return_inverse=True,
                                              return_counts=True)
            for g in np.nonzero(counts > 1)[0]:
                members = prev_reps[inverse == g]
                keys = sorted((float(flat[m]), int(m)) for m in members)
                for b, _ in keys[1:]:
                    pairs.append((b, float(lam)))
        prev_reps = cur_reps
    essential = sorted(float(flat[r]) for r in prev_reps)
    return PersistenceDiagram(pairs=sorted(pairs), essential_births=essential)
