"""Semantic-distance computation (the paper's Function 1).

``sim(A, B) = |A ∩ B| / max(|A|, |B|)`` over semantic-vector items, with
the file-path attribute handled by either of two algorithms:

* **DPA** (Divided Path Algorithm): every path component is an item of
  its own. Deep directories then dominate the denominator — the paper's
  executable/library example shows how DPA drowns genuinely correlated
  files, which is why FARMER defaults to IPA.
* **IPA** (Integrated Path Algorithm): the whole path is a single item
  whose intersection contribution equals the *directory similarity* —
  shared components over the larger component count (Table 2 computes
  3/4 = 0.75 for ``/home/user1/paper/{a,b}``).

Both reproduce the paper's Table 2 worked example exactly (tested in
``tests/vsm/test_table2.py``).
"""

from __future__ import annotations

from repro.vsm.vector import SemanticVector, bag_intersection

__all__ = [
    "directory_similarity",
    "dpa_similarity",
    "ipa_similarity",
    "similarity",
    "SIMILARITY_METHODS",
]

SIMILARITY_METHODS = ("ipa", "dpa")


def directory_similarity(
    a: tuple[int, ...] | None,
    b: tuple[int, ...] | None,
    mode: str = "bag",
) -> float:
    """Similarity of two component-id paths in [0, 1].

    ``mode="bag"`` counts shared components regardless of position (this
    matches the paper's worked example); ``mode="prefix"`` counts only the
    shared leading run, which penalises same-named components at
    different depths.
    Returns 0.0 when either path is absent.
    """
    if a is None or b is None or not a or not b:
        return 0.0
    denom = max(len(a), len(b))
    if mode == "bag":
        hits = bag_intersection(tuple(sorted(a)), tuple(sorted(b)))
    elif mode == "prefix":
        hits = 0
        for x, y in zip(a, b):
            if x != y:
                break
            hits += 1
    else:
        raise ValueError(f"unknown directory-similarity mode {mode!r}")
    return hits / denom


def dpa_similarity(a: SemanticVector, b: SemanticVector) -> float:
    """Function 1 with the Divided Path Algorithm."""
    denom = max(a.n_items("dpa"), b.n_items("dpa"))
    if denom == 0:
        return 0.0
    hits = bag_intersection(a.dpa_items(), b.dpa_items())
    return hits / denom


def ipa_similarity(
    a: SemanticVector, b: SemanticVector, path_mode: str = "bag"
) -> float:
    """Function 1 with the Integrated Path Algorithm.

    Scalar hits are a C-level set intersection (scalar ids are unique by
    construction, so bag and set semantics coincide). Bag mode does the
    same for two paths without a repeated component, and otherwise runs
    a linear merge of the vectors' precomputed ``sorted_path`` tuples —
    no sorting on the hot path.
    """
    na, nb = a.n_ipa, b.n_ipa
    denom = na if na >= nb else nb
    if denom == 0:
        return 0.0
    sa = a._scalar_set
    if sa is None:
        sa = a.scalar_set  # builds and caches
    sb = b._scalar_set
    if sb is None:
        sb = b.scalar_set
    hits = float(len(sa & sb))
    pa, pb = a.path_ids, b.path_ids
    if pa and pb:
        if path_mode == "bag":
            la, lb = len(pa), len(pb)
            ps_a = a._path_set
            if ps_a is None:
                ps_a = a.path_set
            ps_b = b._path_set
            if ps_b is None:
                ps_b = b.path_set
            if len(ps_a) == la and len(ps_b) == lb:
                shared = len(ps_a & ps_b)
            else:
                shared = bag_intersection(a.sorted_path, b.sorted_path)
            hits += shared / (la if la >= lb else lb)
        else:
            hits += directory_similarity(pa, pb, mode=path_mode)
    return hits / denom


def similarity(
    a: SemanticVector, b: SemanticVector, method: str = "ipa", path_mode: str = "bag"
) -> float:
    """Dispatch to :func:`ipa_similarity` or :func:`dpa_similarity`.

    Raises:
        ValueError: for an unknown method name.
    """
    if method == "ipa":
        return ipa_similarity(a, b, path_mode=path_mode)
    if method == "dpa":
        return dpa_similarity(a, b)
    raise ValueError(f"unknown similarity method {method!r}; use one of {SIMILARITY_METHODS}")
