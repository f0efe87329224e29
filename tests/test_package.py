import ppath

# Exports that left with the cluster digraph, the regularity probe, the
# ordering dichotomy and the common out-neighborhood; none of them may come
# back as a stale entry.
REMOVED = {
    "ClusterDigraph", "OrderingCertificate", "OrientedGraph",
    "build_cluster_digraph", "common_out_neighborhood",
    "concatenate_along_cluster_path", "order_or_long_path",
    "random_oriented_graph", "sampled_regular",
}


def test_exports_resolve_and_removed_names_are_gone():
    # A name in __all__ that ppath lacks breaks ``from ppath import *``.
    assert len(set(ppath.__all__)) == len(ppath.__all__)
    assert [n for n in ppath.__all__ if not hasattr(ppath, n)] == []
    assert REMOVED.isdisjoint(ppath.__all__)
    assert [n for n in REMOVED if hasattr(ppath, n)] == []
