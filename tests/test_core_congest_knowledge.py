"""Deep validation of the distributed knowledge phases (Steps 1b–5a):
after a distributed run, every node's memory must match the centralized
StructuresReference — A(v), F(v), merging flags, T'_F, per-edge LCAs."""

import pytest

from repro.congest import CongestNetwork
from repro.core import one_respecting_min_cut_congest
from repro.core.figure1 import figure1_instance
from repro.core.structures import StructuresReference
from repro.fragments import partition_tree
from repro.graphs import connected_gnp_graph, random_spanning_tree


def _run(graph, tree, threshold=None):
    net = CongestNetwork(graph)
    one_respecting_min_cut_congest(
        graph, tree, network=net, partition_threshold=threshold
    )
    dec = partition_tree(tree, threshold)
    ref = StructuresReference(graph, tree, dec)
    return net, dec, ref


@pytest.fixture(scope="module")
def fig1_run():
    inst = figure1_instance()
    net, dec, ref = _run(inst.graph, inst.tree, threshold=4)
    return inst, net, dec, ref


class TestFigure1Knowledge:
    def test_fragment_ids_installed(self, fig1_run):
        inst, net, dec, _ = fig1_run
        for u in inst.graph.nodes:
            assert net.memory[u]["frag:id"] == dec.fragment_id(u)

    def test_fragment_tree_known_to_all(self, fig1_run):
        inst, net, dec, _ = fig1_run
        expected = {
            fid: dec.parent_fragment(fid) for fid in dec.fragment_ids()
        }
        for u in inst.graph.nodes:
            assert net.memory[u]["or:tf"] == expected

    def test_fragment_roots_known_to_all(self, fig1_run):
        inst, net, dec, _ = fig1_run
        expected = {fid: dec.fragment_root(fid) for fid in dec.fragment_ids()}
        for u in inst.graph.nodes:
            assert net.memory[u]["or:frag_roots"] == expected

    def test_fragments_below(self, fig1_run):
        inst, net, _dec, ref = fig1_run
        for u in inst.graph.nodes:
            assert net.memory[u]["or:F"] == ref.fragments_below[u]

    def test_scope_ancestors(self, fig1_run):
        inst, net, _dec, ref = fig1_run
        for u in inst.graph.nodes:
            recorded = sorted(net.memory[u]["or:A"], key=lambda t: t[2])
            assert [a for a, _f, _h in recorded] == ref.scope_ancestors[u]

    def test_merging_flags(self, fig1_run):
        inst, net, _dec, ref = fig1_run
        for u in inst.graph.nodes:
            assert net.memory[u]["or:is_merging"] == (u in ref.merging_nodes)

    def test_skeleton_tree_global(self, fig1_run):
        inst, net, _dec, ref = fig1_run
        for u in inst.graph.nodes:
            assert net.memory[u]["or:tfprime"] == ref.skeleton_parent

    def test_skeleton_chains(self, fig1_run):
        inst, net, _dec, ref = fig1_run
        for u in inst.graph.nodes:
            assert net.memory[u]["or:skeleton_chain"] == ref.skeleton_ancestors(u)

    def test_per_edge_lca(self, fig1_run):
        inst, net, _dec, _ref = fig1_run
        for u, v, _w in inst.graph.edges():
            expected = inst.tree.lca(u, v)
            assert net.memory[u]["or:lca"][v].lca == expected
            assert net.memory[v]["or:lca"][u].lca == expected

    def test_lca_types_match_reference(self, fig1_run):
        inst, net, _dec, ref = fig1_run
        for u, v, _w in inst.graph.edges():
            mtype, _lca, _holder = ref.rho_message_type(u, v)
            assert net.memory[u]["or:lca"][v].message_type == mtype

    def test_exactly_one_holder_per_edge(self, fig1_run):
        inst, net, _dec, _ref = fig1_run
        for u, v, _w in inst.graph.edges():
            holders = int(net.memory[u]["or:lca"][v].i_am_holder) + int(
                net.memory[v]["or:lca"][u].i_am_holder
            )
            assert holders == 1

    def test_type2_holder_in_lca_fragment(self, fig1_run):
        inst, net, dec, _ref = fig1_run
        for u, v, _w in inst.graph.edges():
            edge = net.memory[u]["or:lca"][v]
            if edge.message_type == 2 and edge.i_am_holder:
                assert dec.same_fragment(u, edge.lca)


class TestRandomInstanceKnowledge:
    @pytest.mark.parametrize("seed", range(6))
    def test_lcas_on_random_instances(self, seed):
        g = connected_gnp_graph(22, 0.3, seed=seed + 30)
        tree = random_spanning_tree(g, seed=seed)
        net, _dec, _ref = _run(g, tree)
        for u, v, _w in g.edges():
            assert net.memory[u]["or:lca"][v].lca == tree.lca(u, v), (u, v)

    @pytest.mark.parametrize("seed", range(6))
    def test_structures_on_random_instances(self, seed):
        g = connected_gnp_graph(18, 0.3, seed=seed + 80)
        tree = random_spanning_tree(g, seed=seed)
        net, _dec, ref = _run(g, tree)
        for u in g.nodes:
            assert net.memory[u]["or:F"] == ref.fragments_below[u]
            assert net.memory[u]["or:is_merging"] == (u in ref.merging_nodes)
            recorded = sorted(net.memory[u]["or:A"], key=lambda t: t[2])
            assert [a for a, _f, _h in recorded] == ref.scope_ancestors[u]

    @pytest.mark.parametrize("threshold", [2, 3, 6, 12])
    def test_thresholds_vary_fragmentation_not_answers(self, threshold):
        g = connected_gnp_graph(20, 0.3, seed=99)
        tree = random_spanning_tree(g, seed=99)
        net, dec, ref = _run(g, tree, threshold=threshold)
        for u, v, _w in g.edges():
            assert net.memory[u]["or:lca"][v].lca == tree.lca(u, v)


class TestFragmentTreeDescendants:
    # T_F:  a ─┬─ b ─── d
    #          └─ c ─┬─ e
    #                └─ f
    TF = {"a": None, "b": "a", "c": "a", "d": "b", "e": "c", "f": "c"}

    def test_union_of_subtrees_over_many_roots(self):
        from repro.core.congest_steps import tf_descendants

        assert tf_descendants(self.TF, ["b", "c"]) == {
            "b", "c", "d", "e", "f",
        }
        assert tf_descendants(self.TF, ["a"]) == set(self.TF)
        assert tf_descendants(self.TF, ["f"]) == {"f"}
        assert tf_descendants(self.TF, []) == set()

    def test_nested_and_repeated_roots_union(self):
        from repro.core.congest_steps import tf_descendants

        assert tf_descendants(self.TF, ("c", "e", "c")) == {"c", "e", "f"}
