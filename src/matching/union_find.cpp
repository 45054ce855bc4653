#include "matching/union_find.hpp"

#include "common/check.hpp"

namespace btwc {

namespace {

/** Spacetime edge of the cached topology (growth lives in scratch). */
struct UfEdge
{
    int a;         ///< spacetime node
    int b;         ///< spacetime node, or -1 for a boundary edge
    int data;      ///< data qubit of a space edge, -1 for time edges
};

} // namespace

/**
 * Per-instance scratch. The topology block (edges + CSR incidence)
 * depends only on the code, detector and round count, so it is rebuilt
 * only when `rounds` changes. `growth` and `parent` hold the
 * between-call invariant (all zero / identity, see the class comment);
 * the packed sets are word-cleared per call, and the peeling arrays
 * are written as nodes are visited, so they need no reset at all.
 */
struct UnionFindDecoder::Scratch
{
    // Topology (rebuilt when `rounds` changes).
    int rounds = -1;
    int num_nodes = 0;
    std::vector<UfEdge> edges;
    std::vector<int> incident_offset;  ///< CSR offsets, num_nodes + 2
    std::vector<int> incident_edges;   ///< CSR payload, 2 x edges

    // Cluster state.
    std::vector<uint8_t> growth;       ///< per-edge 0..2 half-edges
    std::vector<int> parent;           ///< union-find forest
    std::vector<int> touched;          ///< edges whose growth left 0
    PackedBits odd;                    ///< per-root odd-parity flag
    PackedBits on_boundary;            ///< per-root touched-boundary flag
    PackedBits is_defect;
    PackedBits in_cluster;
    PackedBits active;                 ///< pre-round active snapshot
    PackedBits candidate;              ///< per-edge grow candidates
    PackedBits visited;

    // Peeling state, valid for visited nodes only.
    std::vector<int> parent_edge;      ///< -1 at a tree root
    std::vector<int> parent_node;
    std::vector<int> order;            ///< BFS visit order (and queue)
};

UnionFindDecoder::UnionFindDecoder(const RotatedSurfaceCode &code,
                                   CheckType detector)
    : code_(code), detector_(detector),
      num_checks_(code.num_checks(detector)),
      scratch_(std::make_unique<Scratch>())
{
}

UnionFindDecoder::~UnionFindDecoder() = default;

void
UnionFindDecoder::prepare_topology(int rounds) const
{
    Scratch &s = *scratch_;
    if (s.rounds == rounds) {
        return;
    }
    s.rounds = rounds;
    s.num_nodes = rounds * num_checks_;
    const int boundary_id = s.num_nodes;
    auto node_id = [this](int check, int round) {
        return round * num_checks_ + check;
    };

    // Edge order, per check per round: space edges (ascending
    // neighbor), boundary half-edges, then the time edge.
    s.edges.clear();
    for (int t = 0; t < rounds; ++t) {
        for (int c = 0; c < num_checks_; ++c) {
            const int a = node_id(c, t);
            for (const CliqueNeighbor &nb :
                 code_.clique_neighbors(detector_, c)) {
                if (nb.check > c) {
                    s.edges.push_back(
                        UfEdge{a, node_id(nb.check, t), nb.shared_data});
                }
            }
            for (const int bdata : code_.boundary_data(detector_, c)) {
                s.edges.push_back(UfEdge{a, -1, bdata});
            }
            if (t + 1 < rounds) {
                s.edges.push_back(UfEdge{a, node_id(c, t + 1), -1});
            }
        }
    }

    // CSR incidence including the virtual boundary node, each list in
    // ascending edge order.
    const int n1 = s.num_nodes + 1;
    s.incident_offset.assign(static_cast<size_t>(n1) + 1, 0);
    for (const UfEdge &edge : s.edges) {
        const int b = edge.b < 0 ? boundary_id : edge.b;
        ++s.incident_offset[static_cast<size_t>(edge.a) + 1];
        ++s.incident_offset[static_cast<size_t>(b) + 1];
    }
    for (int v = 0; v < n1; ++v) {
        s.incident_offset[static_cast<size_t>(v) + 1] +=
            s.incident_offset[static_cast<size_t>(v)];
    }
    s.incident_edges.assign(2 * s.edges.size(), 0);
    {
        std::vector<int> cursor(s.incident_offset.begin(),
                                s.incident_offset.end() - 1);
        for (size_t e = 0; e < s.edges.size(); ++e) {
            const UfEdge &edge = s.edges[e];
            const int b = edge.b < 0 ? boundary_id : edge.b;
            s.incident_edges[static_cast<size_t>(cursor[edge.a]++)] =
                static_cast<int>(e);
            s.incident_edges[static_cast<size_t>(cursor[b]++)] =
                static_cast<int>(e);
        }
    }

    // Size the per-call blocks once and establish the between-call
    // invariant.
    s.growth.assign(s.edges.size(), 0);
    s.parent.resize(static_cast<size_t>(n1));
    for (int v = 0; v < n1; ++v) {
        s.parent[static_cast<size_t>(v)] = v;
    }
    s.touched.clear();
    s.touched.reserve(s.edges.size());
    s.odd.resize(n1);
    s.on_boundary.resize(n1);
    s.is_defect.resize(n1);
    s.in_cluster.resize(n1);
    s.active.resize(n1);
    s.candidate.resize(static_cast<int>(s.edges.size()));
    s.visited.resize(n1);
    s.parent_edge.assign(static_cast<size_t>(n1), -1);
    s.parent_node.assign(static_cast<size_t>(n1), -1);
    s.order.clear();
    s.order.reserve(static_cast<size_t>(n1));
}

void
UnionFindDecoder::decode(const std::vector<DetectionEvent> &events,
                         int rounds, Result &out) const
{
    thread_owner_.assert_single_thread_owner();
    Scratch &s = *scratch_;
    if (audit_deep()) {
        for (const uint8_t g : s.growth) {
            BTWC_CHECK_MSG(g == 0, "union-find growth must be all zero "
                                   "between calls");
        }
        for (size_t v = 0; v < s.parent.size(); ++v) {
            BTWC_CHECK_MSG(s.parent[v] == static_cast<int>(v),
                           "union-find parent must be the identity "
                           "between calls");
        }
    }
    out.correction.reset(code_.num_data());
    out.weight = 0;
    out.defects = static_cast<int>(events.size());
    out.effort = 0;
    out.resolved = true;
    if (events.empty()) {
        return;
    }
    BTWC_CHECK(rounds >= 1);

    prepare_topology(rounds);
    const int boundary_id = s.num_nodes;
    auto node_id = [this](int check, int round) {
        return round * num_checks_ + check;
    };

    s.odd.clear();
    s.on_boundary.clear();
    s.is_defect.clear();
    s.in_cluster.clear();
    s.touched.clear();

    auto find = [&s](int x) {
        while (s.parent[static_cast<size_t>(x)] != x) {
            s.parent[static_cast<size_t>(x)] =
                s.parent[static_cast<size_t>(
                    s.parent[static_cast<size_t>(x)])];
            x = s.parent[static_cast<size_t>(x)];
        }
        return x;
    };
    // A cluster still grows while it has odd parity off-boundary.
    auto cluster_active = [&s, &find](int x) {
        const int r = find(x);
        return s.odd.test(r) && !s.on_boundary.test(r);
    };
    auto unite = [&s, &find](int a, int b) {
        a = find(a);
        b = find(b);
        if (a == b) {
            return;
        }
        s.parent[static_cast<size_t>(b)] = a;
        if (s.odd.test(b)) {
            s.odd.flip(a);
        }
        if (s.on_boundary.test(b)) {
            s.on_boundary.set(a);
        }
    };

    s.on_boundary.set(boundary_id);
    for (const DetectionEvent &ev : events) {
        BTWC_AUDIT(ev.round >= 0 && ev.round < rounds);
        BTWC_AUDIT(ev.check >= 0 && ev.check < num_checks_);
        const int v = node_id(ev.check, ev.round);
        s.is_defect.flip(v);
        s.odd.flip(v);
        s.in_cluster.set(v);
    }

    // Growth. Each round selects its candidate edges from the
    // pre-round cluster state (a snapshot of the active nodes) and
    // applies them in ascending edge order with live re-evaluation of
    // cluster activity, so a merge earlier in the round is visible to
    // later edges of the same round.
    int growth_rounds = 0;
    for (;;) {
        s.active.clear();
        bool have_active = false;
        s.in_cluster.for_each_set([&](int v) {
            if (cluster_active(v)) {
                s.active.set(v);
                have_active = true;
            }
        });
        if (!have_active) {
            break;
        }
        ++growth_rounds;
        s.candidate.clear();
        bool have_candidate = false;
        s.active.for_each_set([&](int v) {
            const int begin = s.incident_offset[static_cast<size_t>(v)];
            const int end = s.incident_offset[static_cast<size_t>(v) + 1];
            for (int k = begin; k < end; ++k) {
                const int e = s.incident_edges[static_cast<size_t>(k)];
                if (s.growth[static_cast<size_t>(e)] < 2) {
                    s.candidate.set(e);
                    have_candidate = true;
                }
            }
        });
        // Every round grows some edge, so the loop ends: a cluster
        // whose incident edges are all grown has absorbed its whole
        // component, boundary included, and is no longer active. Stale
        // growth from an earlier call would break this and spin.
        BTWC_CHECK_MSG(have_candidate, "an active union-find cluster must "
                                       "have an ungrown incident edge");
        s.candidate.for_each_set([&](int e) {
            const UfEdge &edge = s.edges[static_cast<size_t>(e)];
            const int b = edge.b < 0 ? boundary_id : edge.b;
            const uint8_t before = s.growth[static_cast<size_t>(e)];
            uint8_t g = before;
            g = static_cast<uint8_t>(
                g + ((s.in_cluster.test(edge.a) && cluster_active(edge.a))
                         ? 1
                         : 0));
            g = static_cast<uint8_t>(
                g + ((s.in_cluster.test(b) && cluster_active(b)) ? 1 : 0));
            if (g >= 2) {
                g = 2;
                s.in_cluster.set(edge.a);
                s.in_cluster.set(b);
                unite(edge.a, b);
            }
            if (before == 0 && g != 0) {
                s.touched.push_back(e);
            }
            s.growth[static_cast<size_t>(e)] = g;
        });
    }
    out.effort = growth_rounds;

    // Peeling: spanning forest over fully grown edges, rooted at the
    // boundary where reachable, then transfer defects leaf-to-root.
    // Every fully grown edge joins two in-cluster nodes, so the
    // in-cluster set holds every root and every tree node. (A repeated
    // event that cancelled, with no grown edge, roots a one-node tree
    // that peels nothing.)
    s.visited.clear();
    s.order.clear();
    auto bfs_tree = [&](int root) {
        s.visited.set(root);
        s.parent_edge[static_cast<size_t>(root)] = -1;
        size_t head = s.order.size();
        s.order.push_back(root);
        while (head < s.order.size()) {
            const int v = s.order[head++];
            const int begin = s.incident_offset[static_cast<size_t>(v)];
            const int end = s.incident_offset[static_cast<size_t>(v) + 1];
            for (int k = begin; k < end; ++k) {
                const int e = s.incident_edges[static_cast<size_t>(k)];
                if (s.growth[static_cast<size_t>(e)] < 2) {
                    continue;
                }
                const UfEdge &edge = s.edges[static_cast<size_t>(e)];
                const int b = edge.b < 0 ? boundary_id : edge.b;
                const int other = edge.a == v ? b : edge.a;
                if (!s.visited.test(other)) {
                    s.visited.set(other);
                    s.parent_edge[static_cast<size_t>(other)] = e;
                    s.parent_node[static_cast<size_t>(other)] = v;
                    s.order.push_back(other);
                }
            }
        }
    };
    if (s.in_cluster.test(boundary_id)) {
        bfs_tree(boundary_id);
    }
    s.in_cluster.for_each_set([&s, &bfs_tree](int v) {
        if (!s.visited.test(v)) {
            bfs_tree(v);
        }
    });

    for (size_t i = s.order.size(); i-- > 0;) {
        const int v = s.order[i];
        if (s.parent_edge[static_cast<size_t>(v)] < 0 ||
            !s.is_defect.test(v)) {
            continue;
        }
        const UfEdge &e =
            s.edges[static_cast<size_t>(s.parent_edge[static_cast<size_t>(v)])];
        if (e.data >= 0) {
            out.correction.flip(e.data);
            ++out.weight;
        }
        s.is_defect.reset_bit(v);
        s.is_defect.flip(s.parent_node[static_cast<size_t>(v)]);
    }

    // Restore the between-call invariant.
    for (const int e : s.touched) {
        s.growth[static_cast<size_t>(e)] = 0;
    }
    s.in_cluster.for_each_set(
        [&s](int v) { s.parent[static_cast<size_t>(v)] = v; });
}

} // namespace btwc
