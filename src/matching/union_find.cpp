#include "matching/union_find.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace btwc {

namespace {

// Per-node flags; every flag is clear between calls.
constexpr uint8_t kOdd = 1;         ///< root: odd defect parity
constexpr uint8_t kOnBoundary = 2;  ///< root: cluster touched the boundary
constexpr uint8_t kDefect = 4;      ///< carries a (peeling) defect
constexpr uint8_t kInCluster = 8;   ///< joined a cluster this call
constexpr uint8_t kVisited = 16;    ///< reached by the peeling forest

/** Index of the lowest set bit of a nonzero word. */
inline int
lowest_bit(uint64_t bits)
{
    return __builtin_ctzll(bits);
}

/**
 * One edge incident to a check, as that check sees it. For node `v`
 * of the check the edge's key is `(v << slot_shift) + key_delta` and
 * its other end `v + other_delta`, or the boundary node when
 * `boundary`.
 */
struct Incidence
{
    int key_delta;
    int other_delta;
    int data;  ///< data qubit of a space edge, -1 for time edges
    bool boundary;
};

} // namespace

/**
 * Per-call scratch. `growth`, `parent`, `flags` and `queued` hold the
 * between-call invariant (zero / identity / zero / zero, see the class
 * comment) and only ever grow with the round count; every list is
 * cleared per call and keeps its capacity.
 */
struct UnionFindDecoder::Scratch
{
    // The edge tables (see build_edges), the same for every round
    // count: node (check c, round t) is (t << check_shift) | c, and an
    // edge's key is (owning node << slot_shift) | slot.
    int check_shift = 0;
    int slot_shift = 0;
    std::vector<Incidence> incidence;  ///< per check, ascending keys
    std::vector<int> incidence_begin;  ///< offsets, num_checks + 1
    std::vector<int> own_begin;        ///< per check, its owned slot 0

    /** A peeling forest node in BFS order; parent -1 at a root. */
    struct Visit
    {
        int node;
        int parent;
        int data;  ///< data qubit of the tree edge, -1 for time edges
    };

    std::vector<uint8_t> growth;   ///< per edge key: half-edges, 0..2
    std::vector<int> parent;       ///< union-find forest, per node
    std::vector<uint8_t> flags;    ///< per node
    std::vector<int> lowest;       ///< per root: its lowest member
    /** This round's candidate edge keys: one bit per key, and one
     * summary bit per nonzero word of it. */
    std::vector<uint64_t> queued;
    std::vector<uint64_t> queued_words;

    std::vector<int> members;      ///< nodes that joined a cluster
    std::vector<int> touched;      ///< edge keys whose growth left 0
    std::vector<int> pairs;        ///< round one: keys joining two defects
    std::vector<int> boundary_grown;  ///< keys of grown boundary half-edges
    std::vector<Visit> order;      ///< BFS visit order (and queue)
};

UnionFindDecoder::UnionFindDecoder(const RotatedSurfaceCode &code,
                                   CheckType detector)
    : code_(code), detector_(detector),
      num_checks_(code.num_checks(detector)),
      scratch_(std::make_unique<Scratch>())
{
}

void
UnionFindDecoder::build_edges() const
{
    Scratch &s = *scratch_;
    // The slots check c owns, in edge order: space edges to higher
    // clique neighbours, boundary half-edges, then the time edge to
    // the next round.
    std::vector<int> slots(static_cast<size_t>(num_checks_), 1);
    int max_slots = 1;
    for (int c = 0; c < num_checks_; ++c) {
        int &n = slots[static_cast<size_t>(c)];
        n += static_cast<int>(code_.boundary_data(detector_, c).size());
        for (const CliqueNeighbor &nb : code_.clique_neighbors(detector_, c)) {
            n += nb.check > c ? 1 : 0;
        }
        max_slots = std::max(max_slots, n);
    }
    while ((1 << s.check_shift) < num_checks_) {
        ++s.check_shift;
    }
    while ((1 << s.slot_shift) < max_slots) {
        ++s.slot_shift;
    }
    const int round_stride = 1 << s.check_shift;
    const int slot_stride = 1 << s.slot_shift;

    // Each check's incidence in ascending key order: the time edge
    // from the round below, the space edges its lower clique
    // neighbours own (by owner, then slot), then its own slots.
    // (At most six edges meet a check: one per support qubit, and the
    // two time edges.)
    s.incidence.reserve(6 * static_cast<size_t>(num_checks_));
    s.incidence_begin.reserve(static_cast<size_t>(num_checks_) + 1);
    s.own_begin.reserve(static_cast<size_t>(num_checks_));
    for (int c = 0; c < num_checks_; ++c) {
        s.incidence_begin.push_back(static_cast<int>(s.incidence.size()));
        s.incidence.push_back(Incidence{
            slots[static_cast<size_t>(c)] - 1 - round_stride * slot_stride,
            -round_stride, -1, false});
        const size_t lower = s.incidence.size();
        for (const CliqueNeighbor &nb : code_.clique_neighbors(detector_, c)) {
            if (nb.check > c) {
                continue;
            }
            int slot = 0;  // c's slot among nb.check's higher neighbours
            for (const CliqueNeighbor &up :
                 code_.clique_neighbors(detector_, nb.check)) {
                if (up.check == c) {
                    break;
                }
                slot += up.check > nb.check ? 1 : 0;
            }
            Incidence in{(nb.check - c) * slot_stride + slot, nb.check - c,
                         nb.shared_data, false};
            size_t at = s.incidence.size();
            s.incidence.push_back(in);
            for (; at > lower && s.incidence[at - 1].key_delta > in.key_delta;
                 --at) {
                s.incidence[at] = s.incidence[at - 1];
            }
            s.incidence[at] = in;
        }
        s.own_begin.push_back(static_cast<int>(s.incidence.size()));
        int slot = 0;
        for (const CliqueNeighbor &nb : code_.clique_neighbors(detector_, c)) {
            if (nb.check > c) {
                s.incidence.push_back(
                    Incidence{slot++, nb.check - c, nb.shared_data, false});
            }
        }
        for (const int bdata : code_.boundary_data(detector_, c)) {
            s.incidence.push_back(Incidence{slot++, 0, bdata, true});
        }
        s.incidence.push_back(Incidence{slot, round_stride, -1, false});
    }
    s.incidence_begin.push_back(static_cast<int>(s.incidence.size()));
}

UnionFindDecoder::~UnionFindDecoder() = default;

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
            BTWC_CHECK_MSG(s.parent[v] == static_cast<int>(v) &&
                               s.flags[v] == 0,
                           "union-find parent must be the identity and "
                           "flags clear between calls");
        }
        for (const uint64_t w : s.queued) {
            BTWC_CHECK_MSG(w == 0, "union-find candidate set must be "
                                   "empty between calls");
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
    // Checked before any state changes, so a rejected call leaves the
    // between-call invariant intact.
    if (audit_basic()) {
        for (const DetectionEvent &ev : events) {
            BTWC_CHECK(ev.round >= 0 && ev.round < rounds);
            BTWC_CHECK(ev.check >= 0 && ev.check < num_checks_);
        }
    }

    if (s.incidence_begin.empty()) {
        build_edges();
    }

    // Node (check c, round t) is (t << s.check_shift) | c; the boundary
    // node follows the last round. A deeper window than any before
    // extends the arrays in their between-call state.
    BTWC_CHECK_MSG(rounds < (std::numeric_limits<int>::max() >>
                             (s.check_shift + s.slot_shift)),
                   "union-find edge keys must fit an int");
    const int boundary_id = rounds << s.check_shift;
    const size_t num_nodes = static_cast<size_t>(boundary_id) + 1;
    if (s.parent.size() < num_nodes) {
        const size_t old = s.parent.size();
        s.parent.resize(num_nodes);
        for (size_t v = old; v < num_nodes; ++v) {
            s.parent[v] = static_cast<int>(v);
        }
        s.flags.resize(num_nodes, 0);
        s.lowest.resize(num_nodes);
        const size_t keys = static_cast<size_t>(boundary_id) << s.slot_shift;
        s.growth.resize(keys, 0);
        s.queued.resize(keys / 64 + 1, 0);
        s.queued_words.resize(s.queued.size() / 64 + 1, 0);
    }
    const int check_mask = (1 << s.check_shift) - 1;
    const int slot_mask = (1 << s.slot_shift) - 1;
    const int last_round = rounds - 1;
    s.members.clear();
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
    // A node grows its edges while its cluster has odd parity
    // off-boundary. (A node outside every cluster is its own root with
    // neither flag.)
    auto grows = [&s, &find](int x) {
        return (s.flags[static_cast<size_t>(find(x))] &
                (kOdd | kOnBoundary)) == kOdd;
    };
    auto unite = [&s, &find](int a, int b) {
        a = find(a);
        b = find(b);
        if (a == b) {
            return;
        }
        s.parent[static_cast<size_t>(b)] = a;
        s.flags[static_cast<size_t>(a)] ^=
            s.flags[static_cast<size_t>(b)] & kOdd;
        s.flags[static_cast<size_t>(a)] |=
            s.flags[static_cast<size_t>(b)] & kOnBoundary;
        s.lowest[static_cast<size_t>(a)] =
            std::min(s.lowest[static_cast<size_t>(a)],
                     s.lowest[static_cast<size_t>(b)]);
    };
    auto join = [&s](int v) {
        uint8_t &f = s.flags[static_cast<size_t>(v)];
        if ((f & kInCluster) == 0) {
            f |= kInCluster;
            s.lowest[static_cast<size_t>(v)] = v;
            s.members.push_back(v);
        }
    };
    // The incident edges of node v, in ascending key order.
    auto incidence = [&s, check_mask, last_round](int v) {
        const int c = v & check_mask;
        const int t = v >> s.check_shift;
        const Incidence *base = s.incidence.data();
        return std::make_pair(
            base + s.incidence_begin[static_cast<size_t>(c)] + (t == 0 ? 1 : 0),
            base + s.incidence_begin[static_cast<size_t>(c) + 1] -
                (t == last_round ? 1 : 0));
    };
    // The edge node `owner` owns in `slot`.
    auto owned = [&s, check_mask](int owner, int slot) -> const Incidence & {
        return s.incidence[static_cast<size_t>(
            s.own_begin[static_cast<size_t>(owner & check_mask)] + slot)];
    };

    s.flags[static_cast<size_t>(boundary_id)] |= kOnBoundary;
    for (const DetectionEvent &ev : events) {
        const int v = (ev.round << s.check_shift) | ev.check;
        s.flags[static_cast<size_t>(v)] ^= kDefect | kOdd;
        join(v);
    }

    // Growth. Each round grows, by one half-edge per active end,
    // every ungrown edge incident to a node of an active cluster,
    // selected from the pre-round cluster state and applied in
    // ascending key order with live re-evaluation of cluster
    // activity, so a merge earlier in the round is visible to later
    // edges of the same round.
    //
    // Round one in closed form: every cluster is one defect and every
    // edge is ungrown, so an edge fills only when it joins two defects
    // still odd when it is applied. Those edges are applied in key
    // order; any other edge of an odd defect v gains one half-edge
    // exactly when its key precedes v's merge. Only a second round
    // reads those half-edges, so they are written only when one
    // follows. (Three in four of the stream screen's windows end after
    // round one; this path and the one-round peel below halve their
    // cost, see src/decoders/README.md.)
    int growth_rounds = 0;
    int active = 0;  // members of clusters still growing
    s.pairs.clear();
    for (const int v : s.members) {
        const bool odd = (s.flags[static_cast<size_t>(v)] & kOdd) != 0;
        active += odd ? 1 : 0;
        // Each edge joining two defects, found at its owner (the
        // owned entries are the ones at non-negative key deltas).
        const auto range = incidence(v);
        for (const Incidence *it = range.first; it != range.second; ++it) {
            if (it->key_delta < 0 || it->boundary) {
                continue;
            }
            const uint8_t other =
                s.flags[static_cast<size_t>(v + it->other_delta)];
            if ((other & kInCluster) != 0 && (odd || (other & kOdd) != 0)) {
                s.pairs.push_back((v << s.slot_shift) + it->key_delta);
            }
        }
    }
    if (active > 0) {
        growth_rounds = 1;
        std::sort(s.pairs.begin(), s.pairs.end());
        for (const int key : s.pairs) {
            const int a = key >> s.slot_shift;
            const int b = a + owned(a, key & slot_mask).other_delta;
            const int g = (grows(a) ? 1 : 0) + (grows(b) ? 1 : 0);
            if (g == 2) {
                unite(a, b);
                active -= 2;
            }
            if (g != 0) {
                s.growth[static_cast<size_t>(key)] = static_cast<uint8_t>(g);
                s.touched.push_back(key);
            }
        }
        if (active > 0) {
            for (const int v : s.members) {
                if ((s.flags[static_cast<size_t>(v)] & kDefect) == 0) {
                    continue;  // cancelled: never grew
                }
                const auto range = incidence(v);
                for (const Incidence *it = range.first; it != range.second;
                     ++it) {
                    const int key = (v << s.slot_shift) + it->key_delta;
                    if (s.growth[static_cast<size_t>(key)] == 2) {
                        break;  // v's merge: its cluster stops growing
                    }
                    if (!it->boundary &&
                        (s.flags[static_cast<size_t>(v + it->other_delta)] &
                         kInCluster) != 0) {
                        continue;  // joins two defects: applied above
                    }
                    s.growth[static_cast<size_t>(key)] = 1;
                    s.touched.push_back(key);
                }
            }
        }
    }

    // Later rounds queue their candidate edges into a two-level bit
    // set over edge keys and drain it in ascending key order.
    while (active > 0) {
        active = 0;
        int lowest_active = boundary_id;
        int highest_active = -1;
        const size_t members = s.members.size();
        for (size_t i = 0; i < members; ++i) {
            const int v = s.members[i];
            if (v == boundary_id || !grows(v)) {
                continue;
            }
            ++active;
            lowest_active = std::min(lowest_active, v);
            highest_active = std::max(highest_active, v);
            const auto range = incidence(v);
            for (const Incidence *it = range.first; it != range.second;
                 ++it) {
                const size_t key = static_cast<size_t>(
                    (v << s.slot_shift) + it->key_delta);
                if (s.growth[key] >= 2) {
                    continue;
                }
                s.queued[key >> 6] |= uint64_t(1) << (key & 63);
                s.queued_words[key >> 12] |= uint64_t(1)
                                             << ((key >> 6) & 63);
            }
        }
        if (active == 0) {
            break;
        }
        ++growth_rounds;
        // The queued keys lie between the lowest active node's edge from
        // the round below and the highest active node's own slots.
        const int round_below =
            std::max(lowest_active - (1 << s.check_shift), 0);
        const size_t first_word =
            static_cast<size_t>(round_below) << s.slot_shift >> 12;
        const size_t last_word =
            ((static_cast<size_t>(highest_active + 1) << s.slot_shift) - 1) >>
            12;
        bool queued_any = false;
        int owner = -1;          // the last edge's owning node
        bool owner_grows = false;  // grows(owner), valid until a merge
        for (size_t w2 = first_word; w2 <= last_word; ++w2) {
            uint64_t summary = s.queued_words[w2];
            s.queued_words[w2] = 0;
            for (; summary != 0; summary &= summary - 1) {
                const size_t w1 = (w2 << 6) + static_cast<size_t>(
                                                  lowest_bit(summary));
                uint64_t bits = s.queued[w1];
                s.queued[w1] = 0;
                for (; bits != 0; bits &= bits - 1) {
                    const int key =
                        static_cast<int>((w1 << 6) +
                                         static_cast<size_t>(lowest_bit(bits)));
                    const int a = key >> s.slot_shift;
                    if (a != owner) {
                        owner = a;
                        owner_grows = grows(a);
                    }
                    queued_any = true;
                    const Incidence &edge = owned(a, key & slot_mask);
                    const int b =
                        edge.boundary ? boundary_id : a + edge.other_delta;
                    uint8_t &growth = s.growth[static_cast<size_t>(key)];
                    const uint8_t before = growth;
                    uint8_t g = static_cast<uint8_t>(
                        before + (owner_grows ? 1 : 0) + (grows(b) ? 1 : 0));
                    if (g >= 2) {
                        g = 2;
                        join(a);
                        join(b);
                        unite(a, b);
                        owner = -1;
                        if (edge.boundary) {
                            s.boundary_grown.push_back(key);
                        }
                    }
                    if (before == 0 && g != 0) {
                        s.touched.push_back(key);
                    }
                    growth = g;
                }
            }
        }
        // Every round grows some edge, so the loop ends: a cluster
        // whose incident edges are all grown has absorbed its whole
        // component, boundary included, and is no longer active. Stale
        // growth from an earlier call would break this and spin.
        BTWC_CHECK_MSG(queued_any,
                       "an active union-find cluster must have an ungrown "
                       "incident edge");
    }
    out.effort = growth_rounds;

    if (growth_rounds <= 1) {
        // Round one alone: every cluster is a cancelled defect or two
        // defects joined by the edge that merged them, and peeling
        // that two-node tree flips that edge.
        for (const int key : s.touched) {
            if (s.growth[static_cast<size_t>(key)] == 2) {
                const int data =
                    owned(key >> s.slot_shift, key & slot_mask).data;
                if (data >= 0) {
                    out.correction.flip(data);
                    ++out.weight;
                }
            }
        }
    } else {
        // Peeling: spanning forest over fully grown edges, rooted at the
        // boundary where reachable, else at each cluster's lowest member,
        // then transfer defects leaf-to-root. The clusters are exactly the
        // components of the grown edges, so that is the forest a scan of
        // the members in ascending order roots (the order of the trees
        // does not matter: each peels only its own edges). (A repeated
        // event that cancelled, with no grown edge, roots a one-node tree
        // that peels nothing.)
        s.order.clear();
        auto visit = [&s](int v, int from, int data) {
            s.flags[static_cast<size_t>(v)] |= kVisited;
            s.order.push_back(Scratch::Visit{v, from, data});
        };
        auto visited = [&s](int v) {
            return (s.flags[static_cast<size_t>(v)] & kVisited) != 0;
        };
        auto bfs_from = [&](size_t head) {
            while (head < s.order.size()) {
                const int v = s.order[head++].node;
                const auto range = incidence(v);
                for (const Incidence *it = range.first; it != range.second;
                     ++it) {
                    const int key = (v << s.slot_shift) + it->key_delta;
                    if (s.growth[static_cast<size_t>(key)] < 2) {
                        continue;
                    }
                    const int other = it->boundary ? boundary_id
                                                   : v + it->other_delta;
                    if (!visited(other)) {
                        visit(other, v, it->data);
                    }
                }
            }
        };
        if (!s.boundary_grown.empty()) {
            // The boundary root's incidence is its grown half-edges, in
            // ascending key order.
            std::sort(s.boundary_grown.begin(), s.boundary_grown.end());
            visit(boundary_id, -1, -1);
            for (const int key : s.boundary_grown) {
                const int a = key >> s.slot_shift;
                if (!visited(a)) {
                    visit(a, boundary_id, owned(a, key & slot_mask).data);
                }
            }
            bfs_from(1);
            s.boundary_grown.clear();
        }
        for (const int v : s.members) {
            if (!visited(v)) {
                const size_t head = s.order.size();
                visit(s.lowest[static_cast<size_t>(find(v))], -1, -1);
                bfs_from(head);
            }
        }

        for (size_t i = s.order.size(); i-- > 0;) {
            const Scratch::Visit &node = s.order[i];
            uint8_t &f = s.flags[static_cast<size_t>(node.node)];
            if (node.parent < 0 || (f & kDefect) == 0) {
                continue;
            }
            if (node.data >= 0) {
                out.correction.flip(node.data);
                ++out.weight;
            }
            f = static_cast<uint8_t>(f & ~kDefect);
            s.flags[static_cast<size_t>(node.parent)] ^= kDefect;
        }
    }

    // Restore the between-call invariant.
    for (const int key : s.touched) {
        s.growth[static_cast<size_t>(key)] = 0;
    }
    for (const int v : s.members) {
        s.parent[static_cast<size_t>(v)] = v;
        s.flags[static_cast<size_t>(v)] = 0;
    }
    s.parent[static_cast<size_t>(boundary_id)] = boundary_id;
    s.flags[static_cast<size_t>(boundary_id)] = 0;
}

} // namespace btwc
