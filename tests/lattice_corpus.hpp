#pragma once

/**
 * @file
 * Table pin of the lattice geometry (tests/golden/lattice_tables.txt,
 * checked by tests/test_surface.cpp `LatticeGolden.*`). Each golden
 * line is one table of one (distance, check type): its entry count and
 * an FNV-1a-64 hash over its entries in iteration order.
 *
 * Neighbour order is behaviour, not layout: it fixes which qubits
 * Clique corrects, Union-Find's edge order and the smallest-id step of
 * the MWPM path walk. The golden file was generated from the nested
 * per-check vectors that the flat tables replaced, so it pins that
 * every accessor yields the same entries in the same order.
 *
 * Only range-for, `size()` and the public accessors are used here, so
 * the corpus compiles against either table layout.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "surface/lattice.hpp"

namespace btwc {

/** FNV-1a-64 over a stream of ints, counting what it hashed. */
struct TableHash
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    int entries = 0;

    void add(int value)
    {
        const uint32_t v = static_cast<uint32_t>(value);
        for (int byte = 0; byte < 4; ++byte) {
            hash ^= (v >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ULL;
        }
    }
};

inline std::string
table_line(int d, CheckType t, const char *table, const TableHash &h)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "d=%d %s %s %d %016" PRIx64, d,
                  check_type_name(t), table, h.entries, h.hash);
    return buf;
}

/** Distances of the pin: the swept ones, d = 21 and two large codes. */
inline std::vector<int>
lattice_corpus_distances()
{
    return {3, 5, 7, 9, 11, 13, 21, 41, 81};
}

/**
 * Seven lines per (d, type): check records, supports, owners per data
 * qubit, clique neighbours, boundary data, the plaquette map and the
 * logical support (of error type t). A list's size is hashed before
 * its entries, so moving an entry between lists moves the hash.
 */
inline std::vector<std::string>
lattice_table_lines()
{
    std::vector<std::string> lines;
    for (const int d : lattice_corpus_distances()) {
        const RotatedSurfaceCode code(d);
        for (const CheckType t : {CheckType::X, CheckType::Z}) {
            TableHash checks;
            TableHash supports;
            TableHash cliques;
            TableHash boundary;
            for (const Check &chk : code.checks(t)) {
                checks.add(chk.id);
                checks.add(chk.pr);
                checks.add(chk.pc);
                checks.add(static_cast<int>(chk.type));
                ++checks.entries;
                supports.add(static_cast<int>(chk.data.size()));
                for (const int q : chk.data) {
                    supports.add(q);
                    ++supports.entries;
                }
                const auto &nbrs = code.clique_neighbors(t, chk.id);
                cliques.add(static_cast<int>(nbrs.size()));
                for (const CliqueNeighbor &nb : nbrs) {
                    cliques.add(nb.check);
                    cliques.add(nb.shared_data);
                    ++cliques.entries;
                }
                const auto &bdata = code.boundary_data(t, chk.id);
                boundary.add(static_cast<int>(bdata.size()));
                for (const int q : bdata) {
                    boundary.add(q);
                    ++boundary.entries;
                }
            }
            TableHash owners;
            for (int q = 0; q < code.num_data(); ++q) {
                const auto &list = code.checks_of_data(t, q);
                owners.add(static_cast<int>(list.size()));
                for (const int c : list) {
                    owners.add(c);
                    ++owners.entries;
                }
            }
            TableHash plaquettes;
            for (int pr = -1; pr <= d - 1; ++pr) {
                for (int pc = -1; pc <= d - 1; ++pc) {
                    plaquettes.add(code.check_at(t, pr, pc));
                    ++plaquettes.entries;
                }
            }
            TableHash logical;
            for (const int q : code.logical_support(t)) {
                logical.add(q);
                ++logical.entries;
            }
            lines.push_back(table_line(d, t, "checks", checks));
            lines.push_back(table_line(d, t, "supports", supports));
            lines.push_back(table_line(d, t, "owners", owners));
            lines.push_back(table_line(d, t, "cliques", cliques));
            lines.push_back(table_line(d, t, "boundary", boundary));
            lines.push_back(table_line(d, t, "plaquettes", plaquettes));
            lines.push_back(table_line(d, t, "logical", logical));
        }
    }
    return lines;
}

} // namespace btwc
