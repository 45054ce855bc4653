#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "surface/packed.hpp"

namespace btwc {

class CheckGraphDistances;

/**
 * Stabilizer (ancilla) type of the rotated surface code.
 *
 * Z-type stabilizers measure Z-parities and therefore detect X (bit
 * flip) data errors; X-type stabilizers detect Z (phase flip) errors.
 * The two halves of the lattice are decoded independently (§6.1 of the
 * paper).
 */
enum class CheckType : uint8_t { X = 0, Z = 1 };

/** The check type that detects the given error type. */
constexpr CheckType
detector_of_error(CheckType error_type)
{
    return error_type == CheckType::X ? CheckType::Z : CheckType::X;
}

/** Short display name ("X" or "Z"). */
const char *check_type_name(CheckType t);

/**
 * A read-only view of consecutive entries of one of the lattice's flat
 * tables: a check's support, a data qubit's owners, a check's clique
 * neighbours or boundary data. It stays valid as long as the code that
 * handed it out.
 */
template <typename T>
class TableView
{
  public:
    TableView() = default;
    TableView(const T *begin, const T *end) : begin_(begin), end_(end) {}

    const T *begin() const { return begin_; }
    const T *end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    const T &front() const { return *begin_; }
    const T &operator[](size_t i) const { return begin_[i]; }

  private:
    const T *begin_ = nullptr;
    const T *end_ = nullptr;
};

/**
 * One stabilizer measurement site (ancilla qubit).
 *
 * `pr`/`pc` are plaquette coordinates: the plaquette at (pr, pc) acts
 * on the data qubits at rows {pr, pr+1} x columns {pc, pc+1} that lie
 * inside the d x d data grid, so interior checks have weight 4 and
 * boundary checks have weight 2.
 */
struct Check
{
    int id;               ///< index within its type's check list
    int pr;               ///< plaquette row, in [-1, d-1]
    int pc;               ///< plaquette column, in [-1, d-1]
    CheckType type;       ///< stabilizer type
    TableView<int> data;  ///< data qubit ids in the stabilizer support
};

/**
 * A same-type clique neighbor of a check (Fig. 5 of the paper).
 *
 * Two same-type checks are clique neighbors when they share exactly
 * one data qubit; `shared_data` identifies it. It is the qubit the
 * Clique decoder corrects when both checks fire.
 */
struct CliqueNeighbor
{
    int check;        ///< neighbor check id (same type)
    int shared_data;  ///< the one data qubit shared by the two checks
};

/**
 * Rotated surface code of odd distance d.
 *
 * Layout: d x d data qubits at integer coordinates (r, c). Plaquettes
 * live at half-integer positions indexed by (pr, pc) with pr, pc in
 * [-1, d-1]. Interior plaquettes are all present, with type X when
 * (pr + pc) is even and Z when odd. Weight-2 boundary plaquettes are
 * X-type on the top/bottom rows and Z-type on the left/right columns,
 * alternating so that each boundary hosts (d-1)/2 checks. Corners hold
 * no checks. This yields (d^2-1)/2 checks of each type.
 *
 * Matching-graph view (per check type): each data qubit touches
 * exactly one or two checks of each type, so it is either an edge
 * between two same-type checks or a *boundary half-edge* hanging off a
 * single check. X-error chains terminate on the top/bottom (X-type)
 * boundaries, Z-error chains on the left/right boundaries.
 *
 * Logical operators: X_L is a column of X on data column 0 and Z_L a
 * row of Z on data row 0 (verified by the test suite: trivial
 * syndrome, mutual anticommutation, independence of the stabilizer
 * group).
 *
 * Storage: each check type keeps its tables in flat arrays, so a code
 * costs a fixed number of allocations whatever d is. The check records
 * hold views into one shared support array; each data qubit has two
 * owner slots; clique neighbours and boundary data are offset-plus-
 * payload arrays; the plaquette map is one (d+1)^2 grid. Checks are
 * numbered row-major over the plaquettes, a support lists its qubits
 * row-major over the 2x2 block, a qubit's owners ascend, and a check's
 * clique neighbours and boundary data follow its support order. That
 * order is behaviour (Clique's corrections, Union-Find's edge order and
 * the MWPM walk's smallest-id step follow it), pinned by
 * tests/golden/lattice_tables.txt.
 */
class RotatedSurfaceCode
{
  public:
    /** Build the lattice for the given odd distance >= 3. */
    explicit RotatedSurfaceCode(int distance);

    ~RotatedSurfaceCode();

    // The views point into the code's own arrays and the lazily-built
    // distance tables carry a once_flag, so the code is addressed by
    // reference everywhere (as it always was).
    RotatedSurfaceCode(const RotatedSurfaceCode &) = delete;
    RotatedSurfaceCode &operator=(const RotatedSurfaceCode &) = delete;

    /** Code distance d. */
    int distance() const { return d_; }

    /** Number of data qubits, d^2. */
    int num_data() const { return d_ * d_; }

    /** Number of checks of one type, (d^2 - 1) / 2. */
    int num_checks(CheckType t) const
    {
        return static_cast<int>(tables_[index(t)].checks.size());
    }

    /** Data qubit id from (row, column). */
    int data_id(int r, int c) const { return r * d_ + c; }

    /** Row of a data qubit id. */
    int data_row(int id) const { return id / d_; }

    /** Column of a data qubit id. */
    int data_col(int id) const { return id % d_; }

    /** Check record by type and id. */
    const Check &check(CheckType t, int id) const
    {
        return tables_[index(t)].checks[static_cast<size_t>(id)];
    }

    /** All checks of a type. */
    const std::vector<Check> &checks(CheckType t) const
    {
        return tables_[index(t)].checks;
    }

    /** Check id at plaquette (pr, pc) of the given type, or -1. */
    int check_at(CheckType t, int pr, int pc) const;

    /**
     * Checks of type t containing the given data qubit (1 or 2 ids,
     * ascending).
     */
    TableView<int> checks_of_data(CheckType t, int data) const
    {
        const int *slot = owner_slots(t, data);
        return TableView<int>(slot, slot + (slot[1] >= 0 ? 2 : 1));
    }

    /**
     * The two same-type checks a data qubit connects in the matching
     * graph of type t, as {a, b}; b == -1 marks a boundary half-edge.
     */
    std::pair<int, int> edge_of_data(CheckType t, int data) const
    {
        const int *slot = owner_slots(t, data);
        return {slot[0], slot[1]};
    }

    /** Clique neighbors of a check (same type, sharing a data qubit). */
    TableView<CliqueNeighbor> clique_neighbors(CheckType t, int id) const
    {
        const Tables &tab = tables_[index(t)];
        const size_t i = static_cast<size_t>(id);
        return TableView<CliqueNeighbor>(
            tab.clique.data() + tab.clique_begin[i],
            tab.clique.data() + tab.clique_begin[i + 1]);
    }

    /**
     * Boundary half-edge data qubits of a check: data qubits in its
     * support that belong to no other check of the same type.
     */
    TableView<int> boundary_data(CheckType t, int id) const
    {
        const Tables &tab = tables_[index(t)];
        const size_t i = static_cast<size_t>(id);
        return TableView<int>(
            tab.boundary.data() + tab.boundary_begin[i],
            tab.boundary.data() + tab.boundary_begin[i + 1]);
    }

    /**
     * Support of the minimum-weight logical operator of the given
     * error type: data column 0 for X errors, data row 0 for Z errors.
     */
    const std::vector<int> &logical_support(CheckType error_type) const
    {
        return logical_[index(error_type)];
    }

    /**
     * Noiseless syndrome: for every check of type `detector`, the
     * parity of `error` (one bit per data qubit, set = flipped) over
     * the check support. `out` is reset to num_checks bits.
     */
    void syndrome_of(CheckType detector, const PackedBits &error,
                     PackedSyndrome &out) const;

    /**
     * Parity of an error pattern (one bit per data qubit) over the
     * logical support of the *opposite* error type; odd parity after a
     * trivial-syndrome residual means a logical failure. For X-type
     * residual errors pass error_type = X (overlap with Z_L is
     * evaluated).
     */
    bool logical_flipped(CheckType error_type,
                         const PackedBits &error) const;

    /**
     * Precomputed matching-graph geometry of one check type
     * (surface/distance.hpp): all-pairs check hop distances plus
     * per-check boundary hops — the spacetime distance oracle behind
     * `MwpmDecoder`. Built lazily on first request
     * (thread-safe), so Clique-only and Oracle-policy runs never pay
     * the O(num_checks^2) table.
     */
    const CheckGraphDistances &check_distances(CheckType t) const;

  private:
    /** The flat tables of one check type. */
    struct Tables
    {
        std::vector<Check> checks;
        std::vector<int> support;  ///< every Check::data, in id order
        std::vector<int> owners;   ///< two slots per data qubit, -1 = none
        std::vector<int> clique_begin;  ///< num_checks + 1 offsets
        std::vector<CliqueNeighbor> clique;
        std::vector<int> boundary_begin;  ///< num_checks + 1 offsets
        std::vector<int> boundary;
        std::vector<int> plaquette;  ///< (d+1)^2 check ids, -1 = none
    };

    static int index(CheckType t) { return static_cast<int>(t); }

    const int *owner_slots(CheckType t, int data) const
    {
        return tables_[index(t)].owners.data() +
               2 * static_cast<size_t>(data);
    }

    void build(CheckType t);

    int d_;
    Tables tables_[2];
    std::vector<int> logical_[2];  ///< indexed by error type
    mutable std::once_flag distances_once_[2];
    mutable std::unique_ptr<CheckGraphDistances> distances_[2];
};

} // namespace btwc
