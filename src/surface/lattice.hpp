#pragma once

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
 * One stabilizer measurement site (ancilla qubit).
 *
 * `pr`/`pc` are plaquette coordinates: the plaquette at (pr, pc) acts
 * on the data qubits at rows {pr, pr+1} x columns {pc, pc+1} that lie
 * inside the d x d data grid, so interior checks have weight 4 and
 * boundary checks have weight 2.
 */
struct Check
{
    int id;                 ///< index within its type's check list
    int pr;                 ///< plaquette row, in [-1, d-1]
    int pc;                 ///< plaquette column, in [-1, d-1]
    CheckType type;         ///< stabilizer type
    std::vector<int> data;  ///< data qubit ids in the stabilizer support
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
 */
class RotatedSurfaceCode
{
  public:
    /** Build the lattice for the given odd distance >= 3. */
    explicit RotatedSurfaceCode(int distance);

    ~RotatedSurfaceCode();

    // The lazily-built distance tables carry a once_flag, so the code
    // is addressed by reference everywhere (as it always was).
    RotatedSurfaceCode(const RotatedSurfaceCode &) = delete;
    RotatedSurfaceCode &operator=(const RotatedSurfaceCode &) = delete;

    /** Code distance d. */
    int distance() const { return d_; }

    /** Number of data qubits, d^2. */
    int num_data() const { return d_ * d_; }

    /** Number of checks of one type, (d^2 - 1) / 2. */
    int num_checks(CheckType t) const
    {
        return static_cast<int>(checks_[index(t)].size());
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
        return checks_[index(t)][id];
    }

    /** All checks of a type. */
    const std::vector<Check> &checks(CheckType t) const
    {
        return checks_[index(t)];
    }

    /** Check id at plaquette (pr, pc) of the given type, or -1. */
    int check_at(CheckType t, int pr, int pc) const;

    /**
     * Checks of type t containing the given data qubit (1 or 2 ids).
     */
    const std::vector<int> &checks_of_data(CheckType t, int data) const
    {
        return data_checks_[index(t)][data];
    }

    /**
     * The two same-type checks a data qubit connects in the matching
     * graph of type t, as {a, b}; b == -1 marks a boundary half-edge.
     */
    std::pair<int, int> edge_of_data(CheckType t, int data) const;

    /** Clique neighbors of a check (same type, sharing a data qubit). */
    const std::vector<CliqueNeighbor> &
    clique_neighbors(CheckType t, int id) const
    {
        return clique_[index(t)][id];
    }

    /**
     * Boundary half-edge data qubits of a check: data qubits in its
     * support that belong to no other check of the same type.
     */
    const std::vector<int> &boundary_data(CheckType t, int id) const
    {
        return boundary_[index(t)][id];
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
    static int index(CheckType t) { return static_cast<int>(t); }

    void build_checks();
    void build_incidence();
    void build_cliques();

    int d_;
    std::vector<Check> checks_[2];
    std::vector<std::vector<int>> plaquette_id_[2];
    std::vector<std::vector<int>> data_checks_[2];
    std::vector<std::vector<CliqueNeighbor>> clique_[2];
    std::vector<std::vector<int>> boundary_[2];
    std::vector<int> logical_[2];
    mutable std::once_flag distances_once_[2];
    mutable std::unique_ptr<CheckGraphDistances> distances_[2];
};

} // namespace btwc
