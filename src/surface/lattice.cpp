#include "surface/lattice.hpp"

#include "common/check.hpp"
#include <cstdlib>

#include "surface/distance.hpp"

namespace btwc {

const char *
check_type_name(CheckType t)
{
    return t == CheckType::X ? "X" : "Z";
}

namespace {

/** Plaquette type from the checkerboard colouring. */
CheckType
plaquette_type(int pr, int pc)
{
    return ((pr + pc) % 2 + 2) % 2 == 0 ? CheckType::X : CheckType::Z;
}

/**
 * Whether a plaquette hosts a stabilizer. Interior plaquettes always
 * do; boundary rows keep only X-type plaquettes (alternating) and
 * boundary columns only Z-type; corners host none.
 */
bool
plaquette_exists(int d, int pr, int pc)
{
    const bool row_edge = (pr == -1 || pr == d - 1);
    const bool col_edge = (pc == -1 || pc == d - 1);
    if (row_edge && col_edge) {
        return false;
    }
    if (row_edge) {
        return pc >= 0 && pc <= d - 2 &&
               plaquette_type(pr, pc) == CheckType::X;
    }
    if (col_edge) {
        return pr >= 0 && pr <= d - 2 &&
               plaquette_type(pr, pc) == CheckType::Z;
    }
    return pr >= 0 && pr <= d - 2 && pc >= 0 && pc <= d - 2;
}

} // namespace

RotatedSurfaceCode::RotatedSurfaceCode(int distance) : d_(distance)
{
    BTWC_CHECK_MSG(d_ >= 3 && d_ % 2 == 1,
                   "distance must be odd and >= 3");
    build(CheckType::X);
    build(CheckType::Z);

    // Minimum-weight logical representatives: X_L on data column 0
    // (connects the top and bottom boundaries of the Z-check matching
    // graph), Z_L on data row 0 (connects the left/right boundaries of
    // the X-check graph). Validated by the test suite.
    logical_[index(CheckType::X)].reserve(static_cast<size_t>(d_));
    logical_[index(CheckType::Z)].reserve(static_cast<size_t>(d_));
    for (int r = 0; r < d_; ++r) {
        logical_[index(CheckType::X)].push_back(data_id(r, 0));
    }
    for (int c = 0; c < d_; ++c) {
        logical_[index(CheckType::Z)].push_back(data_id(0, c));
    }
}

void
RotatedSurfaceCode::build(CheckType t)
{
    Tables &tab = tables_[index(t)];
    const size_t n = static_cast<size_t>((d_ * d_ - 1) / 2);
    const size_t side = static_cast<size_t>(d_ + 1);

    // Checks, row-major over the plaquettes. A support holds at most
    // four qubits, so with 4n reserved the array never moves and every
    // Check::data view taken while it fills stays valid.
    tab.checks.reserve(n);
    tab.support.reserve(4 * n);
    tab.plaquette.assign(side * side, -1);
    for (int pr = -1; pr <= d_ - 1; ++pr) {
        for (int pc = -1; pc <= d_ - 1; ++pc) {
            if (plaquette_type(pr, pc) != t ||
                !plaquette_exists(d_, pr, pc)) {
                continue;
            }
            const int id = static_cast<int>(tab.checks.size());
            const int *first = tab.support.data() + tab.support.size();
            for (int r = pr; r <= pr + 1; ++r) {
                for (int c = pc; c <= pc + 1; ++c) {
                    if (r >= 0 && r < d_ && c >= 0 && c < d_) {
                        tab.support.push_back(data_id(r, c));
                    }
                }
            }
            const int *last = tab.support.data() + tab.support.size();
            tab.checks.push_back(
                Check{id, pr, pc, t, TableView<int>(first, last)});
            tab.plaquette[static_cast<size_t>(pr + 1) * side +
                          static_cast<size_t>(pc + 1)] = id;
        }
    }
    BTWC_CHECK(tab.checks.size() == n);

    // Owners: visiting checks by ascending id fills each qubit's
    // slots in ascending order.
    tab.owners.assign(2 * static_cast<size_t>(num_data()), -1);
    for (const Check &chk : tab.checks) {
        for (const int data : chk.data) {
            int *slot = &tab.owners[2 * static_cast<size_t>(data)];
            BTWC_CHECK_MSG(slot[1] < 0, "every data qubit touches 1 or 2 "
                                        "checks per type");
            slot[slot[0] < 0 ? 0 : 1] = chk.id;
        }
    }
    size_t boundary_total = 0;
    for (int data = 0; data < num_data(); ++data) {
        const int *slot = owner_slots(t, data);
        BTWC_CHECK_MSG(slot[0] >= 0, "every data qubit touches 1 or 2 "
                                     "checks per type");
        boundary_total += slot[1] < 0 ? 1 : 0;
    }

    // Clique neighbours and boundary data, each check's in support
    // order: a qubit with two owners links them, one with a single
    // owner is a boundary half-edge.
    tab.clique_begin.assign(n + 1, 0);
    tab.boundary_begin.assign(n + 1, 0);
    tab.clique.reserve(tab.support.size() - boundary_total);
    tab.boundary.reserve(boundary_total);
    for (const Check &chk : tab.checks) {
        for (const int data : chk.data) {
            const int *slot = owner_slots(t, data);
            if (slot[1] < 0) {
                tab.boundary.push_back(data);
                continue;
            }
            const int other = slot[0] == chk.id ? slot[1] : slot[0];
            tab.clique.push_back(CliqueNeighbor{other, data});
        }
        const size_t next = static_cast<size_t>(chk.id) + 1;
        tab.clique_begin[next] = static_cast<int>(tab.clique.size());
        tab.boundary_begin[next] = static_cast<int>(tab.boundary.size());
    }
}

RotatedSurfaceCode::~RotatedSurfaceCode() = default;

const CheckGraphDistances &
RotatedSurfaceCode::check_distances(CheckType t) const
{
    const int i = index(t);
    std::call_once(distances_once_[i], [this, t, i] {
        distances_[i] = std::make_unique<CheckGraphDistances>(*this, t);
    });
    return *distances_[i];
}

int
RotatedSurfaceCode::check_at(CheckType t, int pr, int pc) const
{
    if (pr < -1 || pr > d_ - 1 || pc < -1 || pc > d_ - 1) {
        return -1;
    }
    return tables_[index(t)].plaquette[static_cast<size_t>(pr + 1) *
                                           static_cast<size_t>(d_ + 1) +
                                       static_cast<size_t>(pc + 1)];
}

void
RotatedSurfaceCode::syndrome_of(CheckType detector, const PackedBits &error,
                                PackedSyndrome &out) const
{
    BTWC_CHECK_MSG(error.size() == num_data(),
                   "an error mask has one bit per data qubit");
    const std::vector<Check> &list = tables_[index(detector)].checks;
    out.reset(static_cast<int>(list.size()));
    for (const Check &chk : list) {
        bool parity = false;
        for (const int data : chk.data) {
            parity ^= error.test(data);
        }
        if (parity) {
            out.set(chk.id);
        }
    }
}

bool
RotatedSurfaceCode::logical_flipped(CheckType error_type,
                                    const PackedBits &error) const
{
    BTWC_CHECK_MSG(error.size() == num_data(),
                   "an error mask has one bit per data qubit");
    // An X-type residual fails the logical qubit when it anticommutes
    // with Z_L (and symmetrically for Z residuals), i.e. when its
    // overlap with the *opposite* type's logical support is odd.
    const CheckType dual =
        error_type == CheckType::X ? CheckType::Z : CheckType::X;
    bool parity = false;
    for (const int data : logical_[index(dual)]) {
        parity ^= error.test(data);
    }
    return parity;
}

} // namespace btwc
