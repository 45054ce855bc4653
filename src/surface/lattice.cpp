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
    build_checks();
    build_incidence();
    build_cliques();

    // Minimum-weight logical representatives: X_L on data column 0
    // (connects the top and bottom boundaries of the Z-check matching
    // graph), Z_L on data row 0 (connects the left/right boundaries of
    // the X-check graph). Validated by the test suite.
    for (int r = 0; r < d_; ++r) {
        logical_[index(CheckType::X)].push_back(data_id(r, 0));
    }
    for (int c = 0; c < d_; ++c) {
        logical_[index(CheckType::Z)].push_back(data_id(0, c));
    }
}

void
RotatedSurfaceCode::build_checks()
{
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        plaquette_id_[index(t)].assign(
            d_ + 1, std::vector<int>(d_ + 1, -1));
    }
    for (int pr = -1; pr <= d_ - 1; ++pr) {
        for (int pc = -1; pc <= d_ - 1; ++pc) {
            if (!plaquette_exists(d_, pr, pc)) {
                continue;
            }
            const CheckType t = plaquette_type(pr, pc);
            Check chk;
            chk.id = static_cast<int>(checks_[index(t)].size());
            chk.pr = pr;
            chk.pc = pc;
            chk.type = t;
            for (int r = pr; r <= pr + 1; ++r) {
                for (int c = pc; c <= pc + 1; ++c) {
                    if (r >= 0 && r < d_ && c >= 0 && c < d_) {
                        chk.data.push_back(data_id(r, c));
                    }
                }
            }
            plaquette_id_[index(t)][pr + 1][pc + 1] = chk.id;
            checks_[index(t)].push_back(std::move(chk));
        }
    }
    BTWC_CHECK(num_checks(CheckType::X) == (d_ * d_ - 1) / 2);
    BTWC_CHECK(num_checks(CheckType::Z) == (d_ * d_ - 1) / 2);
}

void
RotatedSurfaceCode::build_incidence()
{
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        auto &incidence = data_checks_[index(t)];
        incidence.assign(num_data(), {});
        for (const Check &chk : checks_[index(t)]) {
            for (const int data : chk.data) {
                incidence[data].push_back(chk.id);
            }
        }
        for (const auto &list : incidence) {
            BTWC_CHECK_MSG(list.size() >= 1 && list.size() <= 2,
                           "every data qubit touches 1 or 2 checks "
                           "per type");
        }
    }
}

void
RotatedSurfaceCode::build_cliques()
{
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        auto &clique = clique_[index(t)];
        auto &boundary = boundary_[index(t)];
        clique.assign(num_checks(t), {});
        boundary.assign(num_checks(t), {});
        for (const Check &chk : checks_[index(t)]) {
            for (const int data : chk.data) {
                const auto &owners = data_checks_[index(t)][data];
                if (owners.size() == 1) {
                    boundary[chk.id].push_back(data);
                    continue;
                }
                const int other = owners[0] == chk.id ? owners[1]
                                                      : owners[0];
                clique[chk.id].push_back(CliqueNeighbor{other, data});
            }
        }
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
    return plaquette_id_[index(t)][pr + 1][pc + 1];
}

std::pair<int, int>
RotatedSurfaceCode::edge_of_data(CheckType t, int data) const
{
    const auto &owners = data_checks_[index(t)][data];
    if (owners.size() == 2) {
        return {owners[0], owners[1]};
    }
    return {owners[0], -1};
}

void
RotatedSurfaceCode::syndrome_of(CheckType detector, const PackedBits &error,
                                PackedSyndrome &out) const
{
    BTWC_CHECK_MSG(error.size() == num_data(),
                   "an error mask has one bit per data qubit");
    const auto &list = checks_[index(detector)];
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
