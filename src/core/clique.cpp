#include "core/clique.hpp"

namespace btwc {

CliqueDecoder::CliqueDecoder(const RotatedSurfaceCode &code,
                             CheckType detector)
    : code_(code), detector_(detector),
      num_checks_(code.num_checks(detector)),
      syndrome_words_(packed_words(num_checks_))
{
    neighbor_masks_.assign(
        static_cast<size_t>(num_checks_) *
            static_cast<size_t>(syndrome_words_),
        0);
    first_boundary_data_.assign(static_cast<size_t>(num_checks_), -1);
    for (int c = 0; c < num_checks_; ++c) {
        uint64_t *mask =
            &neighbor_masks_[static_cast<size_t>(c) *
                             static_cast<size_t>(syndrome_words_)];
        for (const CliqueNeighbor &nb :
             code_.clique_neighbors(detector_, c)) {
            mask[nb.check >> 6] |= uint64_t(1) << (nb.check & 63);
        }
        const auto &bdata = code_.boundary_data(detector_, c);
        if (!bdata.empty()) {
            first_boundary_data_[c] = bdata.front();
        }
    }
}

bool
CliqueDecoder::clique_is_complex(int check,
                                 const std::vector<uint8_t> &syndrome) const
{
    if (!(syndrome[check] & 1)) {
        return false;  // inactive cliques never raise the flag
    }
    int fired = 0;
    for (const CliqueNeighbor &nb : code_.clique_neighbors(detector_, check)) {
        fired += syndrome[nb.check] & 1;
    }
    if (fired % 2 == 1) {
        return false;  // odd neighborhood parity: locally decodable
    }
    if (fired == 0 && !code_.boundary_data(detector_, check).empty()) {
        return false;  // boundary special case (1+1 / 1+2 cliques)
    }
    return true;
}

CliqueOutcome
CliqueDecoder::decode(const std::vector<uint8_t> &syndrome) const
{
    CliqueOutcome out;
    decode(syndrome, out);
    return out;
}

void
CliqueDecoder::decode(const std::vector<uint8_t> &syndrome,
                      CliqueOutcome &out) const
{
    out.verdict = CliqueVerdict::AllZeros;
    out.corrections.clear();
    bool any_fired = false;
    bool any_assert = false;
    // Correction wires are the AND of the two adjacent cliques' fired
    // bits, so a data qubit is asserted at most once even when two
    // cliques cover the same pair (Fig. 5, bottom).
    for (int c = 0; c < num_checks_; ++c) {
        if (!(syndrome[c] & 1)) {
            continue;
        }
        any_fired = true;
        int fired = 0;
        const auto &nbrs = code_.clique_neighbors(detector_, c);
        for (const CliqueNeighbor &nb : nbrs) {
            fired += syndrome[nb.check] & 1;
        }
        if (fired % 2 == 1) {
            if (!any_assert) {
                assert_scratch_.assign(
                    static_cast<size_t>(code_.num_data()), 0);
                any_assert = true;
            }
            for (const CliqueNeighbor &nb : nbrs) {
                if (syndrome[nb.check] & 1) {
                    assert_scratch_[nb.shared_data] = 1;
                }
            }
            continue;
        }
        const int bdata = first_boundary_data_[c];
        if (fired == 0 && bdata >= 0) {
            if (!any_assert) {
                assert_scratch_.assign(
                    static_cast<size_t>(code_.num_data()), 0);
                any_assert = true;
            }
            assert_scratch_[bdata] = 1;
            continue;
        }
        out.verdict = CliqueVerdict::Complex;
        out.corrections.clear();
        return;
    }

    if (!any_fired) {
        out.verdict = CliqueVerdict::AllZeros;
        return;
    }
    out.verdict = CliqueVerdict::Trivial;
    if (any_assert) {
        for (int q = 0; q < code_.num_data(); ++q) {
            if (assert_scratch_[q]) {
                out.corrections.push_back(q);
            }
        }
    }
}

CliqueVerdict
CliqueDecoder::decode_packed(const PackedSyndrome &syndrome,
                             PackedBits &correction) const
{
    correction.reset(code_.num_data());
    bool any_fired = false;
    // Ascending set-bit walk: the same check order as the byte path's
    // dense scan, so a Complex early-exit fires on the same clique.
    for (int w = 0; w < syndrome.num_words(); ++w) {
        uint64_t bits = syndrome.word(w);
        while (bits != 0) {
            const int c = w * 64 + __builtin_ctzll(bits);
            bits &= bits - 1;
            any_fired = true;
            const uint64_t *mask =
                &neighbor_masks_[static_cast<size_t>(c) *
                                 static_cast<size_t>(syndrome_words_)];
            const AndParity fired =
                and_parity(mask, syndrome.data(), syndrome_words_);
            if (fired.odd) {
                for (const CliqueNeighbor &nb :
                     code_.clique_neighbors(detector_, c)) {
                    if (syndrome.test(nb.check)) {
                        correction.set(nb.shared_data);
                    }
                }
                continue;
            }
            const int bdata = first_boundary_data_[c];
            if (!fired.any && bdata >= 0) {
                correction.set(bdata);
                continue;
            }
            correction.clear();
            return CliqueVerdict::Complex;
        }
    }
    return any_fired ? CliqueVerdict::Trivial : CliqueVerdict::AllZeros;
}

bool
CliqueDecoder::would_raise_complex(const PackedSyndrome &syndrome) const
{
    for (int w = 0; w < syndrome.num_words(); ++w) {
        uint64_t bits = syndrome.word(w);
        while (bits != 0) {
            const int c = w * 64 + __builtin_ctzll(bits);
            bits &= bits - 1;
            const uint64_t *mask =
                &neighbor_masks_[static_cast<size_t>(c) *
                                 static_cast<size_t>(syndrome_words_)];
            const AndParity fired =
                and_parity(mask, syndrome.data(), syndrome_words_);
            if (fired.odd) {
                continue;
            }
            if (!fired.any && first_boundary_data_[c] >= 0) {
                continue;
            }
            return true;
        }
    }
    return false;
}

} // namespace btwc
