#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace btwc {

/** Number of 64-bit words covering `bits` bits. */
constexpr int
packed_words(int bits)
{
    return (bits + 63) / 64;
}

/**
 * Number of set bits in one word. Without a POPCNT target (the
 * project's builds pass no -mpopcnt), GCC lowers `__builtin_popcountll`
 * to a call to libgcc's `__popcountdi2`, so that builtin is used only
 * under `__POPCNT__`; otherwise the word is summed in place (SWAR: 2-,
 * 4- and 8-bit partial counts, then one multiply adds the bytes), a
 * dozen inline ALU ops. Every popcount in the library goes through
 * here (tools/lint.sh). A caller that needs only the parity, or only
 * whether any bit is set, should ask for that instead (see
 * `and_parity`).
 */
inline int
popcount64(uint64_t w)
{
#ifdef __POPCNT__
    return __builtin_popcountll(w);
#else
    w -= (w >> 1) & 0x5555555555555555ull;
    w = (w & 0x3333333333333333ull) + ((w >> 2) & 0x3333333333333333ull);
    w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<int>((w * 0x0101010101010101ull) >> 56);
#endif
}

/**
 * Dynamically sized bitset packed 64 bits per `uint64_t` word — the
 * carrier of the word-parallel screening fast path (ROADMAP
 * "raw-speed floor").
 *
 * Invariant: bits at positions >= size() are always zero, so whole-word
 * reductions (popcount, none, AND/OR/XOR) never see garbage in the
 * tail word. All mutators preserve it; `set`/`flip`/`reset`/`test`
 * require `i < size()`.
 *
 * `resize` is the only allocating operation (and only when the word
 * count grows), which is what makes persistent instances — per-decoder
 * scratch, per-`BtwcSystem::Half` syndromes — allocation-free in
 * steady state.
 */
class PackedBits
{
  public:
    PackedBits() = default;
    explicit PackedBits(int bits) { resize(bits); }
    PackedBits(const PackedBits &) = default;
    PackedBits &operator=(const PackedBits &) = default;

    /** A move leaves the source at width 0 (`empty()`), ready for
     * `reset`/`resize` like a default-constructed mask. */
    PackedBits(PackedBits &&other) noexcept
        : bits_(other.bits_), words_(std::move(other.words_))
    {
        other.bits_ = 0;
        other.words_.clear();
    }
    PackedBits &operator=(PackedBits &&other) noexcept
    {
        if (this != &other) {
            bits_ = other.bits_;
            words_ = std::move(other.words_);
            other.bits_ = 0;
            other.words_.clear();
        }
        return *this;
    }

    /** Resize to `bits` bits, clearing all of them. */
    void resize(int bits)
    {
        bits_ = bits;
        words_.assign(static_cast<size_t>(packed_words(bits)), 0);
    }

    /** Clear all bits, keeping the size. */
    void clear()
    {
        for (uint64_t &w : words_) {
            w = 0;
        }
    }

    /** Resize when the width differs, else just clear (never shrinks
     * capacity): the reset idiom of every pooled scratch instance. */
    void reset(int bits)
    {
        if (bits_ != bits) {
            resize(bits);
        } else {
            clear();
        }
    }

    int size() const { return bits_; }
    int num_words() const { return static_cast<int>(words_.size()); }

    /** True at zero width; an all-zero mask of nonzero width is
     * `none()` but not `empty()`. */
    bool empty() const { return bits_ == 0; }

    uint64_t word(int w) const { return words_[static_cast<size_t>(w)]; }
    const uint64_t *data() const { return words_.data(); }
    uint64_t *data() { return words_.data(); }

    bool test(int i) const
    {
        return ((words_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1) != 0;
    }
    void set(int i)
    {
        words_[static_cast<size_t>(i >> 6)] |= uint64_t(1) << (i & 63);
    }
    void reset_bit(int i)
    {
        words_[static_cast<size_t>(i >> 6)] &= ~(uint64_t(1) << (i & 63));
    }
    void flip(int i)
    {
        words_[static_cast<size_t>(i >> 6)] ^= uint64_t(1) << (i & 63);
    }

    /** True when no bit is set. */
    bool none() const
    {
        uint64_t acc = 0;
        for (const uint64_t w : words_) {
            acc |= w;
        }
        return acc == 0;
    }
    bool any() const { return !none(); }

    /** Number of set bits. */
    int popcount() const
    {
        int n = 0;
        for (const uint64_t w : words_) {
            n += popcount64(w);
        }
        return n;
    }

    /** Call f(i) for every set bit i, in ascending order. */
    template <typename F>
    void for_each_set(F &&f) const
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            uint64_t bits = words_[w];
            while (bits != 0) {
                f(static_cast<int>(w * 64) +
                  __builtin_ctzll(bits));
                bits &= bits - 1;
            }
        }
    }

    /** XOR in another bitset of the same size. */
    PackedBits &operator^=(const PackedBits &other)
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            words_[w] ^= other.words_[w];
        }
        return *this;
    }

    /** AND in another bitset of the same size. */
    PackedBits &operator&=(const PackedBits &other)
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            words_[w] &= other.words_[w];
        }
        return *this;
    }

    /** OR in another bitset of the same size. */
    PackedBits &operator|=(const PackedBits &other)
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            words_[w] |= other.words_[w];
        }
        return *this;
    }

    bool operator==(const PackedBits &other) const
    {
        return bits_ == other.bits_ && words_ == other.words_;
    }
    bool operator!=(const PackedBits &other) const
    {
        return !(*this == other);
    }

    /** Pack a byte-per-bit vector (nonzero low bit = set). */
    void from_bytes(const std::vector<uint8_t> &bytes)
    {
        reset(static_cast<int>(bytes.size()));
        for (size_t i = 0; i < bytes.size(); ++i) {
            if (bytes[i] & 1) {
                set(static_cast<int>(i));
            }
        }
    }

    /** Unpack into a byte-per-bit vector (resized to size()). */
    void to_bytes(std::vector<uint8_t> &out) const
    {
        out.assign(static_cast<size_t>(bits_), 0);
        for_each_set([&out](int i) { out[static_cast<size_t>(i)] = 1; });
    }

    /**
     * Verify the class invariant: the word count covers exactly
     * size() bits and every bit at position >= size() is zero (the
     * property all whole-word reductions rely on). Raw `data()`
     * writers are the only way to break it; audit() is how the deep
     * audit tier catches them. Throws CheckFailure.
     */
    void audit() const
    {
        BTWC_CHECK_MSG(bits_ >= 0 &&
                           num_words() == packed_words(bits_),
                       "PackedBits word count must cover size() bits");
        const int tail = bits_ & 63;
        if (tail != 0) {
            BTWC_CHECK_MSG((words_.back() >> tail) == 0,
                           "PackedBits bits at positions >= size() "
                           "must be zero");
        }
    }

  private:
    int bits_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * One extraction round's fired-check bits, 64 checks per word — the
 * packed counterpart of the byte-per-check syndrome vectors. Built by
 * `ErrorFrame::measure_packed` and consumed word-parallel by the
 * screening tiers (CliqueDecoder, UnionFindDecoder, TierChain).
 */
using PackedSyndrome = PackedBits;

/** popcount(a & b) over `words` 64-bit words, without materializing. */
inline int
and_popcount(const uint64_t *a, const uint64_t *b, int words)
{
    int n = 0;
    for (int w = 0; w < words; ++w) {
        n += popcount64(a[w] & b[w]);
    }
    return n;
}

/** Whether a & b has an odd number of set bits, and whether any. */
struct AndParity
{
    bool odd = false;
    bool any = false;
};

/**
 * The parity and emptiness of a & b over `words` 64-bit words: one XOR
 * and one OR per word and a single parity at the end
 * (`__builtin_parityll`, which GCC inlines as a flag test on any
 * target), instead of a popcount per word.
 */
inline AndParity
and_parity(const uint64_t *a, const uint64_t *b, int words)
{
    uint64_t x = 0;
    uint64_t o = 0;
    for (int w = 0; w < words; ++w) {
        const uint64_t both = a[w] & b[w];
        x ^= both;
        o |= both;
    }
    return {__builtin_parityll(x) != 0, o != 0};
}

} // namespace btwc
