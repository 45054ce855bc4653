#include "decoders/stream_window.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "matching/union_find.hpp"

namespace btwc {

void
StreamWindowStats::merge(const StreamWindowStats &other)
{
    rounds += other.rounds;
    windows += other.windows;
    all_zero_windows += other.all_zero_windows;
    screened_windows += other.screened_windows;
    matched_windows += other.matched_windows;
    committed_rounds += other.committed_rounds;
    defects_in += other.defects_in;
    defects_committed += other.defects_committed;
    defects_carried += other.defects_carried;
    max_carried = std::max(max_carried, other.max_carried);
    committed_weight += other.committed_weight;
    commit_lag.merge(other.commit_lag);
    window_defects.merge(other.window_defects);
}

StreamWindowDecoder::StreamWindowDecoder(const RotatedSurfaceCode &code,
                                         CheckType detector,
                                         StreamWindowConfig config)
    : code_(code),
      detector_(detector),
      config_(std::move(config)),
      num_checks_(code.num_checks(detector)),
      matcher_(code, detector)
{
    BTWC_CHECK_MSG(config_.window >= 1,
                   "stream window must span at least one round");
    BTWC_CHECK_MSG(config_.overlap >= 0 &&
                       config_.overlap < config_.window,
                   "stream overlap must satisfy 0 <= overlap < window "
                   "(the commit region may not be empty)");
    for (const TierSpec &tier : config_.screen) {
        BTWC_CHECK_MSG(tier.kind == DecoderTier::UnionFind,
                       "stream screening tiers must be union-find (the "
                       "full-mask commit shortcut needs a resolving "
                       "whole-window decoder)");
    }
    if (!config_.screen.empty()) {
        screen_ = std::make_unique<UnionFindDecoder>(code, detector);
    }
    round_events_.resize(static_cast<size_t>(config_.window));
    prev_raw_.resize(num_checks_);
    committed_.resize(code.num_data());
    screened_.correction.resize(code.num_data());
    matched_.correction.resize(code.num_data());
    audit_mask_.resize(code.num_data());
}

StreamWindowDecoder::~StreamWindowDecoder() = default;

void
StreamWindowDecoder::push_round(const PackedSyndrome &raw)
{
    thread_owner_.assert_single_thread_owner();
    BTWC_CHECK_MSG(raw.size() == num_checks_,
                   "pushed syndrome width must match the detector's "
                   "check count");

    // Detection events of this round: the XOR against the previous
    // raw syndrome, word-parallel (the implicit round before the first
    // push is all zeros because prev_raw_ starts cleared).
    std::vector<int> &slot_events =
        round_events_[static_cast<size_t>(slot(buffered_))];
    slot_events.clear();
    const int words = prev_raw_.num_words();
    uint64_t *prev = prev_raw_.data();
    const uint64_t *cur = raw.data();
    for (int w = 0; w < words; ++w) {
        uint64_t bits = prev[w] ^ cur[w];
        prev[w] = cur[w];
        while (bits != 0) {
            slot_events.push_back(w * 64 + __builtin_ctzll(bits));
            bits &= bits - 1;
        }
    }

    stats_.defects_in += slot_events.size();
    ++stats_.rounds;
    ++buffered_;
    if (buffered_ == config_.window) {
        decode_window(config_.window, config_.commit_rounds());
    }
}

void
StreamWindowDecoder::flush()
{
    thread_owner_.assert_single_thread_owner();
    if (buffered_ == 0 && carried_.empty()) {
        return; // nothing pending
    }
    // Present the partial tail with the commit region covering every
    // presented round: all pairs' endpoints then lie in the commit
    // region, so everything (carried defects included) commits.
    decode_window(buffered_, buffered_ > 0 ? buffered_ : 1);
    BTWC_CHECK_MSG(buffered_ == 0 && carried_.empty() &&
                       stats_.defects_in == stats_.defects_committed,
                   "flush must commit every pending defect");
}

void
StreamWindowDecoder::reset()
{
    for (std::vector<int> &slot_events : round_events_) {
        slot_events.clear();
    }
    head_ = 0;
    buffered_ = 0;
    base_round_ = 0;
    prev_raw_.clear();
    committed_.clear();
    carried_.clear();
    carried_next_.clear();
    events_.clear();
    origin_.clear();
    matches_.clear();
    stats_ = StreamWindowStats();
}

uint64_t
StreamWindowDecoder::pending_defects() const
{
    uint64_t pending = carried_.size();
    for (int t = 0; t < buffered_; ++t) {
        pending += round_events_[static_cast<size_t>(slot(t))].size();
    }
    return pending;
}

size_t
StreamWindowDecoder::steady_state_bytes() const
{
    size_t bytes = 0;
    for (const std::vector<int> &slot_events : round_events_) {
        bytes += slot_events.capacity() * sizeof(int);
    }
    bytes += carried_.capacity() * sizeof(CarriedDefect);
    bytes += carried_next_.capacity() * sizeof(CarriedDefect);
    bytes += events_.capacity() * sizeof(DetectionEvent);
    bytes += origin_.capacity() * sizeof(uint64_t);
    bytes += matches_.pairs.capacity() * sizeof(MwpmMatches::Pair);
    bytes += matches_.path_data.capacity() * sizeof(int);
    bytes += static_cast<size_t>(prev_raw_.num_words() +
                                 committed_.num_words() +
                                 screened_.correction.num_words() +
                                 matched_.correction.num_words() +
                                 audit_mask_.num_words()) *
             sizeof(uint64_t);
    return bytes;
}

void
StreamWindowDecoder::audit() const
{
    BTWC_CHECK_MSG(buffered_ >= 0 && buffered_ <= config_.window,
                   "stream buffer occupancy out of range");
    BTWC_CHECK_MSG(head_ >= 0 && head_ < config_.window,
                   "stream ring head out of range");
    prev_raw_.audit();
    committed_.audit();
    BTWC_CHECK_MSG(committed_.size() == code_.num_data(),
                   "committed mask width must match the data-qubit "
                   "count");
    // Slots beyond the buffered prefix must be empty (pop_rounds
    // clears them), and every buffered event must name a valid check.
    for (int t = 0; t < config_.window; ++t) {
        const std::vector<int> &slot_events =
            round_events_[static_cast<size_t>(slot(t))];
        if (t >= buffered_) {
            BTWC_CHECK_MSG(slot_events.empty(),
                           "unoccupied stream ring slot holds events");
            continue;
        }
        for (const int check : slot_events) {
            BTWC_CHECK_MSG(check >= 0 && check < num_checks_,
                           "buffered stream event names an invalid "
                           "check");
        }
    }
    for (const CarriedDefect &c : carried_) {
        BTWC_CHECK_MSG(c.check >= 0 && c.check < num_checks_,
                       "carried defect names an invalid check");
        BTWC_CHECK_MSG(c.origin_round < base_round_,
                       "carried defect must originate before the "
                       "commit frontier");
    }
    BTWC_CHECK_MSG(stats_.committed_rounds == base_round_,
                   "commit frontier must equal the stream buffer base");
    // Defect conservation: everything that entered is exactly one of
    // committed, still buffered, or carried forward.
    BTWC_CHECK_MSG(stats_.defects_in ==
                       stats_.defects_committed + pending_defects(),
                   "stream defect conservation violated (dropped or "
                   "double-committed defect)");
}

void
StreamWindowDecoder::pop_rounds(int n)
{
    for (int t = 0; t < n; ++t) {
        round_events_[static_cast<size_t>(slot(t))].clear();
    }
    head_ = (head_ + n) % config_.window;
    buffered_ -= n;
    base_round_ += static_cast<uint64_t>(n);
    stats_.committed_rounds = base_round_;
}

void
StreamWindowDecoder::decode_window(int avail, int commit)
{
    ++stats_.windows;
    const int rounds = std::max(avail, 1);

    // Present the carried defects at relative round 0 (sound under
    // unit weights; see the class comment) followed by the buffered
    // events at their relative rounds, tracking each event's absolute
    // origin round for the commit-lag histogram and re-carry.
    events_.clear();
    origin_.clear();
    for (const CarriedDefect &c : carried_) {
        events_.push_back({c.check, 0});
        origin_.push_back(c.origin_round);
    }
    for (int t = 0; t < avail; ++t) {
        for (const int check :
             round_events_[static_cast<size_t>(slot(t))]) {
            events_.push_back({check, t});
            origin_.push_back(base_round_ + static_cast<uint64_t>(t));
        }
    }
    stats_.window_defects.add(events_.size());
    // Commit instant: the newest buffered round has been observed, so
    // a defect committed now waited (now - origin) rounds.
    const uint64_t now = base_round_ + static_cast<uint64_t>(avail);

    if (events_.empty()) {
        ++stats_.all_zero_windows;
        pop_rounds(std::min(commit, buffered_));
        if (audit_deep()) {
            audit();
        }
        return;
    }

    // Screening fast path: when every presented defect lies in the
    // commit region, the next window sees no residue from this one, so
    // any resolved full-window mask is committable without pair
    // attribution — run the shared Union-Find backend once and accept
    // under any configured screen tier's escalation predicate.
    bool all_commit = true;
    for (const DetectionEvent &e : events_) {
        if (e.round >= commit) {
            all_commit = false;
            break;
        }
    }
    if (all_commit && screen_ != nullptr) {
        screen_->decode(events_, rounds, screened_);
        bool accepted = false;
        for (const TierSpec &tier : config_.screen) {
            if (screened_.resolved &&
                (tier.escalation_threshold < 0 ||
                 screened_.effort <= tier.escalation_threshold)) {
                accepted = true;
                break;
            }
        }
        if (accepted) {
            ++stats_.screened_windows;
            committed_ ^= screened_.correction;
            stats_.committed_weight += screened_.weight;
            stats_.defects_committed += events_.size();
            for (const uint64_t o : origin_) {
                stats_.commit_lag.add(now - o);
            }
            carried_.clear();
            pop_rounds(std::min(commit, buffered_));
            if (audit_deep()) {
                audit();
            }
            return;
        }
    }

    // Matched MWPM path: decode with pair attribution, then commit
    // exactly the pairs whose endpoints all lie in the commit region.
    ++stats_.matched_windows;
    matcher_.decode_matched(events_, rounds, matches_, matched_);
    if (audit_deep()) {
        // Machine-check the MwpmMatches contract: the XOR of the pair
        // paths reproduces the full correction mask bit for bit.
        audit_mask_.reset(code_.num_data());
        for (const MwpmMatches::Pair &p : matches_.pairs) {
            for (int i = p.path_begin; i < p.path_end; ++i) {
                audit_mask_.flip(matches_.path_data[static_cast<size_t>(i)]);
            }
        }
        BTWC_CHECK_MSG(audit_mask_ == matched_.correction,
                       "matched-pair path XOR must reproduce the MWPM "
                       "correction mask");
    }

    carried_next_.clear();
    for (const MwpmMatches::Pair &p : matches_.pairs) {
        const bool a_commits = events_[static_cast<size_t>(p.a)].round < commit;
        const bool b_commits =
            p.b < 0 || events_[static_cast<size_t>(p.b)].round < commit;
        if (a_commits && b_commits) {
            // Commit: XOR the pair's full correction path and retire
            // its defects.
            for (int i = p.path_begin; i < p.path_end; ++i) {
                committed_.flip(matches_.path_data[static_cast<size_t>(i)]);
            }
            stats_.committed_weight += p.weight;
            stats_.commit_lag.add(now - origin_[static_cast<size_t>(p.a)]);
            ++stats_.defects_committed;
            if (p.b >= 0) {
                stats_.commit_lag.add(now -
                                      origin_[static_cast<size_t>(p.b)]);
                ++stats_.defects_committed;
            }
            continue;
        }
        // Seam pair: the commit-region endpoint carries forward into
        // the next window (origin preserved); overlap-region endpoints
        // stay buffered and are simply re-presented.
        if (a_commits) {
            carried_next_.push_back(
                {events_[static_cast<size_t>(p.a)].check,
                 origin_[static_cast<size_t>(p.a)]});
        }
        if (p.b >= 0 && b_commits) {
            carried_next_.push_back(
                {events_[static_cast<size_t>(p.b)].check,
                 origin_[static_cast<size_t>(p.b)]});
        }
    }
    std::swap(carried_, carried_next_);
    stats_.defects_carried += carried_.size();
    stats_.max_carried =
        std::max(stats_.max_carried, static_cast<uint64_t>(carried_.size()));
    pop_rounds(std::min(commit, buffered_));
    if (audit_deep()) {
        audit();
    }
}

} // namespace btwc
