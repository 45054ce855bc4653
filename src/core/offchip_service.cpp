#include "core/offchip_service.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace btwc {

SharedOffchipService::SharedOffchipService(const RotatedSurfaceCode &code,
                                           const TierChainConfig &tiers,
                                           OffchipQueueConfig link)
    : queue_(link), tiers_(tiers), base_distance_(code.distance()),
      scheduler_(make_scheduler(SchedulerKind::Fifo, 1))
{
    const CheckType error_types[2] = {CheckType::X, CheckType::Z};
    chains_.reserve(2);
    for (const CheckType err : error_types) {
        chains_.emplace_back(code, detector_of_error(err), tiers);
    }
}

void
SharedOffchipService::set_scheduler(
    std::unique_ptr<FabricScheduler> scheduler)
{
    BTWC_CHECK_MSG(scheduler != nullptr,
                   "set_scheduler installs a discipline; FIFO is the "
                   "default");
    BTWC_CHECK_MSG(next_seq_ == 0,
                   "the serve discipline is fixed before the first "
                   "enqueue (a mid-run swap would tear the audit "
                   "trail)");
    scheduler_ = std::move(scheduler);
}

void
SharedOffchipService::set_tenant_lane(int owner, TenantLane lane)
{
    BTWC_CHECK_MSG(owner >= 0, "lanes are keyed by tenant index");
    BTWC_CHECK_MSG(lane.weight >= 1,
                   "weighted-fair shares must be positive");
    if (static_cast<size_t>(owner) >= lanes_.size()) {
        lanes_.resize(static_cast<size_t>(owner) + 1);
    }
    lanes_[static_cast<size_t>(owner)] = lane;
}

TenantLane
SharedOffchipService::lane_of(int owner) const
{
    if (owner >= 0 && static_cast<size_t>(owner) < lanes_.size()) {
        return lanes_[static_cast<size_t>(owner)];
    }
    return TenantLane{};
}

LaneExtremes
SharedOffchipService::lane_extremes() const
{
    LaneExtremes out;
    for (int owner = 0; owner < owners_seen_; ++owner) {
        const TenantLane lane = lane_of(owner);
        if (owner == 0) {
            out.min_priority = out.max_priority = lane.priority;
            out.min_weight = out.max_weight = lane.weight;
            out.min_deadline = out.max_deadline = lane.deadline;
            continue;
        }
        out.min_priority = std::min(out.min_priority, lane.priority);
        out.max_priority = std::max(out.max_priority, lane.priority);
        out.min_weight = std::min(out.min_weight, lane.weight);
        out.max_weight = std::max(out.max_weight, lane.weight);
        out.min_deadline = std::min(out.min_deadline, lane.deadline);
        out.max_deadline = std::max(out.max_deadline, lane.deadline);
    }
    return out;
}

void
SharedOffchipService::register_code(const RotatedSurfaceCode &code)
{
    if (code.distance() == base_distance_) {
        return;
    }
    for (const ExtraChains &extra : extra_chains_) {
        if (extra.distance == code.distance()) {
            return;
        }
    }
    ExtraChains entry;
    entry.distance = code.distance();
    entry.chains.reserve(2);
    const CheckType error_types[2] = {CheckType::X, CheckType::Z};
    for (const CheckType err : error_types) {
        entry.chains.emplace_back(code, detector_of_error(err), tiers_);
    }
    extra_chains_.push_back(std::move(entry));
}

std::vector<TierChain> &
SharedOffchipService::chains_for(int distance)
{
    if (distance == 0 || distance == base_distance_) {
        return chains_;
    }
    for (ExtraChains &extra : extra_chains_) {
        if (extra.distance == distance) {
            return extra.chains;
        }
    }
    BTWC_CHECK_MSG(false, "request distances are registered via "
                          "register_code before they are served");
    return chains_;
}

void
SharedOffchipService::set_fault_injector(
    std::unique_ptr<FaultInjector> injector)
{
    BTWC_CHECK_MSG(injector != nullptr,
                   "set_fault_injector installs a chaos plan; the "
                   "healthy link is the no-injector default");
    BTWC_CHECK_MSG(next_seq_ == 0,
                   "the fault plan is fixed before the first enqueue "
                   "(a mid-run swap would tear the fault ledger)");
    injector_ = std::move(injector);
}

void
SharedOffchipService::enable_shedding(bool on)
{
    shed_enabled_ = on;
}

SharedOffchipService::GiveUpResult
SharedOffchipService::give_up(int owner, int half)
{
    for (size_t i = 0; i < waiting_.size(); ++i) {
        const Request &request = waiting_[i];
        if (request.synthetic || request.owner != owner ||
            request.half != half) {
            continue;
        }
        // Owners only time out requests enqueued in past cycles, so
        // the matching entry is in the queue's backlog (not fresh_).
        BTWC_CHECK_MSG(request.arrival_cycle < queue_.total_cycles(),
                       "give-ups target requests enqueued in past "
                       "cycles");
        waiting_.erase(waiting_.begin() + static_cast<long>(i));
        queue_.shed(1);
        ++canceled_;
        ++tenant_slot(owner).canceled;
        return GiveUpResult::Canceled;
    }
    // In flight: count the half's entries not already claimed by an
    // earlier give-up; a surplus one is the live request to abandon.
    if (inflight_count(owner, half) > stale_count(owner, half)) {
        stale_.emplace_back(owner, half);
        return GiveUpResult::Stale;
    }
    return GiveUpResult::Gone;
}

void
SharedOffchipService::enqueue_synthetic(int owner, uint64_t count)
{
    BTWC_CHECK_MSG(owner >= 0, "surges are charged to a tenant lane");
    for (uint64_t i = 0; i < count; ++i) {
        // Deadline-stamped like real requests so admission control can
        // shed expired ballast too — otherwise a surge beyond link
        // bandwidth would grow the backlog without bound no matter what
        // the degradation machinery does.
        Request request;
        request.owner = owner;
        request.half = 0;
        request.oracle = true;  // empty payload, no decode
        request.synthetic = true;
        admit(std::move(request));
        ++surge_enqueued_;
        ++synthetic_pending_;
    }
}

void
SharedOffchipService::admit(Request request)
{
    request.seq = next_seq_++;
    if (request.owner + 1 > owners_seen_) {
        // Stock the pool with four buffers per new tenant (the most
        // its requests hold at once, see recycle), sized for a
        // correction at its distance, so once a tenant is known its
        // payloads and corrections stop allocating.
        const size_t added = static_cast<size_t>(request.owner + 1 -
                                                 owners_seen_);
        owners_seen_ = request.owner + 1;
        if (request.distance > 0) {
            spare_.resize(spare_.size() + 4 * added,
                          PackedBits(request.distance * request.distance));
        }
    }
    // Arrival stamps: the queue enqueues this cycle's fresh batch at
    // its current cycle counter, which equals total_cycles() here
    // because the counter only advances at the end of step().
    request.arrival_cycle = queue_.total_cycles();
    const uint64_t budget = lane_of(request.owner).deadline;
    request.deadline_cycle =
        budget > 0 ? request.arrival_cycle + budget : 0;
    waiting_.push_back(std::move(request));
    ++fresh_;
}

void
SharedOffchipService::enqueue(Request request)
{
    BTWC_CHECK_MSG(request.owner >= 0 &&
                       (request.half == 0 || request.half == 1),
                   "requests carry a valid (owner, half) tag");
    BTWC_CHECK_MSG(!request.synthetic,
                   "synthetic surge ballast goes through "
                   "enqueue_synthetic");
    if (audit_basic()) {
        // The reconciliation contract (core/system.hpp): a half never
        // escalates while its previous request is outstanding — every
        // existing entry for this (owner, half) must be a stale
        // give-up leftover. The per-(owner, half) scan is bounded by
        // pending() <= 2 * owners (+ synthetics + stales).
        size_t outstanding = inflight_count(request.owner, request.half);
        for (const Request &other : waiting_) {
            if (!other.synthetic && other.owner == request.owner &&
                other.half == request.half) {
                ++outstanding;
            }
        }
        BTWC_CHECK_MSG(outstanding <=
                           stale_count(request.owner, request.half),
                       "one outstanding off-chip request per "
                       "(owner, half) beyond stale give-up leftovers");
    }
    ++tenant_slot(request.owner).enqueued;
    admit(std::move(request));
}

void
SharedOffchipService::take_served(uint64_t count)
{
    // The discipline picks which waiting request enters service, one
    // slot at a time; the serve *count* came from the queue and is
    // discipline-invariant (work conservation). The serve happens in
    // the cycle the queue just finished counting.
    const uint64_t serve_cycle = queue_.total_cycles() - 1;
    for (uint64_t slot = 0; slot < count; ++slot) {
        views_.clear();
        for (const Request &request : waiting_) {
            const TenantLane lane = lane_of(request.owner);
            views_.push_back(SchedView{request.owner, request.seq,
                                       request.arrival_cycle,
                                       request.deadline_cycle,
                                       lane.priority, lane.weight});
        }
        const size_t pick = scheduler_->pick(views_, serve_cycle);
        BTWC_CHECK_MSG(pick < waiting_.size(),
                       "scheduler picks index a waiting request");
        // Strict FIFO serves the head of the arrival-ordered waiting
        // set (audit() proves seq increases along it). Sheds and
        // give-ups remove entries, so served seqs may skip numbers.
        if (audit_deep() && scheduler_->kind() == SchedulerKind::Fifo) {
            BTWC_CHECK_MSG(pick == 0, "FIFO discipline serves the "
                                      "oldest waiting request");
        }
        served_.push_back(std::move(waiting_[pick]));
        waiting_.erase(waiting_.begin() + static_cast<long>(pick));
    }
}

void
SharedOffchipService::serve_decode()
{
    for (Request &request : served_) {
        PackedBits correction;
        if (request.oracle) {
            correction = std::move(request.payload);
        } else {
            // Finish the owner's walk where it stopped: the resumed
            // tiers are off-chip (escalation monotonicity), so they
            // run here, never on the owner's chip. The walk swaps the
            // seeded spare buffer into the chain's scratch and hands
            // back the one the accepting tier wrote, which leaves with
            // the delivery and returns through recycle().
            TierChain::Result result;
            if (!spare_.empty()) {
                result.decode.correction = std::move(spare_.back());
                spare_.pop_back();
            }
            chains_for(request.distance)[static_cast<size_t>(request.half)]
                .decode_syndrome(request.payload, TierChain::Options(),
                                 result,
                                 static_cast<size_t>(request.tier_index));
            correction = std::move(result.decode.correction);
            recycle(request.payload);
        }
        inflight_.push_back(InFlight{
            Delivery{request.owner, request.half, std::move(correction),
                     request.synthetic},
            request.arrival_cycle, request.deadline_cycle});
    }
    served_.clear();
}

void
SharedOffchipService::recycle(PackedBits &buffer)
{
    if (buffer.num_words() > 0 &&
        spare_.size() < 4 * static_cast<size_t>(owners_seen_)) {
        spare_.push_back(std::move(buffer));
    }
}

PackedBits
SharedOffchipService::lend_buffer()
{
    PackedBits buffer;
    if (!spare_.empty()) {
        buffer = std::move(spare_.back());
        spare_.pop_back();
    }
    return buffer;
}

size_t
SharedOffchipService::stale_count(int owner, int half) const
{
    size_t count = 0;
    for (const std::pair<int, int> &key : stale_) {
        if (key.first == owner && key.second == half) {
            ++count;
        }
    }
    return count;
}

size_t
SharedOffchipService::inflight_count(int owner, int half) const
{
    size_t count = 0;
    for (size_t i = 0; i < inflight_.size(); ++i) {
        const Delivery &other = inflight_.at(i).delivery;
        if (!other.synthetic && other.owner == owner &&
            other.half == half) {
            ++count;
        }
    }
    return count;
}

void
SharedOffchipService::shed_expired(uint64_t now)
{
    for (size_t i = 0; i < waiting_.size();) {
        const Request &request = waiting_[i];
        if (request.deadline_cycle == 0 ||
            request.deadline_cycle >= now) {
            ++i;
            continue;
        }
        // Past deadline: the decode could no longer land in time, so
        // spend zero link capacity on it. A real owner gets a nack
        // (delivered with this step's landings, unblocking the half);
        // expired surge ballast is dropped silently — nobody waits on
        // it, but shedding it is what keeps a beyond-bandwidth surge
        // from growing the backlog without bound.
        ++shed_;
        if (request.synthetic) {
            --synthetic_pending_;
        } else {
            ++tenant_slot(request.owner).shed;
            shed_nacks_.push_back(
                Delivery{request.owner, request.half, {}, false});
        }
        waiting_.erase(waiting_.begin() + static_cast<long>(i));
        queue_.shed(1);
    }
}

SharedOffchipService::TenantLinkStats &
SharedOffchipService::tenant_slot(int owner)
{
    if (static_cast<size_t>(owner) >= tenant_stats_.size()) {
        tenant_stats_.resize(static_cast<size_t>(owner) + 1);
    }
    return tenant_stats_[static_cast<size_t>(owner)];
}

std::vector<SharedOffchipService::Delivery> &
SharedOffchipService::step()
{
    // Last cycle's landings have been routed: their buffers feed this
    // cycle's decodes.
    for (Delivery &delivery : landed_now_) {
        recycle(delivery.correction);
    }
    landed_now_.clear();

    // Admission control first: requests already past deadline are
    // shed before they can consume this cycle's bandwidth.
    if (shed_enabled_) {
        shed_expired(queue_.total_cycles());
    }
    OffchipQueue::StepFaults faults;
    if (injector_) {
        const uint64_t now = queue_.total_cycles();
        faults.outage = injector_->link_down(now);
        faults.extra_latency = injector_->extra_latency(now);
    }
    const OffchipQueue::StepResult sr = queue_.step(fresh_, faults);
    fresh_ = 0;

    // Serve: pop the requests entering service this cycle (FIFO across
    // owners, or per the installed discipline) and decode them.
    // Corrections enter the in-flight FIFO in serve order, matching
    // the queue's landing order.
    if (sr.served > 0) {
        take_served(sr.served);
        serve_decode();
    }

    // Land: hand back every correction whose latency elapsed. This is
    // also where delays and deadline misses are accounted (mirroring
    // the queue's land-time delay recording, but per request and per
    // tenant, since the queue's FIFO delay groups stop matching
    // individual requests once a discipline re-orders service).
    for (uint64_t i = 0; i < sr.landed; ++i) {
        InFlight landing = inflight_.pop_front();
        Delivery &delivery = landing.delivery;
        const uint64_t land_index = landed_index_++;

        // Synthetic surge ballast consumed its link slot; swallow it.
        if (delivery.synthetic) {
            ++surge_landed_;
            --synthetic_pending_;
            continue;
        }
        // A give-up leftover: the owner stopped waiting (and may have
        // re-escalated), so the correction is stale — discard it.
        if (!stale_.empty()) {
            bool discarded = false;
            for (size_t k = 0; k < stale_.size(); ++k) {
                if (stale_[k].first == delivery.owner &&
                    stale_[k].second == delivery.half) {
                    stale_.erase(stale_.begin() +
                                 static_cast<long>(k));
                    ++stale_discards_;
                    ++tenant_slot(delivery.owner).stale_discards;
                    discarded = true;
                    break;
                }
            }
            if (discarded) {
                continue;
            }
        }
        // Down-link loss: the correction never reaches the owner,
        // whose timeout machinery is what recovers the half.
        if (injector_ && injector_->drop_delivery(land_index)) {
            ++dropped_;
            ++tenant_slot(delivery.owner).dropped;
            continue;
        }
        if (injector_ && !delivery.correction.empty() &&
            injector_->corrupt_delivery(land_index)) {
            delivery.correction.flip(injector_->corrupt_bit(
                land_index, delivery.correction.size()));
            ++corrupted_;
        }
        const uint64_t land_cycle = queue_.total_cycles() - 1;
        uint64_t delay = land_cycle - landing.arrival_cycle;
        if (delay > OffchipQueue::kMaxRecordedDelay) {
            delay = OffchipQueue::kMaxRecordedDelay;
        }
        delay_.add(delay);
        TenantLinkStats &tenant = tenant_slot(delivery.owner);
        ++tenant.landed;
        tenant.delay.add(delay);
        if (landing.deadline_cycle > 0 &&
            land_cycle > landing.deadline_cycle) {
            ++deadline_misses_;
            ++tenant.deadline_misses;
        }
        ++delivered_;
        const bool duplicate =
            injector_ && injector_->duplicate_delivery(land_index);
        landed_now_.push_back(std::move(delivery));
        if (duplicate) {
            ++duplicated_;
            landed_now_.push_back(landed_now_.back());
        }
    }
    // Shed nacks ride out with this cycle's landings, after them (a
    // real correction always beats its own post-hoc nack).
    for (Delivery &nack : shed_nacks_) {
        landed_now_.push_back(std::move(nack));
    }
    shed_nacks_.clear();
    if (audit_deep()) {
        audit();
    }
    return landed_now_;
}

void
SharedOffchipService::audit() const
{
    queue_.audit();
    BTWC_CHECK_MSG(waiting_.size() == queue_.backlog() + fresh_,
                   "payload waiting entries track the counting "
                   "queue's backlog plus the not-yet-stepped fresh "
                   "demand");
    BTWC_CHECK_MSG(inflight_.size() == queue_.in_flight(),
                   "payload in-flight FIFO tracks the counting queue");

    for (size_t i = 0; i < waiting_.size(); ++i) {
        const Request &request = waiting_[i];
        if (i > 0) {
            BTWC_CHECK_MSG(request.seq > waiting_[i - 1].seq,
                           "waiting requests stay in arrival order "
                           "(picks remove entries, never re-order)");
        }
        if (request.synthetic) {
            continue;
        }
        // <= 1 live outstanding per (owner, half): every other entry
        // for this half (earlier waiting, or in flight) is covered by
        // a stale give-up key. With no give-ups this is exactly "no
        // duplicate waiting, nothing in flight".
        size_t others = inflight_count(request.owner, request.half);
        for (size_t j = 0; j < i; ++j) {
            const Request &other = waiting_[j];
            if (!other.synthetic && other.owner == request.owner &&
                other.half == request.half) {
                ++others;
            }
        }
        BTWC_CHECK_MSG(others <= stale_count(request.owner,
                                             request.half),
                       "at most one live outstanding request per "
                       "(owner, half) beyond stale give-up leftovers");
    }
    if (owners_seen_ > 0 &&
        !(injector_ && injector_->plan().any_faults())) {
        // No starvation beyond the discipline's aging bound: every
        // waiting request's age stays under the sound (loose) bound
        // the scheduler declares for this link's tenant population.
        // Skipped under a live fault plan: outages freeze service and
        // surge ballast inflates demand, so ages can exceed any bound
        // the discipline could soundly declare — chaos-mode liveness
        // is instead covered by the timeout/shedding machinery and
        // pinned by the bounded-p99 acceptance tests.
        const uint64_t bound = scheduler_->starvation_bound(
            owners_seen_, queue_.config().bandwidth, lane_extremes());
        const uint64_t now = queue_.total_cycles();
        for (const Request &request : waiting_) {
            const uint64_t age = now >= request.arrival_cycle
                                     ? now - request.arrival_cycle
                                     : 0;
            BTWC_CHECK_MSG(age <= bound,
                           "no waiting request starves beyond the "
                           "discipline's declared aging bound");
        }
    }
    for (size_t i = 0; i < inflight_.size(); ++i) {
        const Delivery &delivery = inflight_.at(i).delivery;
        if (delivery.synthetic) {
            continue;
        }
        size_t others = 0;
        for (size_t j = i + 1; j < inflight_.size(); ++j) {
            const Delivery &other = inflight_.at(j).delivery;
            if (!other.synthetic && other.owner == delivery.owner &&
                other.half == delivery.half) {
                ++others;
            }
        }
        BTWC_CHECK_MSG(others <= stale_count(delivery.owner,
                                             delivery.half),
                       "at most one live in-flight correction per "
                       "(owner, half) beyond stale give-up leftovers");
    }
    BTWC_CHECK_MSG(pending() <= 2 * static_cast<size_t>(owners_seen_) +
                                    synthetic_pending_ + stale_.size(),
                   "the one-request-per-half contract bounds the link "
                   "backlog at two entries per tenant (plus surge "
                   "ballast and stale give-up leftovers)");

    // The fault ledger: every queue landing is exactly one of
    // delivered / dropped / stale-discarded / synthetic-swallowed,
    // and every queue shed is deadline-shed or give-up-canceled.
    // Together with the queue's enqueued == served + shed + backlog
    // this closes the generalized conservation: every request is
    // exactly one of served, shed, or pending. All-zero extras on the
    // healthy path collapse it to landed == delivered.
    BTWC_CHECK_MSG(queue_.landed() == delivered_ + dropped_ +
                                          stale_discards_ +
                                          surge_landed_,
                   "landing ledger: landed == delivered + dropped + "
                   "stale + surge");
    BTWC_CHECK_MSG(queue_.shed_total() == shed_ + canceled_,
                   "shed ledger: shed_total == deadline-shed + "
                   "give-up-canceled");
}

} // namespace btwc
