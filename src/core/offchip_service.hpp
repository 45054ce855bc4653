#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fifo.hpp"
#include "common/stats.hpp"
#include "core/offchip_queue.hpp"
#include "decoders/tier_chain.hpp"
#include "fabric/scheduler.hpp"
#include "faults/fault_plan.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/**
 * Multi-tenant off-chip decode service: one latency-L bandwidth-B
 * link (`OffchipQueue`) shared by a whole fleet of `BtwcSystem`
 * pipelines (§5 of the paper -- the machine has *one*
 * fridge-to-room-temperature decoder, not one per logical qubit).
 *
 * It is the only off-chip transport: a stand-alone `BtwcSystem` builds
 * a one-tenant instance and steps it inside its own `step()`; a fleet
 * shares one instance, its systems only *enqueue* tagged requests
 * during their step, and the fleet harness advances the link exactly
 * once per machine cycle via `step()`, after every tenant has stepped.
 * Served batches therefore mix requests from different qubits: within
 * one qubit, batches are bounded by the one-outstanding-request-per-
 * half reconciliation contract (core/system.hpp), but N qubits
 * escalating in the same cycle share one `TierChain::decode_batch_from`
 * call per lattice half.
 *
 * The service owns one `TierChain` per lattice half (indexed by error
 * type, like `BtwcSystem`'s frames) for the code it was constructed
 * with; a heterogeneous fleet registers its other code distances via
 * `register_code`, and requests are batched per (distance, half,
 * resume tier) so every request decodes on chains matching its
 * owner's lattice. The chains' decoders are deterministic pure
 * functions of the events, so decoding a request on the service-side
 * chain is bit-identical to decoding it on the owner's private chain.
 * Oracle-policy requests carry their correction in the payload and
 * bypass the chains entirely.
 *
 * Serve selection always runs through a `FabricScheduler`
 * (src/fabric/scheduler.hpp); the constructor installs the strict-FIFO
 * one. Combined with the one-outstanding-request-per-half contract
 * (no tenant can occupy more than two link slots), FIFO is round-robin
 * fair: a narrow link serves qubits in their escalation order and no
 * tenant can starve another (tested). `set_scheduler` swaps in another
 * discipline -- it re-orders *which* waiting requests enter service
 * each cycle but never *how many*, so the link's stall/backlog/served
 * accounting is discipline-invariant and only the per-request delay
 * distribution (tracked service-side, per tenant) moves.
 *
 * With zero latency and unlimited bandwidth corrections land within
 * the cycle that escalated them, after every tenant has stepped -- and
 * since tenants never read each other's frames mid-cycle, a fleet on
 * one shared link reaches the same end-of-cycle machine state as the
 * same fleet with one link per qubit (tested).
 */
class SharedOffchipService
{
  public:
    /** One tagged escalation from a tenant pipeline. */
    struct Request
    {
        int owner = 0;       ///< tenant (qubit) index, echoed in Delivery
        int half = 0;        ///< tenant's frames_/halves_ index (error type)
        int tier_index = 0;  ///< first off-chip tier (decode resume point)
        /**
         * True when `payload` already is the correction (the Oracle
         * policy's escalation-time error snapshot); false when it is
         * the filtered syndrome to decode when served.
         */
        bool oracle = false;
        std::vector<uint8_t> payload;
        /**
         * Code distance of the owner's lattice, selecting the decode
         * chains (0 = the constructor code). Distances other than the
         * constructor code's must be registered via `register_code`
         * before the request is served.
         */
        int distance = 0;
        /**
         * Link-wide FIFO sequence number, assigned by `enqueue` (any
         * caller-provided value is overwritten). The audit tier uses
         * it to prove served order == arrival order across owners.
         */
        uint64_t seq = 0;
        /** Link cycle of the enqueue, stamped by `enqueue`. */
        uint64_t arrival_cycle = 0;
        /**
         * Arrival plus the owner lane's deadline budget, stamped by
         * `enqueue`; 0 = the lane has no deadline.
         */
        uint64_t deadline_cycle = 0;
        /**
         * Fault-plan surge ballast (`enqueue_synthetic`): consumes
         * real link capacity but is swallowed at landing instead of
         * being delivered, and is exempt from the
         * one-outstanding-per-half contract.
         */
        bool synthetic = false;
    };

    /** A correction routed back to its owning tenant half. */
    struct Delivery
    {
        int owner = 0;
        int half = 0;
        std::vector<uint8_t> correction;  ///< per-data-qubit flip mask
        bool synthetic = false;           ///< surge ballast (swallowed)
    };

    /** Per-tenant link accounting (indexed by owner in `tenant_stats`). */
    struct TenantLinkStats
    {
        uint64_t enqueued = 0;
        uint64_t landed = 0;
        /** Landings past the lane deadline (deadline lanes only). */
        uint64_t deadline_misses = 0;
        /** Deliveries lost to the fault plan's drop clause. */
        uint64_t dropped = 0;
        /** Requests shed past deadline (admission control). */
        uint64_t shed = 0;
        /** Requests canceled by an owner give-up (timeout). */
        uint64_t canceled = 0;
        /** Landed corrections discarded as stale after a give-up. */
        uint64_t stale_discards = 0;
        /** Enqueue-to-landing delay, saturated like the queue's. */
        CountHistogram delay;

        void merge(const TenantLinkStats &other)
        {
            enqueued += other.enqueued;
            landed += other.landed;
            deadline_misses += other.deadline_misses;
            dropped += other.dropped;
            shed += other.shed;
            canceled += other.canceled;
            stale_discards += other.stale_discards;
            delay.merge(other.delay);
        }
    };

    SharedOffchipService(const RotatedSurfaceCode &code,
                         const TierChainConfig &tiers,
                         OffchipQueueConfig link);

    /**
     * Replace the default FIFO serve discipline (decode fabric mode).
     * Must be called before the first `enqueue`; the discipline then
     * owns the serve order for the whole run (a mid-run swap would
     * tear the audit trail).
     */
    void set_scheduler(std::unique_ptr<FabricScheduler> scheduler);

    /**
     * Register tenant `owner`'s scheduling lane. Priorities and
     * weights are read at every pick; the deadline budget stamps
     * requests at enqueue, so it applies to subsequent escalations.
     * Unregistered tenants run at the `TenantLane` defaults.
     */
    void set_tenant_lane(int owner, TenantLane lane);

    /** Lane of `owner` (the default lane when never registered). */
    TenantLane lane_of(int owner) const;

    /** Lane extremes across every tenant seen (audit bound input). */
    LaneExtremes lane_extremes() const;

    /**
     * Build decode chains for an additional code distance so a
     * heterogeneous fleet's requests decode on matching lattices.
     * Idempotent; the constructor code is implicitly registered.
     */
    void register_code(const RotatedSurfaceCode &code);

    /**
     * Install the per-link fault injector (chaos mode, src/faults/).
     * Must be installed before the first enqueue, like the scheduler.
     * An injector whose plan never fires leaves every observable
     * bit-exact with the uninjected service — the zero-fault contract
     * (pinned in tests/test_faults.cpp).
     */
    void set_fault_injector(std::unique_ptr<FaultInjector> injector);

    /** Installed injector, or nullptr on the healthy path. */
    const FaultInjector *fault_injector() const
    {
        return injector_.get();
    }

    /**
     * Enable admission-control load shedding: each `step()` first
     * sheds every waiting request already past its lane deadline and
     * delivers an empty-correction nack to its owner in the same
     * cycle, so the owner's half unblocks instead of waiting on a
     * decode that could no longer help. Expired synthetic
     * surge ballast is shed silently (counted, no nack) — that is what
     * bounds the backlog under a beyond-bandwidth surge.
     */
    void enable_shedding(bool on);

    /** What `give_up` found for the (owner, half) request. */
    enum class GiveUpResult
    {
        Canceled,  ///< still waiting: removed from the link, shed
        Stale,     ///< in flight: will land, but will be discarded
        Gone,      ///< nothing outstanding (e.g. the delivery dropped)
    };

    /**
     * Owner-side timeout: abandon the outstanding request of
     * (owner, half), freeing the half for a retry or an on-chip
     * fallback decode (core/system.hpp). A waiting request is removed
     * outright; an in-flight one cannot be recalled from the link, so
     * its eventual landing is marked stale and silently discarded.
     */
    GiveUpResult give_up(int owner, int half);

    /**
     * Fault-plan demand surge: enqueue `count` synthetic requests on
     * `owner`'s lane. They occupy real queue slots and bandwidth (that
     * is the whole point) but carry no payload, bypass the
     * one-outstanding-per-half contract, and are swallowed at landing
     * rather than delivered.
     */
    void enqueue_synthetic(int owner, uint64_t count);

    /**
     * Add one escalation to the current cycle's fresh demand. Tenants
     * call this from inside their `step()`; the request waits for
     * link capacity behind every earlier request from any tenant
     * (or per the installed scheduler's discipline).
     */
    void enqueue(Request request);

    /**
     * Advance the link one machine cycle: enqueue the fresh demand
     * accumulated since the previous step, serve up to `bandwidth`
     * waiting requests (decoding non-oracle ones batched per half
     * across owners), and return every correction whose latency
     * elapsed, in serve order. The caller routes each Delivery to
     * `BtwcSystem::deliver_offchip_correction` on the owning tenant.
     * The returned reference is valid until the next `step()`.
     */
    const std::vector<Delivery> &step();

    /** The underlying link (stall/backlog/delay/batch accounting). */
    const OffchipQueue &queue() const { return queue_; }

    /** Requests enqueued or in flight whose correction has not landed. */
    size_t pending() const { return waiting_.size() + inflight_.size(); }

    /**
     * Per-request enqueue-to-landing delays of delivered corrections,
     * recorded service-side because the counting queue's FIFO delay
     * groups no longer match individual requests once a discipline
     * re-orders service. Under FIFO with no dropped or stale landings
     * this is bin-for-bin equal to `queue().delay_histogram()` (pinned
     * in tests).
     */
    const CountHistogram &delay_histogram() const { return delay_; }

    /** Landings past their lane deadline. */
    uint64_t deadline_misses() const { return deadline_misses_; }

    /** Corrections actually delivered to owners (excludes dropped,
     * stale, synthetic; counts each landing once — duplicates extra). */
    uint64_t delivered() const { return delivered_; }

    /** Deliveries lost to the fault plan's drop clause. */
    uint64_t dropped() const { return dropped_; }

    /** Extra deliveries injected by the duplicate clause. */
    uint64_t duplicated() const { return duplicated_; }

    /** Deliveries whose correction landed with a flipped byte. */
    uint64_t corrupted() const { return corrupted_; }

    /** Requests shed past deadline (admission control). */
    uint64_t shed_requests() const { return shed_; }

    /** Requests canceled by owner give-ups (timeouts). */
    uint64_t canceled() const { return canceled_; }

    /** Landed corrections discarded as stale after a give-up. */
    uint64_t stale_discards() const { return stale_discards_; }

    /** Synthetic surge requests enqueued / swallowed at landing. */
    uint64_t surge_enqueued() const { return surge_enqueued_; }
    uint64_t surge_landed() const { return surge_landed_; }

    /** Per-tenant accounting, indexed by owner. */
    const std::vector<TenantLinkStats> &tenant_stats() const
    {
        return tenant_stats_;
    }

    /**
     * Verify the shared-link contracts in place: the underlying
     * `OffchipQueue` audit, payloads in lockstep with the counting
     * FIFOs (waiting == backlog + fresh, in-flight counts match),
     * strictly increasing sequence numbers along the waiting
     * entries (arrival order), at most one outstanding request per
     * (owner, half) across waiting + in-flight — relaxed by the number
     * of stale give-up keys the half still has in flight — and the
     * resulting `pending() <= 2 * owners + synthetic + stale` backlog
     * bound (exactly `2 * owners` when no faults machinery is active).
     * The fault ledger closes the conservation generalization: every
     * queue landing is exactly one
     * of delivered / dropped / stale-discarded / synthetic-swallowed
     * (landed == delivered + dropped + stale + surge_landed), and
     * every queue shed is deadline-shed or give-up-canceled
     * (shed_total == shed + canceled); with `OffchipQueue::audit`'s
     * enqueued == served + shed + backlog this pins "every request is
     * exactly one of served / shed / pending". Finally, no waiting
     * request has aged past the discipline's `starvation_bound` (no
     * starvation beyond the aging bound). Runs automatically after
     * every `step()` at AuditLevel::Deep (enqueue additionally
     * rejects double-enqueues at AuditLevel::Basic); throws
     * CheckFailure.
     */
    void audit() const;

  private:
    friend struct OffchipServiceTestPeer;  ///< test-only corruption hook

    /** A served request on its way back: correction plus stamps. */
    struct InFlight
    {
        Delivery delivery;
        uint64_t arrival_cycle = 0;
        uint64_t deadline_cycle = 0;
    };

    /** Decode chains of one registered extra code distance. */
    struct ExtraChains
    {
        int distance = 0;
        std::vector<TierChain> chains;  ///< per half, like chains_
    };

    /** Chains serving `distance` (0 = the constructor code). */
    std::vector<TierChain> &chains_for(int distance);

    /** Pop the requests entering service this cycle, in serve order. */
    std::vector<Request> take_served(uint64_t count);

    /** Shed waiting requests past deadline; queue their nacks. */
    void shed_expired(uint64_t now);

    /** Outstanding stale give-up keys for (owner, half). */
    size_t stale_count(int owner, int half) const;

    /** Non-synthetic in-flight entries of (owner, half). */
    size_t inflight_count(int owner, int half) const;

    /** Stamp arrival/deadline and seq on `request`; join the waiting set. */
    void admit(Request request);

    /** Decode `served` (batched per distance/half/tier) into flight. */
    void serve_decode(std::vector<Request> served);

    TenantLinkStats &tenant_slot(int owner);

    OffchipQueue queue_;
    std::vector<TierChain> chains_;  ///< per half, indexed by error type
    TierChainConfig tiers_;          ///< for register_code
    int base_distance_ = 0;          ///< constructor code's distance
    std::vector<ExtraChains> extra_chains_;
    uint64_t fresh_ = 0;             ///< enqueued since the last step()
    uint64_t next_seq_ = 0;          ///< arrival stamp for Request::seq
    int owners_seen_ = 0;            ///< 1 + largest owner ever enqueued
    // Payloads in the same order as the queue's counting FIFOs: the
    // per-cycle served/landed counts say how many entries to move. The
    // waiting set is a plain vector in arrival order so scheduler picks
    // can remove from the middle.
    std::unique_ptr<FabricScheduler> scheduler_;
    std::vector<Request> waiting_;
    HeadFifo<InFlight> inflight_;
    std::vector<Delivery> landed_now_;
    std::vector<TenantLane> lanes_;  ///< indexed by owner
    CountHistogram delay_;
    uint64_t deadline_misses_ = 0;
    std::vector<TenantLinkStats> tenant_stats_;
    // Fault machinery (all inert — and every counter zero — until an
    // injector is installed, shedding enabled, or give_up called).
    std::unique_ptr<FaultInjector> injector_;
    bool shed_enabled_ = false;
    uint64_t landed_index_ = 0;      ///< monotone per-landing fault key
    /** (owner, half) keys whose next landing is a give-up leftover. */
    std::vector<std::pair<int, int>> stale_;
    std::vector<Delivery> shed_nacks_;  ///< nacks to append this step
    uint64_t delivered_ = 0;
    uint64_t dropped_ = 0;
    uint64_t duplicated_ = 0;
    uint64_t corrupted_ = 0;
    uint64_t shed_ = 0;
    uint64_t canceled_ = 0;
    uint64_t stale_discards_ = 0;
    uint64_t surge_enqueued_ = 0;
    uint64_t surge_landed_ = 0;
    uint64_t synthetic_pending_ = 0;
};

} // namespace btwc
