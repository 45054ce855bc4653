#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/fifo.hpp"
#include "common/stats.hpp"

namespace btwc {

/**
 * Relative execution-time increase of a stalled run: stall cycles per
 * work cycle (the paper's Fig. 16 x-axis). An all-stall run — stalls
 * recorded but zero work cycles — is an infinite slowdown, not a free
 * one, so it saturates to +inf instead of reading as 0.
 */
inline double
stall_execution_time_increase(uint64_t stall_cycles, uint64_t work_cycles)
{
    if (work_cycles == 0) {
        return stall_cycles == 0
                   ? 0.0
                   : std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(stall_cycles) /
           static_cast<double>(work_cycles);
}

/** Service parameters of the off-chip decode link (§5.2). */
struct OffchipQueueConfig
{
    /**
     * Decode requests entering service per cycle (the provisioned link
     * width of Fig. 16). 0 = unlimited: every queued request is served
     * the cycle it arrives, the implicit assumption of the synchronous
     * model.
     */
    uint64_t bandwidth = 0;
    /**
     * Cycles between a request entering service and its correction
     * landing back on-chip (decode compute + down-link). 0 reproduces
     * the synchronous model: corrections land in the cycle that
     * produced the request.
     */
    uint64_t latency = 0;
    /**
     * Largest group of same-cycle served requests handed to one
     * `Decoder::decode_batch` call. 0 = one batch per serve cycle.
     * Only affects the batch-size accounting and how callers group
     * decodes; scheduling is independent of it.
     */
    uint64_t max_batch = 0;
};

/**
 * Asynchronous off-chip decode service: a latency-L, bandwidth-B FIFO
 * queue with decode-overflow execution stalling (§5.2 of the paper).
 *
 * Each cycle, up to `bandwidth` queued requests enter service and
 * their results land `latency` cycles later; excess demand carries
 * over as backlog, and a cycle that ends with backlog forces the next
 * cycle to stall: the waveform generator issues identity gates
 * (Fig. 10), no program progress is made, but qubits keep decohering,
 * so fresh requests still arrive. At `latency == 0` the backlog obeys
 * the Lindley recursion b' = max(0, b + fresh - bandwidth) (tested).
 * On top of the stall accounting the queue tracks the end-to-end
 * queueing delay of every request (enqueue to landing) and the size
 * of every served batch, the two observables the synchronous model
 * cannot express.
 *
 * This class only counts requests; `SharedOffchipService` carries the
 * decode payloads in parallel and uses the returned `StepResult` to
 * know how many entries to move per cycle.
 */
class OffchipQueue
{
  public:
    /** What the service did in one cycle. */
    struct StepResult
    {
        uint64_t served = 0;  ///< requests that entered service
        uint64_t landed = 0;  ///< corrections that landed on-chip
    };

    explicit OffchipQueue(OffchipQueueConfig config = OffchipQueueConfig());

    /**
     * Per-cycle fault condition of the link (src/faults/): what the
     * `FaultInjector` says this cycle looks like. The all-default
     * value is the healthy link, and `step(n)` forwards to
     * `step(n, StepFaults{})` — so the fault-aware path is byte-exact
     * with the legacy one when nothing fires.
     */
    struct StepFaults
    {
        /**
         * Link dead this cycle: nothing enters service and nothing
         * lands — every due in-service result is postponed by one
         * cycle (the down-link is dead in both directions), its
         * recorded delay stretching with it.
         */
        bool outage = false;
        /** Extra service latency this cycle (latency spike). */
        uint64_t extra_latency = 0;
    };

    /**
     * Advance one cycle with `new_requests` fresh escalations: enqueue
     * them, serve up to `bandwidth` queued requests (FIFO), and land
     * every in-flight result whose latency has elapsed.
     */
    StepResult step(uint64_t new_requests);

    /** As `step(new_requests)` under this cycle's fault condition. */
    StepResult step(uint64_t new_requests, const StepFaults &faults);

    /**
     * Remove `count` waiting requests from the backlog without serving
     * them — the accounting half of admission-control load shedding
     * and of tenant give-ups (core/offchip_service.hpp); the service
     * removes the matching payloads. Counts are taken from the oldest
     * waiting groups (the queue tracks only counts, not identities).
     * Shed requests move enqueued-conservation to the `shed()` column:
     * enqueued == served + shed + backlog.
     */
    void shed(uint64_t count);

    /** Active configuration. */
    const OffchipQueueConfig &config() const { return config_; }

    /** Cycles elapsed. */
    uint64_t total_cycles() const { return total_cycles_; }

    /** Cycles that made program progress. */
    uint64_t work_cycles() const { return work_cycles_; }

    /** Cycles spent stalled (previous cycle ended with backlog). */
    uint64_t stall_cycles() const { return stall_cycles_; }

    /** Whether the *upcoming* cycle is a stall. */
    bool stall_pending() const { return stall_next_; }

    /** Requests queued but not yet in service. */
    uint64_t backlog() const { return backlog_; }

    /** Largest backlog ever observed. */
    uint64_t max_backlog() const { return max_backlog_; }

    /** Requests in service whose correction has not landed yet. */
    uint64_t in_flight() const { return in_flight_; }

    /** Total requests ever enqueued. */
    uint64_t enqueued() const { return enqueued_; }

    /** Total requests that entered service. */
    uint64_t served() const { return served_; }

    /** Total corrections landed. */
    uint64_t landed() const { return landed_; }

    /** Total requests shed (admission control + give-ups). */
    uint64_t shed_total() const { return shed_; }

    /** Cycles this link spent inside an outage window. */
    uint64_t outage_cycles() const { return outage_cycles_; }

    /**
     * Relative execution-time increase caused by stalling (Fig. 16
     * x-axis); +inf for an all-stall run (see
     * `stall_execution_time_increase`).
     */
    double execution_time_increase() const
    {
        return stall_execution_time_increase(stall_cycles_, work_cycles_);
    }

    /**
     * Recorded delays saturate here: the histogram's dense count
     * array is sized by the largest value, and a saturated queue's
     * FIFO wait grows with run length (a diverging Fig. 16 point
     * would otherwise allocate run-length-sized arrays -- and a typo
     * latency, gigabytes). Any delay at the cap means "effectively
     * unbounded".
     */
    static constexpr uint64_t kMaxRecordedDelay = 1 << 16;

    /**
     * End-to-end delay of every landed correction in cycles (enqueue
     * to landing: queueing wait plus service latency), saturated at
     * `kMaxRecordedDelay`. All-zero with the synchronous
     * `latency == 0`, `bandwidth == 0` configuration.
     */
    const CountHistogram &delay_histogram() const { return delay_; }

    /**
     * Size of every served per-cycle group, sliced at
     * `OffchipQueueConfig::max_batch`: the groups a decoder serving
     * this link receives per `decode_batch` call. This is a
     * *link-level* statistic -- a single `BtwcSystem`'s own decode
     * batches are additionally bounded by its
     * one-outstanding-request-per-half contract (see system.hpp).
     */
    const CountHistogram &batch_histogram() const { return batch_; }

    /**
     * Verify the queue's internal consistency: conservation across
     * the counters (enqueued == served + shed + backlog,
     * served == landed + in_flight, total == work + stall cycles),
     * FIFO group order (enqueue cycles non-decreasing in the waiting
     * FIFO, land cycles non-decreasing and not yet due in the
     * in-service FIFO), group counts summing to the backlog /
     * in-flight counters, and the stall flag matching the backlog.
     * Called per cycle by its owners at AuditLevel::Deep; throws
     * CheckFailure.
     */
    void audit() const;

  private:
    /** A run of requests enqueued (or landing) in the same cycle. */
    struct Group
    {
        uint64_t cycle = 0;  ///< enqueue cycle (waiting) / land cycle
        uint64_t count = 0;
        /**
         * In-service groups only: the (saturated) enqueue-to-landing
         * delay, carried so the delay histogram is populated when the
         * correction actually lands (its total() is the landed
         * count), not when service starts.
         */
        uint64_t delay = 0;
    };

    OffchipQueueConfig config_;
    uint64_t cycle_ = 0;
    HeadFifo<Group> waiting_;     ///< enqueued, not yet in service
    HeadFifo<Group> in_service_;  ///< serving, keyed by land cycle
    uint64_t backlog_ = 0;
    uint64_t in_flight_ = 0;
    uint64_t enqueued_ = 0;
    uint64_t served_ = 0;
    uint64_t landed_ = 0;
    uint64_t shed_ = 0;
    uint64_t outage_cycles_ = 0;
    uint64_t max_backlog_ = 0;
    uint64_t total_cycles_ = 0;
    uint64_t work_cycles_ = 0;
    uint64_t stall_cycles_ = 0;
    bool stall_next_ = false;
    CountHistogram delay_;
    CountHistogram batch_;
};

} // namespace btwc
