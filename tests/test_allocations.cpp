/**
 * @file
 * Allocation counts of the lattice build and the off-chip serve path,
 * read from a counting global `operator new`. This translation unit
 * replaces it for the whole test binary; the replacement only counts
 * and forwards to malloc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "core/offchip_service.hpp"
#include "core/system.hpp"
#include "fabric/fabric.hpp"
#include "surface/distance.hpp"
#include "surface/lattice.hpp"
#include "surface/noise.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};

uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace btwc {
namespace {

TEST(Allocations, LatticeBuildIsFixedWhateverTheDistance)
{
    std::vector<uint64_t> counts;
    for (const int d : {3, 9, 21, 81}) {
        const uint64_t before = allocations();
        {
            const RotatedSurfaceCode code(d);
        }
        counts.push_back(allocations() - before);
    }
    for (const uint64_t count : counts) {
        EXPECT_EQ(count, counts.front());
    }
    // One flat array per table per check type, plus the two logical
    // supports.
    EXPECT_LE(counts.front(), 18u);
}

TEST(Allocations, CheckDistancesBuildIsFixedWhateverTheDistance)
{
    std::vector<uint64_t> counts;
    for (const int d : {3, 9, 21}) {
        const RotatedSurfaceCode code(d);
        for (const CheckType t : {CheckType::X, CheckType::Z}) {
            const uint64_t before = allocations();
            {
                const CheckGraphDistances table(code, t);
            }
            counts.push_back(allocations() - before);
        }
    }
    for (const uint64_t count : counts) {
        EXPECT_EQ(count, counts.front());
    }
}

TEST(Allocations, ServedCorrectionsReuseLinkBuffers)
{
    // A two-link fabric of MWPM tenants with real queueing: after
    // warm-up, every served decode writes into a buffer an earlier
    // landing handed back, so stepping the links almost never
    // allocates and the delivered corrections cycle through a bounded
    // set of buffers. Deep audits re-decode on scratch of their own,
    // so the count is taken at the basic level.
    const ScopedAuditLevel basic(AuditLevel::Basic);
    const RotatedSurfaceCode code(5);
    SystemConfig config;
    config.offchip = OffchipPolicy::Mwpm;
    const int fleet_size = 6;
    const OffchipQueueConfig link{2, 1, 0};
    FabricTopology topology;
    topology.links = 2;
    Fabric fabric(topology, code, config.tiers, link,
                  std::vector<double>(fleet_size, 6e-3));
    std::vector<BtwcSystem> fleet;
    fleet.reserve(fleet_size);
    for (int q = 0; q < fleet_size; ++q) {
        fleet.emplace_back(code, NoiseParams::uniform(6e-3), config,
                           700 + static_cast<uint64_t>(q));
        fleet.back().attach_shared_service(
            &fabric.link(static_cast<size_t>(fabric.link_of(q))), q);
    }

    uint64_t step_allocations = 0;
    uint64_t tenant_allocations = 0;
    uint64_t delivered = 0;
    uint64_t queued = 0;
    std::set<const uint64_t *> buffers;
    const int warmup = 2000;
    for (int cycle = 0; cycle < warmup + 4000; ++cycle) {
        const uint64_t tenants_before = allocations();
        int cycle_queued = 0;
        for (BtwcSystem &system : fleet) {
            cycle_queued += system.step().queued;
        }
        if (cycle >= warmup) {
            tenant_allocations += allocations() - tenants_before;
            queued += static_cast<uint64_t>(cycle_queued);
        }
        const uint64_t before = allocations();
        const std::vector<SharedOffchipService::Delivery> &landed =
            fabric.step();
        const uint64_t spent = allocations() - before;
        for (const SharedOffchipService::Delivery &landing : landed) {
            if (cycle >= warmup && !landing.correction.empty()) {
                buffers.insert(landing.correction.data());
                ++delivered;
            }
            fleet[static_cast<size_t>(landing.owner)]
                .deliver_offchip_correction(landing.half,
                                            landing.correction);
        }
        if (cycle >= warmup) {
            step_allocations += spent;
        }
    }
    EXPECT_GT(delivered, 500u);
    // Each escalation's payload is copied into a buffer the link lends
    // and takes back after serving, so the tenants' steps allocate
    // nothing once warm.
    EXPECT_GT(queued, 500u);
    EXPECT_EQ(tenant_allocations, 0u);
    // The decoders' own scratch still grows at a new high-water mark
    // now and then (35 allocations over 812 deliveries here); a fresh
    // correction buffer per served decode, scratch vectors per serving
    // step and a copy per delivery cost ~4 per delivery.
    EXPECT_LT(10 * step_allocations, delivered);
    // Per link: a pool stocked with and capped at four buffers per
    // tenant id (payloads and corrections share it) and one buffer in
    // each half's chain scratch.
    EXPECT_LE(buffers.size(),
              static_cast<size_t>(2 * (4 * fleet_size + 2)));
}

} // namespace
} // namespace btwc
