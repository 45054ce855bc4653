/**
 * @file
 * Tests for the contract/audit subsystem (src/common/check.hpp): audit
 * level semantics and the ScopedAuditLevel RAII, CheckFailure payload,
 * macro evaluation gating, the structural audit() methods (PackedBits,
 * MaxWeightMatching slots, OffchipQueue, SharedOffchipService,
 * CheckGraphDistances) including deliberate-corruption negative tests,
 * the SingleThreadOwner pooled-scratch guard, and the scenario-level
 * audit= knob (grammar round-trip; metrics invariant under auditing).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/report.hpp"
#include "api/run.hpp"
#include "api/scenario.hpp"
#include "common/check.hpp"
#include "core/offchip_queue.hpp"
#include "core/offchip_service.hpp"
#include "decoders/tier_chain.hpp"
#include "matching/blossom.hpp"
#include "surface/distance.hpp"
#include "surface/lattice.hpp"
#include "surface/packed.hpp"

namespace btwc {

/** Test-only hook into SharedOffchipService's waiting set, used to
 * prove the audit actually detects a broken arrival order (the friend
 * declaration is the only way in: the set is private). */
struct OffchipServiceTestPeer
{
    static void swap_oldest_waiting(SharedOffchipService &service)
    {
        std::swap(service.waiting_[0], service.waiting_[1]);
    }
};

namespace {

// --------------------------------------------------------- audit level

TEST(AuditLevel, ParseAcceptsNamesAndDigits)
{
    AuditLevel level = AuditLevel::Deep;
    EXPECT_TRUE(parse_audit_level("off", &level));
    EXPECT_EQ(level, AuditLevel::Off);
    EXPECT_TRUE(parse_audit_level("basic", &level));
    EXPECT_EQ(level, AuditLevel::Basic);
    EXPECT_TRUE(parse_audit_level("deep", &level));
    EXPECT_EQ(level, AuditLevel::Deep);
    EXPECT_TRUE(parse_audit_level("0", &level));
    EXPECT_EQ(level, AuditLevel::Off);
    EXPECT_TRUE(parse_audit_level("2", &level));
    EXPECT_EQ(level, AuditLevel::Deep);

    level = AuditLevel::Basic;
    EXPECT_FALSE(parse_audit_level("bogus", &level));
    EXPECT_EQ(level, AuditLevel::Basic);  // untouched on reject
}

TEST(AuditLevel, NamesRoundTrip)
{
    for (const AuditLevel level :
         {AuditLevel::Off, AuditLevel::Basic, AuditLevel::Deep}) {
        AuditLevel parsed = AuditLevel::Off;
        EXPECT_TRUE(parse_audit_level(audit_level_name(level), &parsed));
        EXPECT_EQ(parsed, level);
    }
}

TEST(AuditLevel, ScopedOverrideRestoresOnExit)
{
    const AuditLevel before = audit_level();
    {
        ScopedAuditLevel outer(AuditLevel::Deep);
        EXPECT_EQ(audit_level(), AuditLevel::Deep);
        EXPECT_TRUE(audit_basic());
        EXPECT_TRUE(audit_deep());
        {
            ScopedAuditLevel inner(AuditLevel::Off);
            EXPECT_FALSE(audit_basic());
            EXPECT_FALSE(audit_deep());
        }
        EXPECT_EQ(audit_level(), AuditLevel::Deep);
    }
    EXPECT_EQ(audit_level(), before);
}

// --------------------------------------------------------- CheckFailure

TEST(CheckFailure, CarriesFileLineExpressionAndMessage)
{
    try {
        BTWC_CHECK_MSG(1 + 1 == 3, "arithmetic still works");
        FAIL() << "BTWC_CHECK_MSG must throw on a false condition";
    } catch (const CheckFailure &failure) {
        EXPECT_STREQ(failure.expression(), "1 + 1 == 3");
        EXPECT_NE(std::string(failure.file()).find("test_check.cpp"),
                  std::string::npos);
        EXPECT_GT(failure.line(), 0);
        const std::string what = failure.what();
        EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos);
        EXPECT_NE(what.find("arithmetic still works"), std::string::npos);
        EXPECT_NE(what.find("test_check.cpp"), std::string::npos);
    }
}

TEST(CheckFailure, CheckPassesOnTrueCondition)
{
    EXPECT_NO_THROW(BTWC_CHECK(2 + 2 == 4));
    EXPECT_NO_THROW(BTWC_CHECK_MSG(true, "unused"));
}

// ------------------------------------------------------------- macros

TEST(AuditMacro, NotEvaluatedWhenOff)
{
    ScopedAuditLevel off(AuditLevel::Off);
    int evaluated = 0;
    BTWC_AUDIT((++evaluated, false));  // false, but gated off
    EXPECT_EQ(evaluated, 0);
}

TEST(AuditMacro, EvaluatedAndEnforcedAtBasic)
{
    ScopedAuditLevel basic(AuditLevel::Basic);
    int evaluated = 0;
    BTWC_AUDIT((++evaluated, true));
    EXPECT_EQ(evaluated, 1);
    EXPECT_THROW(BTWC_AUDIT(false), CheckFailure);
    EXPECT_THROW(BTWC_AUDIT_MSG(false, "why"), CheckFailure);
}

// --------------------------------------------------------- PackedBits

TEST(PackedBitsAudit, CleanBitsetPasses)
{
    PackedBits bits(70);
    bits.set(0);
    bits.set(69);
    EXPECT_NO_THROW(bits.audit());
}

TEST(PackedBitsAudit, CorruptedTailWordThrows)
{
    PackedBits bits(70);
    bits.set(3);
    // Raw data() write past size(): bit 104 lives in the tail word's
    // dead zone, exactly what whole-word reductions must never see.
    bits.data()[1] |= uint64_t(1) << 40;
    EXPECT_THROW(bits.audit(), CheckFailure);
    EXPECT_THROW(
        {
            try {
                bits.audit();
            } catch (const CheckFailure &failure) {
                EXPECT_NE(std::string(failure.what()).find(">= size()"),
                          std::string::npos);
                throw;
            }
        },
        CheckFailure);
}

// ------------------------------------------------- matcher slot audit

TEST(MatcherAudit, ResetRestoresSlotsAcrossShrinkAndGrow)
{
    // reset() zeroes the real (n+1)^2 weight region and nothing else:
    // blossom slots keep whatever an earlier (larger) instance left,
    // because every solve writes a blossom's row and column before it
    // reads them. So the audited postcondition is the real region,
    // and the behavioural one is "a reused solver solves like a fresh
    // one" after shrinking and growing.
    ScopedAuditLevel deep(AuditLevel::Deep);  // reset() self-audits
    MaxWeightMatching matcher;
    matcher.reset(6);
    matcher.set_weight(0, 1, 5);
    matcher.set_weight(2, 3, 4);
    matcher.set_weight(4, 5, 3);
    matcher.set_weight(1, 2, 7);
    matcher.set_weight(0, 2, 6);  // odd cycle 0-1-2
    matcher.solve();
    EXPECT_NO_THROW(matcher.audit_slots(false));
    EXPECT_THROW(matcher.audit_slots(true), CheckFailure);

    matcher.reset(4);  // shrink: reuse path
    EXPECT_NO_THROW(matcher.audit_slots(true));
    MaxWeightMatching fresh(4);
    for (MaxWeightMatching *m : {&matcher, &fresh}) {
        m->set_weight(0, 1, 2);
        m->set_weight(1, 2, 3);
        m->set_weight(0, 2, 3);
        m->set_weight(2, 3, 2);
    }
    const std::vector<int> want = fresh.solve();
    EXPECT_EQ(matcher.solve(), want);
    EXPECT_EQ(matcher.total_weight(), fresh.total_weight());

    matcher.reset(8);  // grow: reallocation path
    EXPECT_NO_THROW(matcher.audit_slots(true));
}

// --------------------------------------------------- off-chip queue

TEST(OffchipQueueAudit, CleanThroughBackloggedOperation)
{
    OffchipQueue queue(OffchipQueueConfig{1, 2, 0});
    EXPECT_NO_THROW(queue.audit());
    // Burst of 3 against bandwidth 1 builds real backlog; then drain.
    const uint64_t fresh[] = {3, 0, 1, 0, 0, 0, 0};
    for (const uint64_t f : fresh) {
        queue.step(f);
        EXPECT_NO_THROW(queue.audit());
    }
    EXPECT_EQ(queue.enqueued(), 4u);
    EXPECT_EQ(queue.enqueued(), queue.served() + queue.backlog());
    EXPECT_EQ(queue.served(), queue.landed() + queue.in_flight());
}

// ------------------------------------------------- shared service

SharedOffchipService::Request
oracle_request(const RotatedSurfaceCode &code, int owner, int half)
{
    SharedOffchipService::Request request;
    request.owner = owner;
    request.half = half;
    request.tier_index = 1;
    request.oracle = true;
    request.payload.assign(static_cast<size_t>(code.num_data()), 0);
    return request;
}

TEST(SharedServiceAudit, DoubleEnqueuePerHalfThrowsAtBasic)
{
    ScopedAuditLevel basic(AuditLevel::Basic);
    const RotatedSurfaceCode code(3);
    SharedOffchipService service(code, TierChainConfig::legacy(),
                                 OffchipQueueConfig{1, 2, 0});
    service.enqueue(oracle_request(code, 0, 0));
    service.enqueue(oracle_request(code, 0, 1));  // other half: fine
    service.enqueue(oracle_request(code, 1, 0));  // other owner: fine
    EXPECT_THROW(service.enqueue(oracle_request(code, 0, 0)),
                 CheckFailure);
    EXPECT_NO_THROW(service.audit());
}

TEST(SharedServiceAudit, BrokenFifoOrderIsDetected)
{
    const RotatedSurfaceCode code(3);
    SharedOffchipService service(code, TierChainConfig::legacy(),
                                 OffchipQueueConfig{1, 2, 0});
    service.enqueue(oracle_request(code, 0, 0));
    service.enqueue(oracle_request(code, 1, 0));
    EXPECT_NO_THROW(service.audit());
    OffchipServiceTestPeer::swap_oldest_waiting(service);
    EXPECT_THROW(service.audit(), CheckFailure);
}

// --------------------------------------------- single-thread owner

TEST(SingleThreadOwner, SecondThreadOnPooledScratchThrows)
{
    ScopedAuditLevel basic(AuditLevel::Basic);
    const RotatedSurfaceCode code(3);
    TierChain chain(code, CheckType::X, TierChainConfig::legacy());
    const std::vector<uint8_t> zeros(
        static_cast<size_t>(code.num_checks(CheckType::X)), 0);
    chain.decode_syndrome(zeros);  // binds ownership to this thread

    bool threw = false;
    std::thread intruder([&chain, &zeros, &threw] {
        try {
            chain.decode_syndrome(zeros);
        } catch (const CheckFailure &) {
            threw = true;
        }
    });
    intruder.join();
    EXPECT_TRUE(threw);
    // The bound owner keeps working.
    EXPECT_NO_THROW(chain.decode_syndrome(zeros));
}

TEST(SingleThreadOwner, InactiveWhenAuditingIsOff)
{
    ScopedAuditLevel off(AuditLevel::Off);
    const RotatedSurfaceCode code(3);
    TierChain chain(code, CheckType::X, TierChainConfig::legacy());
    const std::vector<uint8_t> zeros(
        static_cast<size_t>(code.num_checks(CheckType::X)), 0);
    chain.decode_syndrome(zeros);
    bool threw = false;
    std::thread visitor([&chain, &zeros, &threw] {
        try {
            chain.decode_syndrome(zeros);
        } catch (const CheckFailure &) {
            threw = true;
        }
    });
    visitor.join();
    EXPECT_FALSE(threw);
}

// ---------------------------------------------- distance-table audit

TEST(DistanceAudit, DeepAuditPassesOnRealTables)
{
    ScopedAuditLevel deep(AuditLevel::Deep);  // ctor self-audits
    const RotatedSurfaceCode code(5);
    for (const CheckType type : {CheckType::X, CheckType::Z}) {
        const CheckGraphDistances &distances = code.check_distances(type);
        EXPECT_NO_THROW(distances.audit(code, type));
    }
}

// --------------------------------------------------- scenario knob

TEST(ScenarioAudit, GrammarRoundTripsAndRejects)
{
    const ScenarioSpec spec =
        ScenarioSpec::parse("kind=lifetime,d=5,audit=deep");
    EXPECT_EQ(spec.engine.audit, static_cast<int>(AuditLevel::Deep));
    const std::string rendered = spec.to_string();
    EXPECT_NE(rendered.find("audit=deep"), std::string::npos);
    EXPECT_EQ(ScenarioSpec::parse(rendered), spec);

    // Default: no audit token, level untouched (-1 sentinel).
    const ScenarioSpec plain = ScenarioSpec::parse("kind=lifetime");
    EXPECT_EQ(plain.engine.audit, -1);
    EXPECT_EQ(plain.to_string().find("audit="), std::string::npos);

    ScenarioSpec out;
    std::string error;
    EXPECT_FALSE(ScenarioSpec::try_parse("audit=paranoid", &out, &error));
    EXPECT_NE(error.find("audit"), std::string::npos);
}

TEST(ScenarioAudit, MetricsAreBitIdenticalAcrossAuditLevels)
{
    ScenarioSpec spec =
        ScenarioSpec::parse("kind=lifetime,d=3,p=5e-3,cycles=300");
    spec.engine.audit = static_cast<int>(AuditLevel::Off);
    Report off = run_scenario(spec);
    spec.engine.audit = static_cast<int>(AuditLevel::Deep);
    Report deep = run_scenario(spec);
    // Audits consume no randomness and alter no metrics: the whole
    // metrics subtree (counters included) must match bit-for-bit.
    EXPECT_EQ(off.child("metrics").to_json(),
              deep.child("metrics").to_json());
}

} // namespace
} // namespace btwc
