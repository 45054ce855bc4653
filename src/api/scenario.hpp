#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "core/system.hpp"
#include "decoders/tier_chain.hpp"
#include "fabric/harness.hpp"
#include "faults/fault_plan.hpp"
#include "sim/fleet.hpp"
#include "sim/lifetime.hpp"
#include "sim/memory.hpp"
#include "sim/stream.hpp"
#include "surface/lattice.hpp"

namespace btwc {

/**
 * Which simulation harness a scenario drives (see run_scenario):
 *
 *   Lifetime   run_lifetime              — signature / pipeline modes
 *   Memory     run_memory_experiment     — logical error rate trials
 *   Fleet      fleet_demand_histogram +  — binomial machine model,
 *              run_fleet_with_bandwidth    optional provisioned link
 *   ExactFleet run_fabric                — fully simulated pipelines,
 *                                          one shared FIFO link or
 *                                          one link per tenant
 *   Stream     run_stream                — sliding-window streaming
 *                                          decode of one syndrome
 *                                          stream
 *   Fabric     run_fabric                — exact fleet against a
 *                                          K-link decode fabric with
 *                                          pluggable schedulers and
 *                                          per-tenant SLO probes
 */
enum class ScenarioKind : uint8_t
{
    Lifetime = 0,
    Memory = 1,
    Fleet = 2,
    ExactFleet = 3,
    Stream = 4,
    Fabric = 5,
};

/** Canonical name of a kind ("lifetime" | "memory" | ...). */
const char *scenario_kind_name(ScenarioKind kind);

/** The code / noise operating point of a scenario. */
struct CodeSpec
{
    int distance = 5;
    double p = 1e-3;       ///< data-error probability per cycle/round
    double p_meas = -1.0;  ///< measurement-flip probability; <0 -> p
    int filter_rounds = 2; ///< Fig. 7 persistence window
    int rounds = 0;        ///< memory-only: noisy rounds; 0 = d
    CheckType error_type = CheckType::X;  ///< memory-only: which half
};

/** The off-chip service / fleet side of a scenario. */
struct ServiceSpec
{
    OffchipPolicy policy = OffchipPolicy::Oracle;
    uint64_t latency = 0;    ///< decode round-trip latency in cycles
    uint64_t bandwidth = 0;  ///< served decodes per cycle; 0 = unlimited
                             ///< (Fleet kind: 0 = demand histogram only)
    uint64_t batch = 0;      ///< batch_histogram slice; no decode effect
    bool shared_link = false;  ///< ExactFleet: one multi-tenant link
    int fleet_size = 10;       ///< ExactFleet: fully simulated tenants
    int num_qubits = 1000;     ///< Fleet: binomial machine size
    double offchip_prob = 0.01;  ///< Fleet: per-qubit per-cycle q
    double hot_fraction = 0.0;   ///< Fleet/ExactFleet/Fabric: hot fraction
    double hot_mult = 1.0;       ///< hot-spot multiplier (on q resp. p)
    // Fabric kind only (grammar keys `links=` / `scheduler=` /
    // `placement=` / `deadline=`; non-defaults rejected elsewhere):
    int links = 1;  ///< off-chip links in the decode fabric
    SchedulerKind scheduler = SchedulerKind::Fifo;
    PlacementKind placement = PlacementKind::StaticHash;
    uint64_t deadline = 0;  ///< per-request deadline budget in cycles
    /**
     * Chaos mode (src/faults/). `faults=` installs a fault plan (the
     * grammar of FaultPlan::try_parse, with its ';'/':' separators —
     * no commas, so it nests in the scenario grammar verbatim); valid
     * in kind=fabric, and in kind=exact-fleet only with the shared
     * link. The degradation knobs are fabric-only: `timeout=` /
     * `retries=` (tenant give-up budget and retry count, see
     * SystemConfig::offchip_timeout), `shed=` (link-side deadline load
     * shedding), and `migrate=` (failover threshold,
     * FabricTopology::migrate_threshold).
     */
    FaultPlan faults;
    uint64_t timeout = 0;  ///< tenant give-up budget in cycles; 0 = off
    int retries = 0;       ///< re-escalations before the UF fallback
    bool shed = false;     ///< link-side deadline load shedding
    uint64_t migrate = 0;  ///< failover threshold in cycles/requests; 0 = off
};

/**
 * The sliding-window geometry of a Stream scenario (grammar keys
 * `window=` / `overlap=`; stream-only, like every key the table
 * scopes to one kind). Cross-field
 * validation — a non-empty commit region needs overlap < window — is
 * enforced by the spec parser with a diagnostic.
 */
struct StreamSpec
{
    int window = 8;   ///< W: rounds per decode window
    int overlap = 2;  ///< V: rounds re-decoded next window
};

/** The Monte-Carlo engine side of a scenario. */
struct EngineSpec
{
    int threads = 1;    ///< worker shards (sim/engine.hpp); 0 = all cores
    uint64_t seed = 1;
    uint64_t cycles = 0;  ///< simulated cycles; 0 = the harness default
    uint64_t trials = 0;  ///< memory-only: trial cap; 0 = default
    uint64_t target_failures = 0;  ///< memory-only early stop; 0 = default
    /**
     * Contract-audit level for the run (common/check.hpp): 0 = off,
     * 1 = basic, 2 = deep; negative = leave the process default
     * (BTWC_AUDIT env / build type) untouched. Grammar key
     * `audit=off|basic|deep`; `run_scenario` applies it for the
     * duration of the run via ScopedAuditLevel. Audits consume no
     * randomness and alter no metrics, so reports are bit-identical
     * across levels.
     */
    int audit = -1;
};

/**
 * One experiment, fully described — the single front door to every
 * simulation harness. A `ScenarioSpec` round-trips through a compact
 * comma-separated grammar:
 *
 *     kind=exact-fleet,d=21,p=1e-3,tiers=clique,uf:3,mwpm,latency=2,
 *     bandwidth=1,fleet=50
 *
 * Tokens are `key=value` pairs; a bare token is a scenario kind
 * (`lifetime` | `memory` | `fleet` | `exact-fleet` | `stream` |
 * `fabric`), a mode (`pipeline`, `signature`), a boolean key's name
 * (`shared`, `weighted`, `shed`), or — immediately after a `tiers=`
 * assignment — a continuation of the tier list (`uf:3`, `mwpm`, ...
 * as in TierChainConfig::parse; `stream` right after `tiers=` is a
 * tier, elsewhere the kind). Every key, its spellings and the kinds
 * that read it come from one key table (scenario_keys()); a
 * non-default value for a key its kind does not read is a
 * diagnostic. Full grammar: src/api/README.md. `to_string()` emits
 * the table's order with defaulted fields omitted, and
 * `parse(spec.to_string()) == spec` for every valid spec.
 */
struct ScenarioSpec
{
    ScenarioKind kind = ScenarioKind::Lifetime;
    CodeSpec code;
    TierChainConfig tiers = TierChainConfig::legacy();
    LifetimeMode mode = LifetimeMode::Signature;  ///< Lifetime kind
    DecoderArm arm = DecoderArm::CliqueMwpm;      ///< Memory kind
    bool weighted_matching = false;               ///< Memory kind
    ServiceSpec service;
    StreamSpec stream;                            ///< Stream kind
    EngineSpec engine;

    /**
     * Parse the scenario grammar. Returns false on a malformed spec,
     * leaving `out` untouched and storing a diagnostic in `error`
     * (when non-null); never terminates the process (the CLI
     * exit-on-error behavior lives in btwc_run's main).
     */
    static bool try_parse(const std::string &spec, ScenarioSpec *out,
                          std::string *error);

    /** As `try_parse`, but throws std::invalid_argument. */
    static ScenarioSpec parse(const std::string &spec);

    /** Canonical spec string (see class comment; parse round-trips). */
    std::string to_string() const;

    /**
     * Override this spec with every recognized flag present in
     * `flags` (absent flags leave fields untouched) — how btwc_run
     * layers CLI overrides over a registry scenario, and how a CLI
     * builds a spec from a default one. Recognized: every spelling of
     * every key-table row (scenario_override_flags()). Returns false
     * with a diagnostic on a malformed value, and validates like
     * `try_parse`.
     */
    bool apply_flags(const Flags &flags, std::string *error);

    /** Lossless adapters to the legacy per-harness config structs. */
    LifetimeConfig to_lifetime_config() const;
    MemoryConfig to_memory_config() const;
    FleetConfig to_fleet_config() const;
    ExactFleetConfig to_exact_fleet_config() const;
    /**
     * Stream-kind adapter: `cycles` maps to the stream's total round
     * budget. The untouched default (legacy) chain denotes the bare
     * sliding-window MWPM; an explicitly set chain must end with the
     * `stream` tier (parse-time diagnostic otherwise).
     */
    StreamConfig to_stream_config() const;
    /**
     * Fabric adapter: the exact-fleet operating point (including
     * the hot-spot per-tenant noise profile) plus the fabric topology
     * keys. An exact-fleet spec maps to the FIFO fabric without
     * probes: one link when `shared` is set, one per tenant otherwise.
     */
    FabricFleetConfig to_fabric_config() const;

    /** Specs are equal iff their canonical strings are. */
    bool operator==(const ScenarioSpec &other) const
    {
        return to_string() == other.to_string();
    }
    bool operator!=(const ScenarioSpec &other) const
    {
        return !(*this == other);
    }
};

/**
 * Spec-grammar rendering of a tier chain, the inverse of
 * `TierChainConfig::try_parse`: "clique,uf:3,mwpm". Thresholds are
 * explicit wherever they are set, so the result re-parses identically
 * under any `uf_threshold` default.
 */
std::string tiers_spec_string(const TierChainConfig &config);

/**
 * One row of the scenario key table (src/api/scenario.cpp) as tests
 * and docs see it; the row's typed parser and printer stay private.
 */
struct ScenarioKey
{
    /** [0] is canonical; each is accepted as `key=` and `--flag`. */
    std::vector<std::string> spellings;
    /** Bit `1 << kind` for each ScenarioKind that reads the key. */
    uint32_t kinds = 0;
    /**
     * Execution knobs (threads, audit): they change how a run
     * executes, not the experiment, so the key-effect test exempts
     * them.
     */
    bool metric_neutral = false;

    bool owns(ScenarioKind kind) const
    {
        return ((kinds >> static_cast<unsigned>(kind)) & 1u) != 0;
    }
};

/** The key table's rows, in canonical (`to_string`) order. */
const std::vector<ScenarioKey> &scenario_keys();

/**
 * Every flag spelling `ScenarioSpec::apply_flags` recognizes: each
 * row's spellings plus the historical `--pipeline` / `--real_offchip`
 * shortcuts. CLIs whose whole flag surface is the override set
 * (btwc_run) use this to reject unknown flags instead of silently
 * dropping them.
 */
const std::vector<std::string> &scenario_override_flags();

} // namespace btwc
