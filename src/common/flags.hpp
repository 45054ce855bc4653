#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace btwc {

struct TierChainConfig;

/**
 * Minimal command line flag parser for bench and example binaries.
 *
 * Accepts `--name=value`, `--name value` and boolean `--name` forms.
 * Unknown positional arguments are collected and can be inspected by
 * the caller.
 *
 * Error contract (mirrors `TierChainConfig::try_parse`): the library
 * never terminates the process on malformed input.
 *   - `try_parse` reports structural argv errors (an empty flag name)
 *     through a status + diagnostic;
 *   - the throwing constructor wraps it for exception-style callers;
 *   - typed accessors validate their value strictly (`--cycles=10k`
 *     is an error, not 10) and record the first diagnostic, readable
 *     via `ok()` / `error()`, while returning the caller's default.
 * Binary `main`s use `flags_or_exit`, the *only* place that prints
 * the diagnostic and calls `exit(2)` — there a malformed value also
 * exits immediately at the accessor, so a typo can never silently
 * fall back to a default mid-run.
 */
class Flags
{
  public:
    Flags() = default;

    /**
     * Parse argv; throws std::invalid_argument on a malformed argv
     * structure (see `try_parse`). Value errors surface lazily at the
     * typed accessors.
     */
    Flags(int argc, const char *const *argv);

    /**
     * Status-style parse: returns false on a malformed argv structure,
     * leaving `out` untouched and storing a diagnostic in `error`
     * (when non-null). Never terminates the process.
     */
    static bool try_parse(int argc, const char *const *argv, Flags *out,
                          std::string *error);

    /** True if the flag was present on the command line. */
    bool has(const std::string &name) const;

    /** String flag with default. */
    std::string get(const std::string &name, const std::string &def) const;

    /** Integer flag with default (strict: the whole value must parse). */
    int64_t get_int(const std::string &name, int64_t def) const;

    /** Floating point flag with default (strict). */
    double get_double(const std::string &name, double def) const;

    /**
     * Boolean flag: present without value, or with an explicit
     * true/false/1/0/yes/no value (anything else is a diagnostic).
     */
    bool get_bool(const std::string &name, bool def = false) const;

    /** Comma-separated list of integers (strict per element). */
    std::vector<int64_t> get_int_list(const std::string &name,
                                      std::vector<int64_t> def) const;

    /** Comma-separated list of doubles (strict per element). */
    std::vector<double> get_double_list(const std::string &name,
                                        std::vector<double> def) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /**
     * Names of every flag present on the command line (sorted). Lets
     * a CLI with a closed flag surface reject unknown flags instead
     * of silently ignoring a typo.
     */
    std::vector<std::string> names() const;

    /** False once any typed accessor saw a malformed value. */
    bool ok() const { return error_.empty(); }

    /** First recorded accessor diagnostic ("" while ok()). */
    const std::string &error() const { return error_; }

  private:
    friend Flags flags_or_exit(int argc, const char *const *argv);

    /** Record a diagnostic — or print it and exit(2) in CLI mode. */
    void fail(const std::string &diagnostic) const;

    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
    mutable std::string error_;
    bool exit_on_error_ = false;  ///< set only by flags_or_exit
};

/**
 * The CLI entry point every binary `main` uses: parse argv and, on a
 * malformed structure *or any later malformed value*, print the
 * diagnostic to stderr and exit(2). This is the only process-exit
 * path of the flag layer (cf. `tiers_from_flags` for `--tiers`).
 */
Flags flags_or_exit(int argc, const char *const *argv);

/**
 * Shared `--threads` convention for every bench and example binary:
 * N >= 1 requests exactly N Monte-Carlo worker shards, 0 requests all
 * hardware threads (resolved by sim/engine.hpp), and the default is
 * the historical single-threaded behavior. Negative values clamp
 * to 0 (= auto).
 */
int threads_from_flags(const Flags &flags, int def = 1);

/**
 * Shared `--tiers` convention: parse the flag's tier-chain spec via
 * `TierChainConfig::try_parse` and, on a malformed spec, print the
 * diagnostic to stderr and exit(2). This is the *only* place the CLI
 * exit-on-parse-error contract lives; the library parser itself
 * reports errors to the caller (status/throw) and never terminates
 * the process.
 */
TierChainConfig tiers_from_flags(const Flags &flags,
                                 const std::string &def = "clique,mwpm",
                                 int uf_threshold = 2);

/**
 * Shared off-chip service flags for bench and example binaries
 * (cf. core/offchip_queue.hpp):
 *
 *   --offchip-latency N    decode round-trip latency in cycles
 *   --offchip-bandwidth N  served decodes per cycle (0 = unlimited)
 *   --batch N              batch-accounting slice (0 = per cycle)
 *
 * All default to 0, the synchronous model. Negative values clamp to 0.
 */
struct OffchipServiceFlags
{
    uint64_t latency = 0;
    uint64_t bandwidth = 0;
    uint64_t batch = 0;
};

OffchipServiceFlags offchip_from_flags(const Flags &flags);

/**
 * Shared fleet-link flags for bench and example binaries
 * (cf. core/offchip_service.hpp and sim/fleet.hpp):
 *
 *   --shared-link    route every simulated qubit's escalations
 *                    through one shared off-chip service instead of
 *                    one link per qubit
 *   --fleet-size N   number of fully simulated pipelines in the
 *                    exact fleet (default per binary; N <= 0 clamps
 *                    to the default)
 */
struct FleetLinkFlags
{
    bool shared_link = false;
    int fleet_size = 0;
};

FleetLinkFlags fleet_link_from_flags(const Flags &flags,
                                     int default_fleet_size);

} // namespace btwc
